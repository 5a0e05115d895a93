"""One-command benchmark of the Landi/Ryder may-alias reproduction.

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 30 --trace 0

Workloads: ``paper-suite``, ``struct-corpus``, ``serve-edit`` (why each
exists: NOTES.md).  Batch passes each run in a fresh child process, one
at a time.  With ``--trace 0`` it measures the end-to-end metrics; with
``--trace 1`` it records spans around the benchmark's calls into each
layer and reports per-layer self time and counters instead.
Correctness checks run outside the timed region in both modes.

Output: one JSON row per metric (with run metadata and sample count),
then, as the last line, ``{"correct", "attempted", "failed",
"metrics"}``.  Exit status 1 when a check failed, 2 when the program
under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    SRC,
    WORK,
    NullTracer,
    Tracer,
    benchmark_spec,
    peak_rss_mb_of,
    peak_rss_mb_self,
    program_present,
    run_metadata,
    source_digest,
    tail_percentile,
)

WORKLOADS = ("paper-suite", "struct-corpus", "serve-edit")
SETUP_SAMPLES = 7

#: Per-layer metrics of the traced run, with units.  A layer that does
#: not run on a workload reports 0 (e.g. the cache on batch workloads).
PER_LAYER_UNITS = {
    "frontend.parse_s": "s",
    "frontend.lower_s": "s",
    "corpus.stubs_s": "s",
    "icfg.build_s": "s",
    "icfg.nodes": "count",
    "core.init_s": "s",
    "core.propagate_s": "s",
    "core.post_s": "s",
    "core.facts": "count",
    "core.worklist_pops": "count",
    "core.worklist_pushes": "count",
    "core.stale_skips": "count",
    "core.upgrades": "count",
    "core.join_calls": "count",
    "core.join_fanout": "count",
    "core.registry_records": "count",
    "core.budget_exceeded": "count",
    "core.demoted_facts": "count",
    "names.interned_names": "count",
    "names.interned_pairs": "count",
    "solution.postpass_s": "s",
    "solution.program_aliases": "count",
    "baselines.weihl_s": "s",
    "baselines.weihl_aliases": "count",
    "lint.detectors_s": "s",
    "lint.uninit_s": "s",
    "lint.null_deref_s": "s",
    "lint.dangling_s": "s",
    "lint.dead_store_s": "s",
    "lint.conflict_s": "s",
    "lint.findings": "count",
    "must.solve_s": "s",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.puts": "count",
    "cache.bytes": "bytes",
    "summaries.solve_s": "s",
    "summaries.invalidated_procs": "count",
    "summaries.replayed_procs": "count",
    "serve.edit_scoped_ratio": "ratio",
    "serve.session_edit_ms": "ms",
    "serve.session_query_ms": "ms",
    "serve.session_lint_ms": "ms",
    "serve.transport_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Spans whose self time is a per-layer ``<span>_s`` metric.
SPAN_METRICS = (
    "frontend.parse", "frontend.lower", "corpus.stubs", "icfg.build",
    "solution.postpass", "baselines.weihl", "lint.detectors", "lint.uninit",
    "lint.null_deref", "lint.dangling", "lint.dead_store", "lint.conflict",
    "must.solve", "cache.get", "cache.put", "summaries.solve",
)

#: EngineReport field -> per-layer metric.
ENGINE_COUNTERS = {
    "facts": "core.facts",
    "worklist_pops": "core.worklist_pops",
    "worklist_pushes": "core.worklist_pushes",
    "stale_skips": "core.stale_skips",
    "upgrades": "core.upgrades",
    "join_calls": "core.join_calls",
    "join_fanout": "core.join_fanout",
    "registry_records": "core.registry_records",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "decided_ratio": "ratio",
    "percent_yes": "%",
}
UNITS = {**END_TO_END_UNITS, **PER_LAYER_UNITS}


class Outcome:
    """What one run measured and which operations failed."""

    def __init__(self, workload: str, seed: int, k: str, budget: int) -> None:
        self.meta = run_metadata(workload, seed, k, budget)
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.extra: dict[str, tuple[object, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = (value, UNITS[name], samples)

    def note(self, name: str, value, unit: str, samples: int) -> None:
        """A reported figure that is not a gated metric."""
        self.extra[name] = (value, unit, samples)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


# -- set-up -------------------------------------------------------------------


def setup_only(args) -> int:
    """The body of one set-up sample: import the pipeline, build inputs."""
    from perfbench import batch

    batch.import_pipeline()
    batch.make_inputs(args.workload, args.size)
    return 0


def batch_setup_samples(args) -> list[float]:
    """Process start to inputs ready, in fresh processes."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - started)
    return samples


# -- counted work ---------------------------------------------------------------


def compare_counts(outcome: Outcome, reference: dict, current: dict, what: str) -> set:
    """Programs whose counted work differs; each is a failure."""
    differing = set()
    for name, counts in current.items():
        if name in reference and reference[name] != counts:
            differing.add(name)
            outcome.fail(f"{name}: counted work differs from {what}: "
                         f"{reference[name]} != {counts}")
    return differing


def check_ledger(outcome: Outcome, key: str, counts: dict) -> None:
    """Counted work must repeat exactly across runs of the same code:
    the first run records it, later runs compare."""
    ledger = WORK / "ledger" / f"{key}-{source_digest()}.json"
    if ledger.is_file():
        recorded = json.loads(ledger.read_text(encoding="utf-8"))
        compare_counts(outcome, recorded, counts, "an earlier run")
        return
    ledger.parent.mkdir(parents=True, exist_ok=True)
    tmp = ledger.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    os.replace(tmp, ledger)


# -- batch workloads ------------------------------------------------------------


def pass_worker(args) -> int:
    """The body of one pass: a fresh process, as one CLI run is, so the
    process-global name tables start empty in every pass."""
    from perfbench import batch

    batch.import_pipeline()
    inputs = batch.make_inputs(args.workload, args.size)
    tracer = Tracer() if args.trace else NullTracer()
    records, failures = batch.run_pass(
        inputs, batch.WORKLOADS[args.workload][1], tracer, args.seed,
        check=args.check, time_detectors=bool(args.trace),
    )
    result = {"records": records, "failures": failures, "rss_mb": peak_rss_mb_self()}
    if args.trace:
        write_trace(tracer, args)
        result["self_seconds"] = tracer.self_seconds()
    print(json.dumps(result))
    return 0


def run_batch(args) -> Outcome:
    from perfbench import batch

    budget = batch.WORKLOADS[args.workload][1]
    setup = batch_setup_samples(args) if not args.trace else []
    inputs = batch.make_inputs(args.workload, args.size)
    if args.workload == "struct-corpus":
        for name, reason in batch.CORPUS_LEFT_OUT.items():
            print(f"left out corpus/{name}: {reason}", file=sys.stderr)
    ks = "/".join(str(k) for k in sorted({item.k for item in inputs}))
    outcome = Outcome(args.workload, args.seed, ks, budget)
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--pass-worker",
    ]

    def one_pass(check: bool, trace: bool = False) -> dict:
        """One pass in its own process; ``wall`` is its timed part."""
        flags = ["--trace", "1" if trace else "0"] + (["--check"] if check else [])
        try:
            done = subprocess.run(
                command + flags, stdout=subprocess.PIPE, text=True, timeout=120
            )
            status = done.returncode
        except subprocess.TimeoutExpired:
            status = "a timeout"
        if status != 0:
            outcome.attempted += len(inputs)
            outcome.failed += len(inputs)
            outcome.failures.append(f"pass process ended with {status}")
            return {"records": [], "wall": 0.0, "rss_mb": 0.0, "self_seconds": {}}
        result = json.loads(done.stdout.strip().splitlines()[-1])
        records = result["records"]
        outcome.attempted += len(records)
        outcome.failed += sum(1 for record in records if record["failed"])
        outcome.failures.extend(result["failures"])
        result["wall"] = sum(r["seconds"] for r in batch.completed(records))
        return result

    first = one_pass(check=True)
    reference = batch.counted_work(first["records"])
    check_ledger(outcome, f"{args.workload}-{args.size}", reference)
    ok_first = batch.completed(first["records"])
    if args.trace:
        traced = one_pass(check=False, trace=True)
        traced_counts = batch.counted_work(traced["records"])
        compare_counts(outcome, reference, traced_counts, "the untraced pass")
        overhead = traced["wall"] / first["wall"] if first["wall"] else 0.0
        batch_layers(
            outcome, ok_first, traced["records"], traced["self_seconds"], overhead
        )
        return outcome
    passes = [first]
    # Another pass while the measured time plus one mean pass fits.
    while passes[-1]["wall"] and (
        sum(p["wall"] for p in passes) * (1 + 1 / len(passes)) <= args.seconds
    ):
        passes.append(one_pass(check=False))
        counts = batch.counted_work(passes[-1]["records"])
        compare_counts(outcome, reference, counts, "the first pass")
    seconds: dict[str, list[float]] = {}
    for result in passes:
        for record in batch.completed(result["records"]):
            seconds.setdefault(record["name"], []).append(record["seconds"])
    outcome.put("setup_s", median(setup), len(setup))
    # Each program's median over the passes, summed: one pass over the
    # input set, robust to a burst of load during any single pass.
    outcome.put("wall_s", sum(median(v) for v in seconds.values()), len(passes))
    outcome.put("peak_rss_mb", median([p["rss_mb"] for p in passes]), len(passes))
    decided = [r for r in ok_first if r["decided"]]
    outcome.put("decided_ratio", len(decided) / max(1, len(ok_first)), len(ok_first))
    yes = [r["percent_yes"] if r["decided"] else 0.0 for r in ok_first]
    outcome.put("percent_yes", sum(yes) / max(1, len(yes)), len(yes))
    return outcome


def batch_layers(
    outcome: Outcome,
    first: list[dict],
    traced: list[dict],
    self_seconds: dict,
    overhead: float,
) -> None:
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    for span, seconds in self_seconds.items():
        if span in SPAN_METRICS:
            values[f"{span}_s"] = seconds
    for record in traced:
        for phase in ("init", "propagate", "post"):
            values[f"core.{phase}_s"] += record.get("phases", {}).get(phase, 0.0)
    for record in first:
        for field, metric in ENGINE_COUNTERS.items():
            values[metric] += record["engine"][field]
        values["icfg.nodes"] += record["icfg_nodes"]
        values["core.budget_exceeded"] += 0 if record["decided"] else 1
        values["core.demoted_facts"] += record["demoted_facts"]
        values["names.interned_names"] += record["interned_names"]
        values["names.interned_pairs"] += record["interned_pairs"]
        values["solution.program_aliases"] += record["program_aliases"]
        values["baselines.weihl_aliases"] += record["weihl_aliases"]
        values["lint.findings"] += record["findings"] or 0
    values["trace.overhead_ratio"] = overhead
    for name, value in values.items():
        outcome.put(name, value, len(first))


# -- serve-edit -----------------------------------------------------------------


def run_serve(args) -> Outcome:
    from perfbench import serve_edit as se
    from repro.serve.loadgen import LoadClient

    outcome = Outcome("serve-edit", args.seed, str(se.SERVE_K), se.SERVE_BUDGET)
    setup, daemon = se.boot_samples(WORK, args.size, 1 if args.trace else SETUP_SAMPLES)
    try:
        client = LoadClient(daemon.host, daemon.port, timeout=se.BACKSTOP_SECONDS)
        try:
            session, blocks, cold_open_s = se.run_http(
                client, args.size, args.seed, args.seconds
            )
            se.final_check(session)
            rss = peak_rss_mb_of(daemon.process.pid)
        finally:
            client.close()
    finally:
        daemon.stop()
    outcome.attempted = session.attempted
    for message in session.failures:
        outcome.fail(message)
    counts = se.counted_work(session.log)
    check_ledger(outcome, f"serve-edit-{args.size}-seed{args.seed}", counts)
    warm = [e for e in session.log if e["op"] != "cold"]
    if args.trace:
        serve_layers(outcome, session.log, warm, args)
        return outcome

    outcome.put("setup_s", median(setup), len(setup))
    outcome.put("wall_s", se.block_seconds(warm), blocks)
    outcome.put("peak_rss_mb", rss)
    decided = session.decided
    outcome.put("decided_ratio", sum(decided) / max(1, len(decided)), len(decided))
    yes = list(session.final_yes.values())
    outcome.put("percent_yes", sum(yes) / max(1, len(yes)), len(yes))
    outcome.note("cold_open_s", cold_open_s, "s", len(session.programs))
    tails = (("edit", (0.5, 0.9)), ("query", (0.5, 0.99)), ("lint", (0.5,)))
    for op, quantiles in tails:
        samples = se.warm_ms(warm, op)
        for q in quantiles:
            value = tail_percentile(samples, q)
            outcome.note(f"{op}_p{round(q * 100)}_ms", value, "ms", len(samples))
    return outcome


def serve_layers(outcome: Outcome, log: list[dict], warm: list[dict], args) -> None:
    from perfbench import serve_edit as se

    plain = se.replay(log, WORK, "plain", NullTracer())
    tracer = Tracer()
    with se.cache_spans(tracer):
        traced = se.replay(log, WORK, "traced", tracer)
    write_trace(tracer, args)
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    for span, seconds in tracer.self_seconds().items():
        if span in SPAN_METRICS:
            values[f"{span}_s"] = seconds
    for solution, nodes in plain["solves"]:
        for field, metric in ENGINE_COUNTERS.items():
            values[metric] += getattr(solution.engine, field)
        for phase in ("init", "propagate", "post"):
            values[f"core.{phase}_s"] += solution.phases.get(phase)
        values["icfg.nodes"] += nodes
        values["core.budget_exceeded"] += 0 if solution.complete else 1
        values["core.demoted_facts"] += solution.budget.demoted_facts
    values["names.interned_names"] = plain["interned_names"]
    values["names.interned_pairs"] = plain["interned_pairs"]
    cache = plain["cache"]
    values["cache.hits"] = cache["hits"]
    values["cache.misses"] = cache["misses"]
    values["cache.puts"] = cache["puts"]
    values["cache.bytes"] = plain["cache_bytes"]
    values["summaries.invalidated_procs"] = plain["invalidated_procs"]
    values["summaries.replayed_procs"] = plain["replayed_procs"]
    values["serve.edit_scoped_ratio"] = plain["edit_scoped_ratio"]
    for op in ("edit", "query", "lint"):
        samples = plain["times"][op]
        values[f"serve.session_{op}_ms"] = 1000.0 * median(samples) if samples else 0.0
    http_s = sum(e["wall"] for e in warm)
    session_s = sum(sum(plain["times"][op]) for op in ("edit", "query", "lint"))
    values["serve.transport_ms"] = 1000.0 * (http_s - session_s) / max(1, len(warm))
    values["trace.overhead_ratio"] = traced["wall"] / plain["wall"]
    for name, value in values.items():
        outcome.put(name, value, len(warm))


# -- output ---------------------------------------------------------------------

def write_trace(tracer: Tracer, args) -> None:
    """Chrome trace-event JSON plus per-span self time."""
    path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    document = tracer.chrome_trace()
    document["selfSeconds"] = tracer.self_seconds()
    path.write_text(json.dumps(document), encoding="utf-8")
    print(f"trace written to {path.relative_to(WORK.parent.parent)}", file=sys.stderr)


def check_against_spec(outcome: Outcome, trace: bool) -> None:
    """The printed metric names and units are BENCHMARK.json's."""
    spec = benchmark_spec()["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    printed = {name: unit for name, (_v, unit, _n) in outcome.metrics.items()}
    if printed != expected:
        outcome.fail(f"printed metrics {sorted(printed.items())} do not match "
                     f"BENCHMARK.json {sorted(expected.items())}")


def emit(outcome: Outcome) -> None:
    rows = [(name, *figure, "gated") for name, figure in outcome.metrics.items()]
    rows += [(name, *figure, "reported") for name, figure in outcome.extra.items()]
    ratio = outcome.failed / max(1, outcome.attempted)
    rows.append(("failed_ratio", ratio, "ratio", outcome.attempted, "reported"))
    for name, value, unit, samples, kind in rows:
        row = {"metric": name, "value": value, "unit": unit, "samples": samples}
        print(json.dumps({**row, "kind": kind, **outcome.meta}))
    for message in outcome.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _n) in outcome.metrics.items()
        },
    }))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1992)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: a few small inputs, for the benchmark's own smoke tests",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass-worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--check", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A terminated run still unwinds, so the daemon it started is stopped.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not program_present():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)
    tempfile.tempdir = str(WORK)
    if args.setup_only:
        return setup_only(args)
    if args.pass_worker:
        return pass_worker(args)
    if args.workload == "serve-edit":
        outcome = run_serve(args)
    else:
        outcome = run_batch(args)
    check_against_spec(outcome, bool(args.trace))
    emit(outcome)
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

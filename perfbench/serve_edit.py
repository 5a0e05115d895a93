"""The ``serve-edit`` workload: an editor session against ``repro serve``.

One client on one keep-alive connection drives the daemon's HTTP
surface in a closed loop (an editor waits for each reply).  The
generated programs are cold-opened, then blocks of probe edits, point
queries and lint requests are replayed.  Each block holds every
program's ``OP_WEIGHTS`` share of operations in a seeded order, so a
block's cost does not hinge on which program the seed happens to edit.

The programs are the loadgen's curated corpus (``make_corpus`` at its
default seed 1992): other generator seeds leave ``TAME_OFFSETS`` and
give seed-chaotic blow-ups whose cost swamps the daemon's (NOTES.md).
The benchmark seed drives the operation order and the query targets.

A traced run replays the exact operation log in-process against
``ServeSession`` twice, untraced and traced, to split HTTP time into
session time and transport/queue time and to time the cache and the
summary engine.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import time
import traceback
from statistics import median
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

from .common import BACKSTOP_SECONDS, SRC

SERVE_BUDGET = 200_000
SERVE_K = 3
CORPUS_SEED = 1992


def make_programs(size: str) -> list[dict]:
    from repro.serve.loadgen import make_corpus

    if size == "full":
        return make_corpus(CORPUS_SEED, 3)
    return make_corpus(CORPUS_SEED, 1, n_functions=3)


def block_ops(rng: random.Random, n_programs: int) -> list[tuple[str, int]]:
    """One block: each program's ``OP_WEIGHTS`` share, seeded order."""
    from repro.serve.loadgen import OP_WEIGHTS

    ops = [
        (op, index)
        for index in range(n_programs)
        for op, weight in OP_WEIGHTS
        for _ in range(weight)
    ]
    rng.shuffle(ops)
    # An editor lints what changed: each lint follows an edit of its
    # program, so it re-runs the detectors and a block's cost does not
    # depend on where the shuffle put it.
    for index in range(n_programs):
        lint = ops.index(("lint", index))
        edit = ops.index(("edit", index))
        if lint < edit:
            ops[lint], ops[edit] = ops[edit], ops[lint]
    return ops


class Daemon:
    """``repro serve --port 0 --jobs 1`` as a child process."""

    def __init__(self, work: Path, tag: str) -> None:
        self.work = work
        self.tag = tag
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> None:
        cache_dir = self.work / f"cache-{self.tag}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        log_path = self.work / f"daemon-{self.tag}.log"
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--jobs", "1", "--k", str(SERVE_K),
            "--max-facts", str(SERVE_BUDGET),
            "--deadline-seconds", str(BACKSTOP_SECONDS),
            "--cache-dir", str(cache_dir),
        ]
        env = _child_env()
        with open(log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=log, env=env
            )
        deadline = time.monotonic() + BACKSTOP_SECONDS
        while time.monotonic() < deadline and self.process.poll() is None:
            text = log_path.read_text(encoding="utf-8")
            marker = "listening on http://"
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                self.host, self.port = host, int(port.rstrip("/"))
                if self._healthy():
                    return
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"daemon did not come up; log: {log_path}")

    def _healthy(self) -> bool:
        import http.client

        try:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                return conn.getresponse().status == 200
            finally:
                conn.close()
        except OSError:
            return False

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process = None


def _child_env() -> dict:
    """The daemon imports ``repro`` from this checkout's sources."""
    import os

    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{existing}" if existing else str(SRC)
    return env


def boot_samples(work: Path, size: str, samples: int) -> tuple[list[float], Daemon]:
    """Set-up, ``samples`` times: generate the inputs and boot the
    daemon until ``/healthz`` answers.  The last daemon stays up."""
    times = []
    daemon = None
    for index in range(samples):
        if daemon is not None:
            daemon.stop()
        started = time.perf_counter()
        make_programs(size)
        daemon = Daemon(work, f"boot{index}")
        daemon.start()
        times.append(time.perf_counter() - started)
    return times, daemon


class Session:
    """The HTTP side: ops, their latencies and the failure ledger."""

    def __init__(self, client, programs: list[dict]) -> None:
        self.client = client
        self.programs = programs
        self.log: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.decided: list[bool] = []  # one per analyze response
        self.final_yes: dict[str, float] = {}

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def do(self, entry: dict) -> None:
        """Send one op, time it, check the response, log it."""
        op, path = entry["op"], entry["path"]
        self.attempted += 1
        if op in ("cold", "edit"):
            payload = {"files": [{"path": path, "text": entry["text"]}]}
            status, body, wall = self.client.request("POST", "/v1/analyze", payload)
            files = body.get("files") or [{}]
            if status != 200 or files[0].get("status") != "ok":
                self.fail(f"{op} {path}: status {status} {files[0].get('status')}")
            else:
                stats = files[0]["stats"]
                decided = not stats["budget"]["exceeded"]
                self.decided.append(decided)
                yes = stats["solution"]["percent_yes"]
                self.final_yes[path] = yes if decided else 0.0
                if op == "cold":
                    engine = stats["engine"]
                    entry["counted"] = {
                        "decided": decided,
                        "facts": engine["facts"],
                        "pops": engine["worklist_pops"],
                        "pushes": engine["worklist_pushes"],
                        "join_fanout": engine["join_fanout"],
                    }
        elif op == "query":
            query = {k: entry[k] for k in ("path", "line", "a", "b")}
            status, body, wall = self.client.request(
                "POST", "/v1/query", {"queries": [query]}
            )
            if status != 200 or len(body.get("answers") or []) != 1:
                self.fail(f"query {path}: status {status}")
        else:
            status, body, wall = self.client.request("POST", "/v1/lint", {"path": path})
            if status != 200 or not isinstance(body.get("findings"), list):
                self.fail(f"lint {path}: status {status}")
        entry["wall"] = wall
        self.log.append(entry)

    def cold_open(self) -> None:
        for program in self.programs:
            self.do({"op": "cold", "path": program["path"], "text": program["text"]})

    def run_block(self, rng: random.Random) -> float:
        from repro.serve.loadgen import probe_text

        started = time.perf_counter()
        for op, index in block_ops(rng, len(self.programs)):
            program = self.programs[index]
            entry = {"op": op, "path": program["path"]}
            if op == "edit":
                program["edits"] += 1
                program["text"] = program["base"] + probe_text(program["edits"])
                program["lines"] = program["text"].count("\n")
                entry["text"] = program["text"]
            elif op == "query":
                entry["line"] = rng.randint(1, program["lines"])
                entry["a"] = rng.choice(program["names"])
                entry["b"] = rng.choice(program["names"])
            self.do(entry)
        return time.perf_counter() - started


def line_pairs(icfg, solution) -> dict[int, list[str]]:
    """Pairs holding at the nodes on each source line (the daemon's
    ``/v1/query`` without ``a``/``b``)."""
    by_line: dict[int, set] = {}
    for node in icfg.nodes:
        span = node.span
        if span.start.offset == 0 and span.end.offset == 0:
            continue
        pairs = {str(pair) for pair in solution.may_alias(node)}
        for line in range(span.start.line, span.end.line + 1):
            by_line.setdefault(line, set()).update(pairs)
    return {line: sorted(pairs) for line, pairs in by_line.items()}


def final_check(session: Session) -> None:
    """Every resident document's answers equal a fresh batch kernel
    solve of its final text."""
    from repro import analyze_program, parse_and_analyze
    from repro.icfg.builder import IcfgBuilder

    for program in session.programs:
        path, text = program["path"], program["text"]
        session.attempted += 1
        try:
            lines = list(range(1, text.count("\n") + 1))
            queries = [{"path": path, "line": line} for line in lines]
            status, body, _wall = session.client.request(
                "POST", "/v1/query", {"queries": queries}
            )
            answers = body.get("answers") or []
            if status != 200 or len(answers) != len(lines):
                session.fail(f"final {path}: status {status}")
                continue
            analyzed = parse_and_analyze(text, path)
            icfg = IcfgBuilder(analyzed).build()
            fresh = analyze_program(
                analyzed, icfg, k=SERVE_K, max_facts=SERVE_BUDGET,
                deadline_seconds=BACKSTOP_SECONDS, on_budget="partial",
            )
            if any(a["complete"] != fresh.complete for a in answers):
                session.fail(f"final {path}: daemon and batch disagree on completeness")
                continue
            if not fresh.complete:
                continue  # partial stores stop at engine-specific points
            expected = line_pairs(icfg, fresh)
            for line, answer in zip(lines, answers):
                if answer.get("pairs", []) != expected.get(line, []):
                    session.fail(f"final {path}: line {line} answers differ from batch")
                    break
        except Exception:  # a crashed check is a failed check
            traceback.print_exc(file=sys.stderr)
            session.fail(f"final {path}: check raised")


def run_http(
    client, size: str, seed: int, seconds: float
) -> tuple[Session, int, float]:
    """Cold open, then warm blocks for ``seconds``.  Returns the
    session, the number of blocks and the cold-open total."""
    session = Session(client, make_programs(size))
    session.cold_open()
    cold_open_s = sum(e["wall"] for e in session.log)
    rng = random.Random(seed)
    blocks: list[float] = []
    started = time.perf_counter()
    while not blocks or (
        time.perf_counter() - started + sum(blocks) / len(blocks) <= seconds
    ):
        blocks.append(session.run_block(rng))
    return session, len(blocks), cold_open_s


def block_seconds(warm: list[dict]) -> float:
    """The time of one op block: each (program, op) latency taken as
    its median over the run, times its share of a block.  Robust to a
    burst of load during any one block."""
    from repro.serve.loadgen import OP_WEIGHTS

    weights = dict(OP_WEIGHTS)
    walls: dict[tuple[str, str], list[float]] = {}
    for entry in warm:
        walls.setdefault((entry["path"], entry["op"]), []).append(entry["wall"])
    return sum(weights[op] * median(v) for (_path, op), v in walls.items())


def replay(log: list[dict], work: Path, tag: str, tracer) -> dict:
    """Replay the HTTP op log in-process against ``ServeSession``."""
    from repro.names.alias_pairs import interned_pair_count
    from repro.names.object_names import interned_name_count
    from repro.serve.session import ServeSession

    cache_dir = work / f"replay-{tag}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    session = ServeSession(
        k=SERVE_K, jobs=1, cache_dir=str(cache_dir),
        max_facts=SERVE_BUDGET, deadline_seconds=BACKSTOP_SECONDS,
    )
    times: dict[str, list[float]] = {"cold": [], "edit": [], "query": [], "lint": []}
    solves = []
    names_before, pairs_before = interned_name_count(), interned_pair_count()
    started = time.perf_counter()
    for entry in log:
        op, path = entry["op"], entry["path"]
        t0 = time.perf_counter()
        with tracer.span(f"serve.{op}"):
            if op in ("cold", "edit"):
                session.upsert(path, entry["text"])
            previous = session.documents[path].solution
            with tracer.span("summaries.solve"):
                doc = session.ensure_solved(path)
            if op in ("cold", "edit"):
                with tracer.span("solution.postpass"):
                    session.analyze_result(path)
            elif op == "query":
                session.query(path, entry["line"], entry["a"], entry["b"])
            else:
                with tracer.span("lint.detectors"):
                    session.lint(path)
        times[op].append(time.perf_counter() - t0)
        if doc.solution is not previous:
            solves.append((doc.solution, len(doc.input.icfg.nodes)))
    wall = time.perf_counter() - started
    metrics = session.metrics
    return {
        "wall": wall,
        "times": times,
        "solves": solves,
        "cache": session.cache.counters.as_dict(),
        "cache_bytes": session.cache.total_bytes(),
        "invalidated_procs": metrics.invalidated_procs_total,
        "replayed_procs": metrics.replayed_procs_total,
        "edit_scoped_ratio": (
            metrics.scoped_post_edit_solves / metrics.post_edit_solves
            if metrics.post_edit_solves
            else 0.0
        ),
        "interned_names": interned_name_count() - names_before,
        "interned_pairs": interned_pair_count() - pairs_before,
    }


@contextmanager
def cache_spans(tracer) -> Iterator[None]:
    """Wrap ``SolutionCache.get``/``put`` in spans while in the block."""
    from repro.cache.store import SolutionCache

    original_get, original_put = SolutionCache.get, SolutionCache.put

    def get(self, *args, **kwargs):
        with tracer.span("cache.get"):
            return original_get(self, *args, **kwargs)

    def put(self, *args, **kwargs):
        with tracer.span("cache.put"):
            return original_put(self, *args, **kwargs)

    SolutionCache.get, SolutionCache.put = get, put
    try:
        yield
    finally:
        SolutionCache.get, SolutionCache.put = original_get, original_put


def warm_ms(entries: list[dict], op: str) -> list[float]:
    return [1000.0 * e["wall"] for e in entries if e["op"] == op]


def counted_work(log: list[dict]) -> dict[str, dict]:
    """The cold solves' counters: the same for every run of one code."""
    return {e["path"]: e["counted"] for e in log if "counted" in e}

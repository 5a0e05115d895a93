"""The batch workloads: ``paper-suite`` and ``struct-corpus``.

Each program goes through the pipeline a user gets from
``repro analyze --weihl`` plus ``repro lint`` (``paper-suite``) or from
``repro corpus run`` plus ``lint --must`` (``struct-corpus``): parse or
lower, ICFG, kernel solve under a fact budget, post-pass, Weihl
closure, must-alias and lint.  The spans placed here around the calls
into each layer are the traced run's per-layer rows; untraced runs pass
a :class:`~perfbench.common.NullTracer`.

Correctness checks run on the first pass only, outside the timed part
of each program: the dynamic oracle (every observed pair is in the may
set) on every decided program, and must ⊆ may wherever must-alias runs.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass
from typing import Optional

from .common import BACKSTOP_SECONDS, ROOT

#: Fact budgets.  They are fact counts so that the decided set is a
#: property of the code, never of the machine.  They are sized so that
#: one pass takes a few seconds and a run measures several passes.
PAPER_BUDGET = 20_000
STRUCT_BUDGET = 10_000

#: Table 2 programs are generated at this share of their paper size.
PAPER_SCALE = 0.05

#: Dynamic-oracle executions per decided program (seeded by --seed).
ORACLE_DRAWS = 4
ORACLE_FUEL = 20_000

#: Counted work that must repeat exactly between runs of the same code.
COUNTED_KEYS = ("decided", "facts", "pops", "pushes", "join_fanout", "findings")


#: Corpus files the workload leaves out, because a correctness check
#: fails on them on the current code (program defects, NOTES.md).  Put
#: each back once its defect is fixed.
CORPUS_LEFT_OUT = {
    "intern.c": "the k=1 solution misses aliases the dynamic oracle observes",
    "strbuf.c": "the interpreter raises TypeError on the '\\0' literal",
}


@dataclass(frozen=True)
class BatchInput:
    """One program of a batch workload and how it is processed."""

    name: str
    source: str
    k: int
    lowered_c: bool = False
    compare_with: Optional[str] = None
    #: The corpus policy: lint every input, also undecided ones (as
    #: ``corpus_file_unit`` does), and run must-alias on decided ones
    #: (as ``lint --must`` does).  Otherwise only decided ones are linted.
    corpus_policy: bool = False


def paper_inputs(size: str) -> list[BatchInput]:
    """The 18 Table 2 programs, one scaling-family member and the
    seeded Figure 4 ``all-or-none``, all at k=3."""
    from repro.programs import (
        TABLE2_PAPER,
        ProgramSpec,
        all_or_none,
        generate_program,
        suite_member,
    )

    names = list(TABLE2_PAPER) if size == "full" else ["allroots", "lex315"]
    inputs = [
        BatchInput(f"table2/{name}", suite_member(name, PAPER_SCALE).source, 3)
        for name in names
    ]
    scaling = 200 if size == "full" else 60
    inputs.append(
        BatchInput(
            f"scale{scaling}",
            generate_program(ProgramSpec.for_target_nodes("scaling", scaling)),
            3,
        )
    )
    n = 16 if size == "full" else 4
    inputs.append(BatchInput(f"all_or_none{n}", all_or_none(n, seed_alias=True), 3))
    return inputs


def struct_inputs(size: str) -> list[BatchInput]:
    """``corpus/*.c`` at k=1, less :data:`CORPUS_LEFT_OUT`, plus the
    struct-heavy fixtures; every input is linted (also when undecided,
    as the corpus runner does) and must-alias runs on every decided
    one."""
    from repro.programs.fixtures import EXPR_TREE, LINKED_LIST, STRING_TABLE

    paths = [
        path
        for path in sorted((ROOT / "corpus").glob("*.c"))
        if path.name not in CORPUS_LEFT_OUT
    ]
    if size != "full":
        paths = [p for p in paths if p.name == "figure1.c"]
    inputs = [
        BatchInput(
            f"corpus/{path.name}",
            path.read_text(encoding="utf-8"),
            1,
            lowered_c=True,
            corpus_policy=True,
        )
        for path in paths
    ]
    # The Weihl comparison runs on linked_list: on expr_tree it alone
    # takes 11-16 s, too long to measure several times in one run.
    fixtures = [
        ("string_table", STRING_TABLE, 2, None),
        ("linked_list", LINKED_LIST, 3, "weihl"),
        ("expr_tree", EXPR_TREE, 3, None),
    ]
    if size != "full":
        fixtures = [("linked_list", LINKED_LIST, 1, None)]
    inputs.extend(
        BatchInput(name, source, k, compare_with=compare, corpus_policy=True)
        for name, source, k, compare in fixtures
    )
    return inputs


WORKLOADS = {
    "paper-suite": (paper_inputs, PAPER_BUDGET),
    "struct-corpus": (struct_inputs, STRUCT_BUDGET),
}


def import_pipeline() -> None:
    """Import every module a pipeline pass uses (part of set-up, so the
    first pass does not pay for lazy imports)."""
    import repro.baselines.weihl  # noqa: F401
    import repro.corpus.stubs  # noqa: F401
    import repro.frontend.pycparser_bridge  # noqa: F401
    import repro.lint  # noqa: F401
    import repro.must  # noqa: F401
    import repro.oracle.dynamic  # noqa: F401


def make_inputs(workload: str, size: str) -> list[BatchInput]:
    """The workload's input set.  It is fixed: the programs are the
    paper's and the corpus's own, and they run in a fixed order because
    the name tables are process-global, so order changes later programs'
    cost.  The seed drives the dynamic oracle's inputs."""
    return WORKLOADS[workload][0](size)


def _detectors():
    from repro.lint import detectors

    return (
        ("uninit", detectors.find_uninit_uses),
        ("null_deref", detectors.find_null_derefs),
        ("dangling", detectors.find_dangling_escapes),
        ("dead_store", detectors.find_dead_stores),
        ("conflict", detectors.find_statement_conflicts),
    )


def run_program(
    item: BatchInput, budget: int, tracer, time_detectors: bool = False
) -> tuple[dict, dict]:
    """One program's pipeline.  Returns (record, artifacts): the record
    holds counted work and per-layer numbers, the artifacts what the
    correctness checks need."""
    from repro import PhaseTimer, analyze_program, parse_and_analyze
    from repro.baselines.weihl import weihl_aliases
    from repro.icfg.builder import IcfgBuilder
    from repro.lint import LintInput, run_lint
    from repro.must import IntervalSolution, solve_must
    from repro.names.alias_pairs import interned_pair_count
    from repro.names.object_names import interned_name_count

    names_before, pairs_before = interned_name_count(), interned_pair_count()
    started = time.perf_counter()
    if item.lowered_c:
        from repro.corpus.stubs import synthesize_stubs
        from repro.frontend.pycparser_bridge import parse_c_lenient
        from repro.frontend.semantics import analyze

        with tracer.span("frontend.lower"):
            unit = parse_c_lenient(item.source, item.name)
        with tracer.span("corpus.stubs"):
            synthesize_stubs(unit.program)
        with tracer.span("frontend.parse"):
            analyzed = analyze(unit.program)
    else:
        with tracer.span("frontend.parse"):
            analyzed = parse_and_analyze(item.source, item.name)
    with tracer.span("icfg.build"):
        builder = IcfgBuilder(analyzed)
        icfg = builder.build()
    timer = PhaseTimer()
    with tracer.span("core.solve"):
        solution = analyze_program(
            analyzed,
            icfg,
            k=item.k,
            max_facts=budget,
            deadline_seconds=BACKSTOP_SECONDS,
            on_budget="partial",
            timer=timer,
        )
    with tracer.span("solution.postpass"):
        stats = solution.stats()
        aliases = solution.program_aliases()
    with tracer.span("baselines.weihl"):
        weihl = weihl_aliases(analyzed, icfg, k=item.k)
    must = None
    lint_solution = solution
    if item.corpus_policy and solution.complete:
        with tracer.span("must.solve"):
            must = solve_must(analyzed, icfg, k=item.k)
        lint_solution = IntervalSolution(solution, must)
    report = None
    if solution.complete or item.corpus_policy:
        with tracer.span("lint.detectors"):
            report = run_lint(
                LintInput(analyzed, builder, icfg),
                k=item.k,
                max_facts=budget,
                filename=item.name,
                solution=lint_solution,
                compare_with=item.compare_with,
            )
        if time_detectors:
            for name, detector in _detectors():
                with tracer.span(f"lint.{name}"):
                    list(detector(lint_solution))
    seconds = time.perf_counter() - started

    engine = solution.engine
    record = {
        "name": item.name,
        "k": item.k,
        "decided": solution.complete,
        "facts": engine.facts,
        "pops": engine.worklist_pops,
        "pushes": engine.worklist_pushes,
        "join_fanout": engine.join_fanout,
        "findings": len(report.findings) if report is not None else None,
        "seconds": seconds,
        "percent_yes": stats.percent_yes,
        "icfg_nodes": len(icfg.nodes),
        "engine": engine.as_dict(),
        "demoted_facts": solution.budget.demoted_facts,
        "interned_names": interned_name_count() - names_before,
        "interned_pairs": interned_pair_count() - pairs_before,
        "program_aliases": len(aliases),
        "weihl_aliases": weihl.alias_count,
        "phases": timer.as_dict(),
        "lint_seconds": report.lint_seconds if report is not None else 0.0,
    }
    artifacts = {
        "analyzed": analyzed,
        "builder": builder,
        "icfg": icfg,
        "solution": solution,
        "must": must,
    }
    return record, artifacts


def soundness_problems(artifacts: dict, k: int, seed: int) -> list[str]:
    """Dynamic-oracle soundness of a decided solution."""
    from repro.oracle.dynamic import check_dynamic_oracle, collect_dynamic_oracle

    oracle = collect_dynamic_oracle(
        artifacts["analyzed"],
        artifacts["builder"],
        artifacts["icfg"],
        draws=ORACLE_DRAWS,
        seed=seed,
        fuel=ORACLE_FUEL,
        max_derefs=k + 1,
    )
    report = check_dynamic_oracle(oracle, artifacts["solution"], max_violations=5)
    return [f"observed pair missing from may set: {v}" for v in report.violations]


def must_subset_problems(artifacts: dict) -> list[str]:
    """Every must pair is answered yes by the may solution."""
    must, solution = artifacts["must"], artifacts["solution"]
    problems = []
    for node in artifacts["icfg"].nodes:
        for pair in must.must_pairs(node):
            if not solution.alias_query(node, pair.first, pair.second):
                problems.append(f"must pair {pair} at n{node.nid} not in may set")
    return problems[:5]


def run_pass(
    inputs: list[BatchInput],
    budget: int,
    tracer,
    seed: int,
    check: bool,
    time_detectors: bool = False,
) -> tuple[list[dict], list[str]]:
    """Push the whole input set through the pipeline once.  Returns the
    per-program records (``seconds`` is the timed part) and failures.
    A failed program's record carries ``failed=True``."""
    records, failures = [], []
    for item in inputs:
        try:
            record, artifacts = run_program(item, budget, tracer, time_detectors)
        except Exception:  # one program's crash must not end the run
            traceback.print_exc(file=sys.stderr)
            records.append({"name": item.name, "failed": True})
            failures.append(f"{item.name}: pipeline raised")
            continue
        checks = []
        if check and record["decided"]:
            checks.append(lambda: soundness_problems(artifacts, item.k, seed))
        if check and artifacts["must"] is not None:
            checks.append(lambda: must_subset_problems(artifacts))
        problems = []
        for run_check in checks:
            try:
                problems += run_check()
            except Exception as error:  # a check that cannot run has failed
                traceback.print_exc(file=sys.stderr)
                problems.append(f"correctness check raised {error!r}")
        del artifacts
        record["failed"] = bool(problems)
        failures.extend(f"{item.name}: {p}" for p in problems)
        records.append(record)
    return records, failures


def completed(records: list[dict]) -> list[dict]:
    """Records of programs whose pipeline ran to the end (a failed
    check does not void a program's counters)."""
    return [r for r in records if "facts" in r]


def counted_work(records: list[dict]) -> dict[str, dict]:
    """Per program, the counters that must repeat exactly."""
    return {
        r["name"]: {key: r[key] for key in COUNTED_KEYS} for r in completed(records)
    }

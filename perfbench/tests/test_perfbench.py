"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import batch  # noqa: E402
from perfbench.common import NullTracer, Tracer, benchmark_spec  # noqa: E402
from perfbench.run import Outcome, compare_counts  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_tiny(workload: str, trace: int) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["paper-suite", "struct-corpus", "serve-edit"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_benchmark_json_metrics(workload, trace):
    status, result = run_tiny(workload, trace)
    assert status == 0
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = benchmark_spec()["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec}


def test_missing_program_exits_nonzero_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


class _DropPair:
    """A solution that no longer answers yes for one pair at one node."""

    def __init__(self, solution, nid: int, pair) -> None:
        self._solution, self._nid, self._pair = solution, nid, pair

    def __getattr__(self, name):
        return getattr(self._solution, name)

    def alias_query(self, node, a, b) -> bool:
        if node.nid == self._nid and {a, b} == {self._pair.first, self._pair.second}:
            return False
        return self._solution.alias_query(node, a, b)


def test_solution_missing_one_observed_pair_fails_soundness():
    from repro.oracle.dynamic import collect_dynamic_oracle
    from repro.programs.fixtures import LINKED_LIST

    seed = 3
    record, artifacts = batch.run_program(
        batch.BatchInput("linked_list", LINKED_LIST, 2), 200_000, NullTracer()
    )
    assert record["decided"]
    assert batch.soundness_problems(artifacts, 2, seed) == []

    solution = artifacts["solution"]
    oracle = collect_dynamic_oracle(
        artifacts["analyzed"], artifacts["builder"], artifacts["icfg"],
        draws=batch.ORACLE_DRAWS, seed=seed, fuel=batch.ORACLE_FUEL, max_derefs=3,
    )

    def visible(name, node) -> bool:
        symbol = solution.ctx.base_symbol(name)
        return symbol is not None and (symbol.is_global or symbol.proc == node.proc)

    observed = [
        (nid, pair)
        for nid, pairs in sorted(oracle.pairs_by_node.items())
        for pair in sorted(pairs, key=str)
        if visible(pair.first, oracle.node_by_nid[nid])
        and visible(pair.second, oracle.node_by_nid[nid])
    ]
    assert observed
    nid, pair = observed[0]
    artifacts["solution"] = _DropPair(solution, nid, pair)
    assert batch.soundness_problems(artifacts, 2, seed)


def test_counted_work_difference_is_a_failure():
    outcome = Outcome("paper-suite", 1, "3", 10)
    same = {"p": {"facts": 5, "pops": 9}}
    assert compare_counts(outcome, same, {"p": {"facts": 5, "pops": 9}}, "x") == set()
    assert outcome.failed == 0
    assert compare_counts(outcome, same, {"p": {"facts": 5, "pops": 10}}, "x") == {"p"}
    assert outcome.failed == 1


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    spans = {s["name"]: s for s in tracer.spans}
    assert spans["inner"]["parent"] == 0
    own = tracer.self_seconds()
    outer = spans["outer"]["end"] - spans["outer"]["start"]
    inner = spans["inner"]["end"] - spans["inner"]["start"]
    assert own["outer"] == pytest.approx(outer - inner)
    events = tracer.chrome_trace()["traceEvents"]
    assert [e["args"]["parent"] for e in events] == [None, 0]

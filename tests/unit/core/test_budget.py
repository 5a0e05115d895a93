"""Budget semantics: graceful truncation, partial-solution soundness.

The contract (docs/API.md): when ``max_facts`` or ``deadline_seconds``
is exceeded the engine stops draining instead of discarding the work.
The partial store is a *subset* of the full run's facts, every fact
demoted to TAINTED — a progress report that never claims precision it
cannot certify.
"""

import time

import pytest

from repro import BudgetExceeded, analyze_source
from repro.core.store import TAINTED
from repro.programs import ProgramSpec, generate_program
from repro.programs.fixtures import FIGURE1


def _scaling_source(target=100):
    return generate_program(ProgramSpec.for_target_nodes("scaling", target))


class TestBudgetExceeded:
    def test_raises_with_partial_solution_attached(self):
        with pytest.raises(BudgetExceeded) as excinfo:
            analyze_source(FIGURE1, k=3, max_facts=20)
        err = excinfo.value
        assert err.reason == "max_facts"
        assert err.solution is not None
        assert not err.solution.complete
        assert err.solution.budget.reason == "max_facts"

    def test_subclasses_runtime_error(self):
        # Pre-budget callers caught a bare RuntimeError; they must keep
        # working unchanged.
        with pytest.raises(RuntimeError):
            analyze_source(FIGURE1, k=3, max_facts=20)

    def test_on_budget_partial_returns_instead_of_raising(self):
        solution = analyze_source(FIGURE1, k=3, max_facts=20, on_budget="partial")
        assert not solution.complete
        assert solution.budget.exceeded
        assert solution.budget.reason == "max_facts"

    def test_invalid_on_budget_rejected(self):
        with pytest.raises(ValueError):
            analyze_source(FIGURE1, k=3, on_budget="explode")


class TestPartialSolutionSoundness:
    def test_partial_is_all_tainted_subset_of_full(self):
        full = analyze_source(FIGURE1, k=3)
        partial = analyze_source(FIGURE1, k=3, max_facts=20, on_budget="partial")

        full_facts = {fact for fact, _ in full.store.facts()}
        partial_facts = {fact for fact, _ in partial.store.facts()}
        assert partial_facts  # the budget stopped a run in progress
        assert partial_facts < full_facts  # strict subset: it was cut short
        assert all(clean is TAINTED for _, clean in partial.store.facts())

    def test_partial_certifies_nothing_precise(self):
        partial = analyze_source(FIGURE1, k=3, max_facts=20, on_budget="partial")
        assert partial.percent_yes() == 0.0
        assert partial.budget.demoted_facts >= 0
        stats = partial.stats_dict()
        assert stats["budget"]["exceeded"] is True
        assert stats["solution"]["percent_yes"] == 0.0

    def test_may_alias_of_partial_is_subset_per_node(self):
        full = analyze_source(FIGURE1, k=3)
        partial = analyze_source(FIGURE1, k=3, max_facts=20, on_budget="partial")
        for node in full.icfg.nodes:
            assert partial.may_alias(node) <= full.may_alias(node)


class TestDeadline:
    def test_zero_deadline_truncates_large_run(self):
        # The deadline is polled every 256 pops; this program needs
        # thousands, so a zero-second budget must trip it.
        source = _scaling_source(100)
        solution = analyze_source(
            source, k=3, deadline_seconds=0.0, on_budget="partial"
        )
        assert not solution.complete
        assert solution.budget.reason == "deadline"
        assert all(clean is TAINTED for _, clean in solution.store.facts())

    def test_generous_deadline_completes(self):
        solution = analyze_source(FIGURE1, k=3, deadline_seconds=600.0)
        assert solution.complete
        assert solution.budget.reason is None

    @pytest.mark.parametrize("engine", ["kernel", "reference"])
    def test_retaint_spends_the_same_deadline(self, engine, monkeypatch):
        # A stubbed clock stands still through the first drain and then
        # jumps past the budget while retaint reseeds.  One deadline per
        # run means the retaint drain trips it; a drain that restarted
        # the budget would finish and report a complete run.
        from repro.core.kernel import KernelAnalysis
        from repro.core.worklist import MayHoldAnalysis

        now = [0.0]
        monkeypatch.setattr(time, "perf_counter", lambda: now[0])
        cls = KernelAnalysis if engine == "kernel" else MayHoldAnalysis
        reseed = cls._reseed_clean

        def reseed_late(self):
            now[0] = 15.0
            reseed(self)

        monkeypatch.setattr(cls, "_reseed_clean", reseed_late)
        solution = analyze_source(
            _scaling_source(100),
            k=3,
            deadline_seconds=10.0,
            on_budget="partial",
            engine=engine,
        )
        assert now[0] == 15.0  # retaint ran
        assert not solution.complete
        assert solution.budget.reason == "deadline"

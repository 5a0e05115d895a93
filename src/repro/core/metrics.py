"""Observability layer: phase timing, engine counters, budget outcome.

The paper's practicality argument (§6) is quantitative — constant-time
``may_hold`` operations, a worklist that touches each fact a bounded
number of times.  This module gives every run the numbers to check that
claim: wall time per pipeline phase (parse, ICFG build, init,
propagation, post-pass), the worklist discipline counters kept by
:class:`~repro.core.store.MayHoldStore`, the interprocedural join
fan-out, and the sizes of the back-bind registry and the name/pair
intern tables.  ``MayAliasSolution.stats_dict()`` serializes all of it
(the ``repro-stats/1`` schema, see docs/API.md).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

# Canonical phase names, in pipeline order.
PHASE_PARSE = "parse"
PHASE_ICFG = "icfg"
PHASE_INIT = "init"
PHASE_PROPAGATE = "propagate"
PHASE_POST = "post"


class PhaseTimer:
    """Accumulates wall-clock seconds per named phase.

    Re-entering a phase name accumulates (useful when a phase runs once
    per procedure or per retry); phases may nest freely since each
    ``with`` block only measures its own span.
    """

    def __init__(self) -> None:
        self.phases: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator["PhaseTimer"]:
        """Time the enclosed block under ``name``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.record(name, time.perf_counter() - start)

    def record(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to ``name`` directly."""
        self.phases[name] = self.phases.get(name, 0.0) + seconds

    def get(self, name: str) -> float:
        """Accumulated seconds for ``name`` (0.0 when never entered)."""
        return self.phases.get(name, 0.0)

    @property
    def total(self) -> float:
        """Sum over all recorded phases."""
        return sum(self.phases.values())

    def as_dict(self) -> dict[str, float]:
        """Phase -> seconds snapshot."""
        return dict(self.phases)

    def merge(self, other: "PhaseTimer | dict[str, float]") -> None:
        """Accumulate another timer's phases into this one (used when a
        sharded run aggregates per-shard timings)."""
        phases = other.phases if isinstance(other, PhaseTimer) else other
        for name, seconds in phases.items():
            self.record(name, seconds)


@dataclass(slots=True)
class BudgetOutcome:
    """How the run related to its budgets.

    ``exceeded=True`` means the worklist was *not* drained: the store
    holds a partial solution — a subset of the full run's facts, every
    one demoted to TAINTED (nothing is certified precise).  ``reason``
    is ``"max_facts"`` or ``"deadline"``.
    """

    exceeded: bool = False
    reason: Optional[str] = None
    max_facts: Optional[int] = None
    deadline_seconds: Optional[float] = None
    demoted_facts: int = 0

    def as_dict(self) -> dict:
        return {
            "exceeded": self.exceeded,
            "reason": self.reason,
            "max_facts": self.max_facts,
            "deadline_seconds": self.deadline_seconds,
            "demoted_facts": self.demoted_facts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BudgetOutcome":
        """Inverse of :meth:`as_dict` (unknown keys are ignored so old
        serialized documents keep loading)."""
        outcome = cls()
        outcome.exceeded = bool(data.get("exceeded", False))
        outcome.reason = data.get("reason")
        outcome.max_facts = data.get("max_facts")
        outcome.deadline_seconds = data.get("deadline_seconds")
        outcome.demoted_facts = int(data.get("demoted_facts", 0))
        return outcome


def deadline_after(seconds: Optional[float]) -> Optional[float]:
    """The absolute ``time.perf_counter()`` value a wall-clock budget of
    ``seconds`` runs out at (None: no deadline).  Engines take it once
    per run and hand the same value to every drain."""
    if seconds is None:
        return None
    return time.perf_counter() + seconds


@dataclass(slots=True)
class EngineReport:
    """Engine counters for one completed (or budget-truncated) run."""

    # Store / worklist discipline.
    facts: int = 0
    worklist_pushes: int = 0
    worklist_pops: int = 0
    dedup_hits: int = 0
    stale_skips: int = 0
    upgrades: int = 0
    # Interprocedural joins.
    join_calls: int = 0       # _join_return invocations
    join_fanout: int = 0      # record combinations attempted (_join_one)
    stale_bind_records: int = 0
    # Registry / intern table sizes at the end of the run.
    registry_keys: int = 0
    registry_records: int = 0
    interned_names: int = 0
    interned_pairs: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "facts": self.facts,
            "worklist_pushes": self.worklist_pushes,
            "worklist_pops": self.worklist_pops,
            "dedup_hits": self.dedup_hits,
            "stale_skips": self.stale_skips,
            "upgrades": self.upgrades,
            "join_calls": self.join_calls,
            "join_fanout": self.join_fanout,
            "stale_bind_records": self.stale_bind_records,
            "registry_keys": self.registry_keys,
            "registry_records": self.registry_records,
            "interned_names": self.interned_names,
            "interned_pairs": self.interned_pairs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EngineReport":
        """Inverse of :meth:`as_dict`; unknown keys are ignored."""
        report = cls()
        for name in report.__dataclass_fields__:
            if name in data:
                setattr(report, name, int(data[name]))
        return report

    def add(self, other: "EngineReport") -> None:
        """Accumulate another report's counters into this one.

        Intern-table sizes are process-global gauges, not flow counters,
        so aggregation takes their max rather than their sum."""
        gauges = ("interned_names", "interned_pairs")
        for name in self.__dataclass_fields__:
            ours, theirs = getattr(self, name), getattr(other, name)
            if name in gauges:
                setattr(self, name, max(ours, theirs))
            else:
                setattr(self, name, ours + theirs)

    @classmethod
    def aggregate(cls, reports: "Iterable[EngineReport]") -> "EngineReport":
        """Sum per-shard reports into one suite-level report."""
        total = cls()
        for report in reports:
            total.add(report)
        return total


#: Keys that hold wall-clock measurements in the stats documents this
#: package emits (``repro-stats/1``, ``repro-difftest/1``,
#: ``repro-lint/1``).  Two runs of the same work are byte-identical
#: *modulo these fields* — tests and the benchmark harness strip them
#: before comparing documents.
TIMING_KEYS = frozenset(
    {
        "seconds",
        "analysis_seconds",
        "lint_seconds",
        "phases",
        "created_at",
    }
)


def strip_timing(value):
    """Recursively drop wall-clock fields (:data:`TIMING_KEYS`) from a
    JSON-able stats document, returning a comparable copy."""
    if isinstance(value, dict):
        return {
            key: strip_timing(item)
            for key, item in value.items()
            if key not in TIMING_KEYS
        }
    if isinstance(value, list):
        return [strip_timing(item) for item in value]
    return value


__all__ = [
    "BudgetOutcome",
    "EngineReport",
    "PHASE_ICFG",
    "PHASE_INIT",
    "PHASE_PARSE",
    "PHASE_POST",
    "PHASE_PROPAGATE",
    "PhaseTimer",
    "TIMING_KEYS",
    "strip_timing",
]

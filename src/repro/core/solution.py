"""Query layer over a completed may-hold computation.

``may_alias(n) = { PA | exists AA with may_hold[(n, AA), PA] }`` — the
paper notes this is computable in time linear in the may-hold solution,
which is exactly what this module does, plus the derived quantities the
evaluation section reports: *program aliases* (Table 1), per-node alias
counts and the ``%YES_k`` precision measure (Table 2 / Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..icfg.graph import ICFG
from ..icfg.ir import Node
from ..names.alias_pairs import AliasPair
from ..names.context import NameContext
from ..names.object_names import ObjectName, interned_prefixes
from .metrics import BudgetOutcome, EngineReport, PhaseTimer
from .store import MayHoldStore, PostPass

STATS_SCHEMA = "repro-stats/1"


@dataclass(slots=True)
class SolutionStats:
    """Aggregate numbers in the shape the paper reports, plus the
    engine/observability layer added on top (phase wall times, worklist
    counters, budget outcome)."""

    icfg_nodes: int
    may_hold_facts: int
    node_alias_count: int  # |{(node, PA)}| summed over nodes
    program_alias_count: int
    percent_yes: float
    analysis_seconds: float = 0.0
    engine: EngineReport = field(default_factory=EngineReport)
    phases: dict[str, float] = field(default_factory=dict)
    budget: BudgetOutcome = field(default_factory=BudgetOutcome)


class MayAliasSolution:
    """The result of running the Landi/Ryder analysis."""

    def __init__(
        self,
        icfg: ICFG,
        store: MayHoldStore,
        ctx: NameContext,
        k: int,
        analysis_seconds: float = 0.0,
        engine: Optional[EngineReport] = None,
        phases: Optional[PhaseTimer] = None,
        budget: Optional[BudgetOutcome] = None,
    ) -> None:
        self.icfg = icfg
        self.store = store
        self.ctx = ctx
        self.k = k
        self.analysis_seconds = analysis_seconds
        self.engine = engine if engine is not None else EngineReport()
        self.phases = phases if phases is not None else PhaseTimer()
        self.budget = budget if budget is not None else BudgetOutcome()

    @property
    def complete(self) -> bool:
        """False when a budget truncated the run (partial solution)."""
        return not self.budget.exceeded

    # -- core queries -----------------------------------------------------------

    def may_alias(self, node: Node | int) -> set[AliasPair]:
        """All alias pairs that may hold immediately after ``node``."""
        nid = node if isinstance(node, int) else node.nid
        return self.store.pairs_at(nid)

    def may_alias_names(self, node: Node | int, name: ObjectName) -> set[ObjectName]:
        """Names possibly aliased to ``name`` at ``node``."""
        return {pair.other(name) for pair in self.pairs_with_member(node, name)}

    def pairs_with_member(
        self, node: Node | int, name: ObjectName
    ) -> list[AliasPair]:
        """Distinct pairs at ``node`` that have ``name`` as a member, in
        derivation order — one read of the store's per-name index."""
        nid = node if isinstance(node, int) else node.nid
        return self.store.pairs_with_name(nid, name)

    def alias_query(self, node: Node | int, a: ObjectName, b: ObjectName) -> bool:
        """May ``a`` and ``b`` be aliases at ``node``?  Honors the
        k-limited-representative convention: a truncated pair member
        represents all of its extensions."""
        return represented(self, node, a, b)

    def program_aliases(self, include_nonvisible: bool = False) -> set[AliasPair]:
        """Paper Table 1: ``{(a, b) | exists ICFG node n with
        (a, b) in may_alias(n)}``."""
        pairs = self.store.postpass().pairs
        if include_nonvisible:
            return pairs
        return {pair for pair in pairs if not pair.has_nonvisible}

    def node_pairs(self) -> Iterator[tuple[int, AliasPair]]:
        """Distinct (node, pair) combinations."""
        seen: set[tuple[int, AliasPair]] = set()
        for (nid, _, pair), _clean in self.store.facts():
            key = (nid, pair)
            if key not in seen:
                seen.add(key)
                yield key

    # -- precision (Figure 5) -------------------------------------------------------

    def percent_yes(self) -> float:
        """``%YES_k``: the percentage of (node, PA) facts with at least
        one derivation free of type-2/3/4 approximations.  The paper
        proves %YES_k(P) <= 100 * (1 / precision_k(landi, P)), i.e. this
        is a lower bound on true precision."""
        return _percent_yes(self.store.postpass())

    # -- reporting --------------------------------------------------------------------

    def stats(self) -> SolutionStats:
        """Aggregate numbers in the shape the paper reports, read off
        one :meth:`~repro.core.store.MayHoldStore.postpass`: time linear
        in the facts, with only the distinct pairs decoded."""
        post = self.store.postpass()
        return SolutionStats(
            icfg_nodes=len(self.icfg),
            may_hold_facts=len(self.store),
            node_alias_count=post.node_pairs,
            program_alias_count=sum(
                1 for pair in post.pairs if not pair.has_nonvisible
            ),
            percent_yes=_percent_yes(post),
            analysis_seconds=self.analysis_seconds,
            engine=self.engine,
            phases=self.phases.as_dict(),
            budget=self.budget,
        )

    def stats_dict(self) -> dict:
        """The full ``repro-stats/1`` document (see docs/API.md):
        phase wall times, engine counters, solution aggregates and the
        budget outcome, all JSON-serializable."""
        stats = self.stats()
        return {
            "schema": STATS_SCHEMA,
            "k": self.k,
            "phases": stats.phases,
            "engine": stats.engine.as_dict(),
            "solution": {
                "icfg_nodes": stats.icfg_nodes,
                "may_hold_facts": stats.may_hold_facts,
                "node_alias_count": stats.node_alias_count,
                "program_alias_count": stats.program_alias_count,
                "percent_yes": stats.percent_yes,
                "analysis_seconds": stats.analysis_seconds,
            },
            "budget": stats.budget.as_dict(),
        }

    def render_node_report(self, node: Node | int, limit: Optional[int] = None) -> str:
        """Human-readable alias list for one node (debugging aid)."""
        nid = node if isinstance(node, int) else node.nid
        actual = self.icfg.node(nid)
        pairs = sorted(str(p) for p in self.may_alias(nid))
        if limit is not None:
            pairs = pairs[:limit]
        lines = [f"n{nid} [{actual.label()}]:"]
        lines.extend(f"  {p}" for p in pairs)
        return "\n".join(lines)


def _percent_yes(post: PostPass) -> float:
    if not post.node_pairs:
        # Zero-alias program: vacuously precise (and the 0/0 ratio
        # would otherwise be nan).
        return 100.0
    return max(0.0, min(100.0, 100.0 * post.clean_node_pairs / post.node_pairs))


def _covers(stored: ObjectName, queried: ObjectName) -> bool:
    """Does a stored pair member stand for ``queried``?  Itself, or as
    a truncated prefix (paper §3: ``b~`` represents every ``b+sigma``)."""
    return stored == queried or (stored.truncated and stored.is_prefix(queried))


def represented(provider, node: Node | int, a: ObjectName, b: ObjectName) -> bool:
    """Is the pair ``(a, b)`` represented at ``node`` by a pair of
    ``provider`` (anything with ``pairs_with_member``)?

    A stored pair represents ``(a, b)`` only when one member covers
    ``a`` — ``a`` itself or one of its truncated prefixes, at most
    ``len(a.selectors) + 2`` names — and the other member covers ``b``.
    So the query reads those few names' index buckets instead of every
    pair at the node, and looks the names up without interning them."""
    for member in (a, *interned_prefixes(a, truncated_only=True)):
        for pair in provider.pairs_with_member(node, member):
            if _covers(pair.other(member), b):
                return True
    return False


def _represents(stored: AliasPair, query: AliasPair) -> bool:
    """Does a stored (possibly truncated) pair represent the queried
    pair?  Paper §3: ``(a, b~)`` represents every ``(a, b+sigma)``; with
    two truncated members each side represents its own extensions.
    :func:`represented` answers the same question for all pairs at a
    node through the member index."""
    for s_first, s_second in (
        (stored.first, stored.second),
        (stored.second, stored.first),
    ):
        for q_first, q_second in (
            (query.first, query.second),
            (query.second, query.first),
        ):
            if _covers(s_first, q_first) and _covers(s_second, q_second):
                return True
    return False

"""The may-hold worklist algorithm (paper §4, Figures 2 and 3).

Initialization introduces the trivially-true facts: for every pointer
assignment the alias it creates (``alias_intro_by_assignment``), and
for every call site the parameter-binding aliases at the callee's
entry (``alias_intro_by_call``).  The loop then pops facts and applies
the rule matching the node's kind:

* **call nodes** — push bound aliases into the callee's entry (each
  bound alias becomes its own assumption), record the binding so exit
  facts can be joined back (this registry is the paper's "additional
  data structure" that avoids iterating over every possible pair), pass
  both-nonvisible aliases straight to the return node (Rule 1), and
  join against already-known exit facts (the reverse matching needed
  because facts arrive in arbitrary order);
* **exit nodes** — for every return successor, join against the call
  facts whose bindings produced this fact's assumption(s), translating
  names back into the caller (globals survive, callee locals die,
  nonvisible tokens are instantiated with the caller name they
  represent; Rules 2 and 3 plus the two-assumption nonvisible case);
* **all other nodes** — propagate to successors, applying the
  §4.5 case analysis at pointer assignments and plain copying
  elsewhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..frontend.semantics import AnalyzedProgram
from ..icfg.graph import ICFG
from ..icfg.ir import CallInfo, Node, NodeKind, PtrAssign
from ..names.alias_pairs import AliasPair, interned_pair_count
from ..names.context import NameContext
from ..names.object_names import (
    NONVISIBLE_BASES,
    ObjectName,
    interned_name_count,
    is_nonvisible_based,
    k_limit,
)
from . import assumptions
from .assumptions import Assumption
from .bind import BoundAlias, CallBinder
from .metrics import (
    PHASE_INIT,
    PHASE_POST,
    PHASE_PROPAGATE,
    BudgetOutcome,
    EngineReport,
    PhaseTimer,
    deadline_after,
)
from .store import CLEAN, MayHoldStore
from .transfer import AssignTransfer

# How many pops between wall-clock checks when a deadline is set (the
# clock read is cheap but not free; the hot loop is pops).
_DEADLINE_CHECK_EVERY = 256


@dataclass(frozen=True, slots=True)
class BindRecord:
    """One call-site fact (or binding-implied alias) that produced an
    entry assumption; used to back-bind exit facts.

    For binding-implied aliases (``bind(∅)``) ``call_assumption`` and
    ``call_pair`` are None — the alias holds on every path through the
    call, so the joined fact lands at the return with the empty
    assumption (paper footnote 7)."""

    call_assumption: Optional[Assumption]
    call_pair: Optional[AliasPair]
    represents: Optional[ObjectName]


class MayHoldAnalysis:
    """Runs the algorithm over one program's ICFG."""

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        icfg: ICFG,
        k: int = 3,
        max_facts: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        dedup: bool = True,
        timer: Optional[PhaseTimer] = None,
        seed_nodes: Optional[frozenset[int]] = None,
    ) -> None:
        self.analyzed = analyzed
        self.icfg = icfg
        self.k = k
        #: When set, initialization only introduces facts at these
        #: nodes — the per-slice mode of :mod:`repro.parallel.slices`.
        #: Every slice's fixpoint is a sound subset of the full one
        #: (its derivations are ordinary full-program derivations); the
        #: closure pass re-runs with ``seed_nodes=None`` over the
        #: merged warm store to finish cross-slice joins.
        self.seed_nodes = seed_nodes
        self.ctx = NameContext(analyzed.symbols, k)
        self.store = MayHoldStore(dedup=dedup)
        self.transfer = AssignTransfer(self.store, self.ctx)
        self.max_facts = max_facts
        self.deadline_seconds = deadline_seconds
        self.timer = timer if timer is not None else PhaseTimer()
        self.budget = BudgetOutcome(
            max_facts=max_facts, deadline_seconds=deadline_seconds
        )
        self._binders: dict[int, CallBinder] = {}
        # (call node id, entry assumption pair) -> records for back-bind.
        self._registry: dict[tuple[int, AliasPair], list[BindRecord]] = {}
        self.steps = 0
        # Interprocedural join counters (see EngineReport).
        self.join_calls = 0
        self.join_fanout = 0
        self.stale_bind_records = 0

    # -- setup -------------------------------------------------------------------

    def _binder(self, call: Node) -> Optional[CallBinder]:
        binder = self._binders.get(call.nid)
        if binder is None:
            if call.callee is None or call.callee not in self.analyzed.symbols.functions:
                return None
            info = self.analyzed.symbols.function(call.callee)
            assert isinstance(call.stmt, CallInfo)
            binder = CallBinder(self.ctx, call.stmt, info)
            self._binders[call.nid] = binder
        return binder

    def _initialize(self) -> None:
        for node in self.icfg.nodes:
            if self.seed_nodes is not None and node.nid not in self.seed_nodes:
                continue
            if node.is_pointer_assignment:
                assert isinstance(node.stmt, PtrAssign)
                self.transfer.intro(node.nid, node.stmt)
            elif node.kind is NodeKind.CALL and node.callee in self.icfg.procs:
                binder = self._binder(node)
                if binder is None:
                    continue
                entry = self.icfg.entry_of(node.callee)
                for bound in binder.bind_empty():
                    self._register(node, bound, None, None)
                    self.store.make_true(
                        entry.nid,
                        assumptions.single(bound.entry_pair),
                        bound.entry_pair,
                        CLEAN,
                    )

    def _register(
        self,
        call: Node,
        bound: BoundAlias,
        call_assumption: Optional[Assumption],
        call_pair: Optional[AliasPair],
    ) -> bool:
        """Record a binding; returns True when it is new."""
        record = BindRecord(call_assumption, call_pair, bound.represents)
        key = (call.nid, bound.entry_pair)
        records = self._registry.setdefault(key, [])
        if record in records:
            return False
        records.append(record)
        return True

    # -- driver -------------------------------------------------------------------

    def run(self) -> MayHoldStore:
        """Initialize and drain the worklist; returns the store.

        When a budget (``max_facts`` or ``deadline_seconds``) is hit the
        loop stops early instead of raising: ``self.budget`` records the
        reason and every fact found so far is demoted to TAINTED (the
        partial store is a subset of the full run's facts, with nothing
        certified precise).  The caller decides whether that outcome is
        an error (see :func:`repro.core.analysis.analyze_program`)."""
        deadline_at = deadline_after(self.deadline_seconds)
        with self.timer.phase(PHASE_INIT):
            self._initialize()
        with self.timer.phase(PHASE_PROPAGATE):
            self._drain(deadline_at)
            if not self.budget.exceeded and self.seed_nodes is None:
                self._retaint(deadline_at)
        if self.budget.exceeded:
            with self.timer.phase(PHASE_POST):
                self.budget.demoted_facts = self.store.taint_all()
        return self.store

    def _retaint(self, deadline_at: Optional[float]) -> None:
        """Second pass: recompute every CLEAN bit against the frozen
        fact set (see :meth:`KernelAnalysis._retaint` — the two engines
        mirror each other here as everywhere, including the reseed
        order, so the pass is counter-identical too).  Approximations
        3/4 probe the store at pop time, so first-pass taint encodes
        the worklist schedule; with the facts converged the probes are
        constants and re-deriving taint from the unconditional CLEAN
        sources (assignment intros, bind seeds) reaches the unique
        schedule-independent fixpoint."""
        self.store.taint_all()
        self._reseed_clean()
        self._drain(deadline_at)

    def _reseed_clean(self) -> None:
        """Re-emit the unconditionally-CLEAN sources over an existing
        fact set.  Entry nodes receive facts only from bind seeds
        (CLEAN by rule, whatever the call fact's taint), so
        re-certifying everything at a called entry restores exactly the
        seed set."""
        seen_entries: set[int] = set()
        for node in self.icfg.nodes:
            if self.seed_nodes is not None and node.nid not in self.seed_nodes:
                continue
            if node.is_pointer_assignment:
                assert isinstance(node.stmt, PtrAssign)
                self.transfer.intro(node.nid, node.stmt)
            elif node.kind is NodeKind.CALL and node.callee in self.icfg.procs:
                binder = self._binder(node)
                if binder is None:
                    continue
                entry = self.icfg.entry_of(node.callee)
                if entry.nid in seen_entries:
                    continue
                seen_entries.add(entry.nid)
                for assumption, pair in self.store.at_node(entry.nid):
                    self.store.make_true(entry.nid, assumption, pair, CLEAN)

    def _drain(self, deadline_at: Optional[float]) -> None:
        while True:
            fact = self.store.pop()
            if fact is None:
                return
            self.steps += 1
            if self.max_facts is not None and len(self.store) > self.max_facts:
                self.budget.exceeded = True
                self.budget.reason = "max_facts"
                return
            if (
                deadline_at is not None
                and self.steps % _DEADLINE_CHECK_EVERY == 0
                and time.perf_counter() > deadline_at
            ):
                self.budget.exceeded = True
                self.budget.reason = "deadline"
                return
            nid, assumption, pair = fact
            node = self.icfg.node(nid)
            if node.kind is NodeKind.CALL and node.callee in self.icfg.procs:
                self._process_call(node, assumption, pair)
            elif node.kind is NodeKind.EXIT:
                self._process_exit(node, assumption, pair)
            else:
                self._process_other(node, assumption, pair)

    def engine_report(self) -> EngineReport:
        """Snapshot of all engine counters (see :mod:`.metrics`)."""
        stats = self.store.stats
        return EngineReport(
            facts=stats.facts,
            worklist_pushes=stats.worklist_pushes,
            worklist_pops=stats.worklist_pops,
            dedup_hits=stats.dedup_hits,
            stale_skips=stats.stale_skips,
            upgrades=stats.upgrades,
            join_calls=self.join_calls,
            join_fanout=self.join_fanout,
            stale_bind_records=self.stale_bind_records,
            registry_keys=len(self._registry),
            registry_records=sum(len(r) for r in self._registry.values()),
            interned_names=interned_name_count(),
            interned_pairs=interned_pair_count(),
        )

    # -- per-kind rules --------------------------------------------------------------

    def _process_other(self, node: Node, assumption: Assumption, pair: AliasPair) -> None:
        clean = self.store.taint_of(node.nid, assumption, pair)
        for succ in node.succs:
            if succ.is_pointer_assignment:
                assert isinstance(succ.stmt, PtrAssign)
                self.transfer.apply(
                    node.nid, succ.nid, succ.stmt, assumption, pair, clean
                )
            else:
                self.store.make_true(succ.nid, assumption, pair, clean)

    def _process_call(self, call: Node, assumption: Assumption, pair: AliasPair) -> None:
        binder = self._binder(call)
        assert binder is not None
        clean = self.store.taint_of(call.nid, assumption, pair)
        ret = call.paired_return
        assert ret is not None
        # Rule 1: the callee is in the scope of neither member.
        if binder.both_invisible(pair):
            self.store.make_true(ret.nid, assumption, pair, clean)
        entry = self.icfg.entry_of(call.callee or "")
        exit_node = self.icfg.exit_of(call.callee or "")
        for bound in binder.bind_pair(pair):
            self.store.make_true(
                entry.nid,
                assumptions.single(bound.entry_pair),
                bound.entry_pair,
                CLEAN,
            )
            self._register(call, bound, assumption, pair)
            # Reverse matching: exit facts that already assumed this
            # bound alias can now be joined to our return node.  This
            # runs on every (re)processing so taint upgrades of the call
            # fact propagate to the return as well.  Two-assumption
            # exit facts carry their second assumed pair in $nv2 form,
            # so the lookup must cover both token forms — otherwise a
            # record arriving after such an exit fact never re-triggers
            # the join and the fixpoint depends on processing order.
            for exit_aa, exit_pair in self.store.at_node_assuming(
                exit_node.nid, bound.entry_pair
            ):
                self._join_return(call, exit_node, exit_aa, exit_pair)
            second_form = assumptions.second_token_form(bound.entry_pair)
            if second_form != bound.entry_pair:
                for exit_aa, exit_pair in self.store.at_node_assuming(
                    exit_node.nid, second_form
                ):
                    self._join_return(call, exit_node, exit_aa, exit_pair)

    def _process_exit(self, exit_node: Node, assumption: Assumption, pair: AliasPair) -> None:
        for ret in exit_node.succs:
            call = ret.paired_call
            assert call is not None
            self._join_return(call, exit_node, assumption, pair)

    # -- the return join (Figure 3) -----------------------------------------------------

    def _join_return(
        self,
        call: Node,
        exit_node: Node,
        exit_assumption: Assumption,
        exit_pair: AliasPair,
    ) -> None:
        ret = call.paired_return
        assert ret is not None
        callee = call.callee or ""
        self.join_calls += 1
        exit_taint = self.store.taint_of(exit_node.nid, exit_assumption, exit_pair)
        if not exit_assumption:
            translated = self._translate(exit_pair, callee, {})
            if translated is not None:
                self.store.make_true(ret.nid, assumptions.EMPTY, translated, exit_taint)
            return
        if len(exit_assumption) == 1:
            for record in self._registry.get((call.nid, exit_assumption[0]), ()):
                self._join_one(call, ret, callee, exit_pair, exit_taint, (record,), (1,))
            return
        # Two-assumption exits: both assumed aliases must be bound at
        # this call site; each record instantiates its own nv token.
        # The registry stores entry pairs with the $nv1 token, so the
        # second assumption (carrying $nv2) is normalized for lookup.
        records1 = self._registry.get(
            (call.nid, assumptions.normalize_tokens(exit_assumption[0])), ()
        )
        records2 = self._registry.get(
            (call.nid, assumptions.normalize_tokens(exit_assumption[1])), ()
        )
        for rec1 in records1:
            for rec2 in records2:
                self._join_one(
                    call, ret, callee, exit_pair, exit_taint, (rec1, rec2), (1, 2)
                )

    def _join_one(
        self,
        call: Node,
        ret: Node,
        callee: str,
        exit_pair: AliasPair,
        exit_taint: bool,
        records: tuple[BindRecord, ...],
        indices: tuple[int, ...],
    ) -> None:
        self.join_fanout += 1
        substitution: dict[str, ObjectName] = {}
        taint = exit_taint
        caller_assumptions: list[Assumption] = []
        # Which record's token each substituted base maps through.
        token_owner: dict[str, int] = {}
        for position, (record, index) in enumerate(zip(records, indices)):
            if record.call_pair is not None:
                assert record.call_assumption is not None
                if not self.store.holds(
                    call.nid, record.call_assumption, record.call_pair
                ):
                    # Records are registered only for facts already made
                    # true, and facts are never retracted — a miss here
                    # means the engine dropped a return-join silently.
                    # Count it (so production runs surface it in stats)
                    # and fail fast in debug runs.
                    self.stale_bind_records += 1
                    assert False, (
                        f"stale BindRecord at call n{call.nid}: "
                        f"{record.call_pair} under {record.call_assumption}"
                    )
                    return
                taint = taint and self.store.taint_of(
                    call.nid, record.call_assumption, record.call_pair
                )
                caller_assumptions.append(record.call_assumption)
            else:
                caller_assumptions.append(assumptions.EMPTY)
            if record.represents is not None:
                substitution[NONVISIBLE_BASES[index - 1]] = record.represents
                token_owner[NONVISIBLE_BASES[index - 1]] = position
        translated = self._translate(exit_pair, callee, substitution)
        if translated is None:
            return
        if len(caller_assumptions) == 1:
            self.store.make_true(ret.nid, caller_assumptions[0], translated, taint)
            return
        # Two records.  If both members came through tokens whose
        # records carry *different nonvisible-bearing* caller
        # assumptions, the caller-side fact must itself be a
        # two-assumption fact (the tokens re-form one level up) —
        # collapsing to one assumption would conflate the two caller
        # names at the next return.
        owners = [
            token_owner.get(name.base) if is_nonvisible_based(name) else None
            for name in exit_pair
        ]
        members = self._translate_members(exit_pair, callee, substitution)
        assert members is not None  # _translate succeeded above
        if (
            owners[0] is not None
            and owners[1] is not None
            and owners[0] != owners[1]
            and members[0].is_nonvisible
            and members[1].is_nonvisible
        ):
            aa_first = caller_assumptions[owners[0]]
            aa_second = caller_assumptions[owners[1]]
            if (
                assumptions.has_nonvisible(aa_first)
                and assumptions.has_nonvisible(aa_second)
                and aa_first != aa_second
            ):
                combined = assumptions.combine(
                    aa_first, aa_second, (members[0],), (members[1],)
                )
                if combined is not None:
                    aa, (first_renamed,), (second_renamed,) = combined
                    renamed = AliasPair(first_renamed, second_renamed)
                    if not renamed.is_trivial:
                        self.store.make_true(ret.nid, aa, renamed, taint)
                    return
        caller_assumption = assumptions.choose(
            caller_assumptions[0], caller_assumptions[1]
        )
        self.store.make_true(ret.nid, caller_assumption, translated, taint)

    def _translate_members(
        self,
        pair: AliasPair,
        callee: str,
        substitution: dict[str, ObjectName],
    ) -> Optional[tuple[ObjectName, ObjectName]]:
        """Map the members of a callee-side pair back into the caller
        (in ``(pair.first, pair.second)`` order), or None when a member
        cannot be named there."""
        members: list[ObjectName] = []
        for name in pair:
            if is_nonvisible_based(name):
                replacement = substitution.get(name.base)
                if replacement is None:
                    return None
                mapped = replacement.extend(name.selectors)
                if name.truncated and not mapped.truncated:
                    mapped = ObjectName(mapped.base, mapped.selectors, truncated=True)
                members.append(k_limit(mapped, self.k))
            elif self.ctx.survives_return(name, callee):
                members.append(name)
            else:
                return None
        return members[0], members[1]

    def _translate(
        self,
        pair: AliasPair,
        callee: str,
        substitution: dict[str, ObjectName],
    ) -> Optional[AliasPair]:
        """Map a callee-side pair back into the caller, or None when a
        member cannot be named there."""
        members = self._translate_members(pair, callee, substitution)
        if members is None:
            return None
        result = AliasPair(members[0], members[1])
        if result.is_trivial:
            return None
        return result

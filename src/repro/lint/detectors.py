"""The lint detectors.

Every detector consumes the :class:`~repro.core.solution.MayAliasSolution`
query surface only — ``may_alias(node)``, ``may_alias_names``,
``pairs_with_member``, ``alias_query``, ``.ctx``, ``.icfg`` — so any
provider presenting that surface (the Landi/Ryder engine,
:class:`WeihlBackedSolution`, the Andersen adapter) can drive them.
Precision differences between providers become visible as extra
findings, which is exactly the false-positive delta the validation
layer measures.

Soundness contract (checked dynamically by :mod:`repro.lint.validation`):

* every run-time *uninitialized pointer read* is covered by a
  ``uninit-pointer-use`` finding for the same variable, and
* every run-time *dangling dereference* is covered by a
  ``dangling-escape`` finding for the escaping local.

The dataflow below is shaped by that contract: the "may" facts that
feed coverage are only killed by must-assignments, while "definite"
(error-level) facts are killed by any possible write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..clients.accesses import Access, node_access
from ..clients.conflicts import ConflictAnalysis
from ..clients.liveness import LiveNames
from ..core.solution import MayAliasSolution
from ..frontend.semantics import ALLOCATOR_NAMES
from ..frontend.symbols import SymbolKind
from ..icfg.graph import ICFG
from ..icfg.ir import AddrOf, CallInfo, NameRef, Node, NodeKind, Opaque, PtrAssign
from ..names.object_names import DEREF, ObjectName
from .findings import (
    RULE_CONFLICT,
    RULE_DANGLING,
    RULE_DEAD_STORE,
    RULE_NULL_DEREF,
    RULE_UNINIT,
    Finding,
)

#: ``Opaque`` describe strings that denote a null pointer value.
_NULL_OPAQUES = frozenset({"NULL", "0"})


def _is_temp(ctx, name: ObjectName) -> bool:
    """Compiler temporaries ($t1, ...) and other synthetic bases."""
    sym = ctx.base_symbol(name)
    return sym is not None and sym.name.startswith("$")


def _must_query(solution, node, a: ObjectName, b: ObjectName) -> bool:
    """True when the provider carries must-alias facts (an
    :class:`~repro.must.interval.IntervalSolution`) and they pin
    ``a == b`` at ``node``.  Plain may-providers answer False, so every
    detector stays provider-agnostic."""
    query = getattr(solution, "must_alias", None)
    return bool(query(node, a, b)) if query is not None else False


def _must_resolve(solution, node, name: ObjectName) -> Optional[ObjectName]:
    """The unique storage ``name`` must denote at ``node``, when the
    provider has a must side; None otherwise."""
    resolve = getattr(solution, "must_resolve", None)
    if resolve is None:
        return None
    resolved = resolve(node, name)
    return resolved if isinstance(resolved, ObjectName) else None


def _strong_write(w: ObjectName, n: ObjectName) -> bool:
    """Does writing ``w`` definitely overwrite all of ``n``?  Requires
    an unambiguous target: ``w`` equals ``n`` or is a field-path prefix
    of it (writing ``s`` rewrites ``s.f``), with no dereference."""
    if DEREF in w.selectors or w.truncated:
        return False
    return w == n or (w.is_prefix(n) and DEREF not in n.suffix_after(w))


class _ProcFlow:
    """Intraprocedural view of one procedure's ICFG slice: edges
    between same-procedure nodes, with each CALL bridged to its paired
    RETURN (the ICFG itself has no call→return edge)."""

    def __init__(self, icfg: ICFG, proc: str) -> None:
        graph = icfg.procs[proc]
        self.proc = proc
        self.entry = graph.entry
        self.nodes = list(graph.nodes)
        members = {node.nid for node in self.nodes}
        self.preds: dict[int, list[Node]] = {}
        self.succs: dict[int, list[Node]] = {}
        for node in self.nodes:
            preds = [p for p in node.preds if p.nid in members]
            if (
                node.kind is NodeKind.RETURN
                and node.paired_call is not None
                and node.paired_call not in preds
            ):
                preds.append(node.paired_call)
            self.preds[node.nid] = preds
        self.succs = {node.nid: [] for node in self.nodes}
        for node in self.nodes:
            for pred in self.preds[node.nid]:
                self.succs[pred.nid].append(node)


@dataclass(slots=True)
class _BiState:
    """Forward facts per node: a *may* set (union merge, killed only by
    must-writes) and a *must* set (intersection merge, killed by any
    possible write)."""

    may_in: dict[int, set[ObjectName]] = field(default_factory=dict)
    must_in: dict[int, set[ObjectName]] = field(default_factory=dict)


def _solve_forward(
    flow: _ProcFlow,
    transfer,
    entry_may: set[ObjectName],
    entry_must: set[ObjectName],
) -> _BiState:
    """Generic forward may/must fixpoint over one procedure.

    ``transfer(node, may_in, must_in) -> (may_out, must_out)``.
    Unreachable nodes (no intraprocedural predecessor, not the entry)
    keep empty facts — no findings are derived on dead code.
    """
    state = _BiState()
    may_out: dict[int, set[ObjectName]] = {}
    must_out: dict[int, set[ObjectName]] = {}
    computed: set[int] = set()
    pending: list[Node] = [flow.entry]
    while pending:
        node = pending.pop()
        if node is flow.entry:
            may_in, must_in = set(entry_may), set(entry_must)
        else:
            reached = [p for p in flow.preds[node.nid] if p.nid in computed]
            if not reached:
                continue
            may_in = set()
            for p in reached:
                may_in |= may_out[p.nid]
            must_in = set(must_out[reached[0].nid])
            for p in reached[1:]:
                must_in &= must_out[p.nid]
        first = node.nid not in computed
        if (
            not first
            and may_in == state.may_in[node.nid]
            and must_in == state.must_in[node.nid]
        ):
            continue
        state.may_in[node.nid] = may_in
        state.must_in[node.nid] = must_in
        new_may, new_must = transfer(node, may_in, must_in)
        if first or new_may != may_out[node.nid] or new_must != must_out[node.nid]:
            may_out[node.nid] = new_may
            must_out[node.nid] = new_must
            computed.add(node.nid)
            pending.extend(flow.succs[node.nid])
        else:
            computed.add(node.nid)
    for node in flow.nodes:
        state.may_in.setdefault(node.nid, set())
        state.must_in.setdefault(node.nid, set())
    return state


def _address_taken_bases(icfg: ICFG) -> set[str]:
    """Base uids whose address is taken anywhere in the program (such
    variables can be written through pointers and across calls)."""
    out: set[str] = set()
    for node in icfg.nodes:
        operands = []
        if isinstance(node.stmt, PtrAssign):
            operands.append(node.stmt.rhs)
        elif isinstance(node.stmt, CallInfo):
            operands.extend(node.stmt.args)
        for op in operands:
            if isinstance(op, AddrOf):
                out.add(op.name.base)
    return out


def _pointer_paths(ctx, base_uid: str) -> list[ObjectName]:
    """Pointer-typed object names rooted at ``base_uid`` using field
    selectors only (the storage *inside* the variable itself)."""
    root = ObjectName(base_uid)
    out = []
    if ctx.is_pointer_name(root):
        out.append(root)
    base_type = ctx.name_type(root)
    if base_type is None:
        return out
    for ext, _t in ctx.extensions(base_type, 0):  # field-only extensions
        name = root.extend(ext)
        if ctx.is_pointer_name(name):
            out.append(name)
    return out


# -- uninitialized pointer use --------------------------------------------------


def find_uninit_uses(solution: MayAliasSolution) -> Iterator[Finding]:
    """``uninit-pointer-use``: a pointer-typed local (or pointer field
    of a local aggregate) read before any assignment must reach it.

    May-facts survive calls and writes through pointers (a callee can
    initialize a caller local only through an alias, which never
    *must* happen) — this over-approximation is what makes every
    dynamic uninitialized read coverable.
    """
    ctx = solution.ctx
    icfg = solution.icfg
    address_taken = _address_taken_bases(icfg)
    for proc, graph in icfg.procs.items():
        flow = _ProcFlow(icfg, proc)
        domain: set[ObjectName] = set()
        info = ctx.symbols.function(proc)
        for sym in info.locals:
            if sym.name.startswith("$"):
                continue
            domain.update(_pointer_paths(ctx, sym.uid))
        if not domain:
            continue

        def transfer(node, may_in, must_in, _domain=domain, _at=address_taken):
            access = node_access(node)
            may_out = set(may_in)
            must_out = set(must_in)
            for w in access.writes:
                weak = isinstance(node.stmt, PtrAssign) and node.stmt.weak
                for n in list(may_out):
                    if not weak and _strong_write(w, n):
                        may_out.discard(n)
                for n in list(must_out):
                    if _strong_write(w, n) or w.is_prefix(n) or n.is_prefix(w):
                        must_out.discard(n)
                    elif DEREF in w.selectors and solution.alias_query(node, w, n):
                        must_out.discard(n)
            if node.kind is NodeKind.CALL:
                # The callee may initialize anything reachable through
                # a pointer: drop address-taken names from the must set.
                for n in list(must_out):
                    if n.base in _at:
                        must_out.discard(n)
            return may_out, must_out

        state = _solve_forward(flow, transfer, set(domain), set(domain))
        for node in flow.nodes:
            may_in = state.may_in[node.nid]
            must_in = state.must_in[node.nid]
            if not may_in:
                continue
            for read in node_access(node).reads:
                if read not in domain or read not in may_in:
                    continue
                definite = read in must_in
                yield Finding(
                    rule=RULE_UNINIT,
                    severity="error" if definite else "warning",
                    message=(
                        f"pointer '{read}' is read but "
                        f"{'never initialized on any path' if definite else 'may be uninitialized'}"
                    ),
                    proc=proc,
                    node_id=node.nid,
                    span=node.span,
                    name=read,
                    confidence="definite" if definite else "possible",
                )


# -- null dereference ---------------------------------------------------------


def find_null_derefs(solution: MayAliasSolution) -> Iterator[Finding]:
    """``null-deref``: dereferencing a name that is definitely
    ('error') or possibly ('warning') null.

    Nullness is tracked per field-path name: ``NULL``/``0`` stores and
    zero-initialized globals (at the program entry procedure) generate
    it; address-of and allocator results clear it; copies propagate it;
    writes through may-aliases spread 'possible' and kill 'definite'.
    """
    ctx = solution.ctx
    icfg = solution.icfg
    address_taken = _address_taken_bases(icfg)
    global_paths: list[ObjectName] = []
    for sym in ctx.symbols.globals.values():
        if sym.kind is SymbolKind.GLOBAL:
            global_paths.extend(_pointer_paths(ctx, sym.uid))
    for proc, graph in icfg.procs.items():
        flow = _ProcFlow(icfg, proc)
        domain: set[ObjectName] = set(global_paths)
        info = ctx.symbols.function(proc)
        for sym in info.params + info.locals:
            domain.update(_pointer_paths(ctx, sym.uid))
        if not domain:
            continue
        witnesses: dict[tuple[int, ObjectName], str] = {}

        def rhs_nullness(rhs, may_in, must_in) -> tuple[bool, bool]:
            """(may be null, must be null) of an assignment RHS."""
            if isinstance(rhs, Opaque):
                if rhs.describe in _NULL_OPAQUES:
                    return True, True
                if rhs.describe in ALLOCATOR_NAMES:
                    return False, False
                return True, False  # unknown scalar-ish value
            if isinstance(rhs, AddrOf):
                return False, False
            name = rhs.name
            return name in may_in, name in must_in

        def transfer(node, may_in, must_in, _domain=domain, _at=address_taken):
            may_out = set(may_in)
            must_out = set(must_in)
            if isinstance(node.stmt, PtrAssign):
                stmt = node.stmt
                rhs_may, rhs_must = rhs_nullness(stmt.rhs, may_in, must_in)
                ambiguous = stmt.weak or DEREF in stmt.lhs.selectors
                if not ambiguous and stmt.lhs in _domain:
                    may_out.discard(stmt.lhs)
                    must_out.discard(stmt.lhs)
                    if rhs_may:
                        may_out.add(stmt.lhs)
                    if rhs_must:
                        must_out.add(stmt.lhs)
                else:
                    # The write may land on any alias of the target.
                    for n in _domain:
                        hit = n == stmt.lhs or solution.alias_query(
                            node, stmt.lhs, n
                        )
                        if not hit:
                            continue
                        must_out.discard(n)
                        if (
                            rhs_must
                            and not stmt.weak
                            and DEREF in stmt.lhs.selectors
                            and _must_query(solution, node, stmt.lhs, n)
                        ):
                            # A definitely-null value written through a
                            # must-alias of n: n is definitely null on
                            # every path past this store (a null write
                            # target traps, ending the path).
                            must_out.add(n)
                            witnesses[(node.nid, n)] = (
                                f"{stmt.lhs} == {n} (must)"
                            )
                        if rhs_may and n not in may_out:
                            may_out.add(n)
                            witnesses.setdefault(
                                (node.nid, n), f"{stmt.lhs} ~ {n}"
                            )
            elif node.kind is NodeKind.CALL:
                for n in list(must_out):
                    sym = ctx.base_symbol(n)
                    if n.base in _at or (sym is not None and sym.is_global):
                        must_out.discard(n)
            else:
                for w in node_access(node).writes:
                    for n in list(must_out):
                        if _strong_write(w, n) or n.is_prefix(w):
                            must_out.discard(n)
                    for n in list(may_out):
                        if _strong_write(w, n):
                            may_out.discard(n)
            return may_out, must_out

        entry_may: set[ObjectName] = set()
        entry_must: set[ObjectName] = set()
        if proc == icfg.entry_proc:
            entry_may.update(global_paths)
            entry_must.update(global_paths)
        state = _solve_forward(flow, transfer, entry_may, entry_must)
        for node in flow.nodes:
            may_in = state.may_in[node.nid]
            if not may_in:
                continue
            must_in = state.must_in[node.nid]
            for name in node_access(node).dereferenced():
                if name not in may_in:
                    continue
                definite = name in must_in
                witness = witnesses.get((node.nid, name))
                yield Finding(
                    rule=RULE_NULL_DEREF,
                    severity="error" if definite else "warning",
                    message=(
                        f"dereference of {'definitely' if definite else 'possibly'} "
                        f"null pointer '{name}'"
                    ),
                    proc=proc,
                    node_id=node.nid,
                    span=node.span,
                    name=name,
                    witnesses=(witness,) if witness else (),
                    confidence="definite" if definite else "possible",
                )


# -- dangling stack escapes ---------------------------------------------------


def _escaping_holder(ctx, proc: str, holder: ObjectName) -> bool:
    """Can ``holder`` name storage that outlives ``proc``'s activation?

    Globals and return slots survive directly (any dereference depth
    >= 1 means surviving storage points into the pair's other member);
    nonvisible tokens stand for caller storage; a formal's storage dies
    with the frame, but what it points *through* (>= 2 dereferences)
    is caller-reachable.
    """
    if holder.is_nonvisible:
        return holder.num_derefs >= 1 or holder.truncated
    sym = ctx.base_symbol(holder)
    if sym is None:
        return False
    if sym.is_global:
        return holder.num_derefs >= 1 or holder.truncated
    if sym.kind is SymbolKind.PARAM and sym.proc == proc:
        return holder.num_derefs >= 2 or (holder.truncated and holder.num_derefs >= 1)
    return False


def find_dangling_escapes(solution: MayAliasSolution) -> Iterator[Finding]:
    """``dangling-escape``: at a procedure's EXIT, storage that
    survives the return may still hold the address of a dying local.

    Read directly off the may-alias solution at the EXIT node: a pair
    ``(H, L)`` where ``L`` is frame storage of the exiting procedure
    (local or formal, field paths only) and ``H`` reaches it through
    surviving storage.  The program entry procedure is skipped —
    nothing runs after it returns.
    """
    ctx = solution.ctx
    icfg = solution.icfg
    for proc, graph in icfg.procs.items():
        if proc == icfg.entry_proc:
            continue
        escapes: list[tuple[str, ObjectName, ObjectName]] = []
        for pair in solution.may_alias(graph.exit):
            for dying, holder in (
                (pair.first, pair.second),
                (pair.second, pair.first),
            ):
                sym = ctx.base_symbol(dying)
                if sym is None or sym.is_global or sym.proc != proc:
                    continue
                if DEREF in dying.selectors or dying.truncated:
                    continue  # not the frame storage itself
                if _is_temp(ctx, dying):
                    continue
                if not _escaping_holder(ctx, proc, holder):
                    continue
                escapes.append((str(pair), dying, holder))
        # Fixed order: when several holders let one local escape, only
        # the first finding survives dedup, so the witness it reports
        # must not depend on set iteration order.
        escapes.sort(key=lambda escape: escape[0])
        for witness, dying, holder in escapes:
            definite = _must_query(solution, graph.exit, dying, holder)
            yield Finding(
                rule=RULE_DANGLING,
                severity="error",
                message=(
                    f"address of '{dying}' (stack storage of {proc}) "
                    f"escapes through '{holder}'"
                ),
                proc=proc,
                node_id=graph.exit.nid,
                span=graph.exit.span,
                name=dying,
                witnesses=(witness,),
                confidence="definite" if definite else "possible",
            )


# -- dead stores --------------------------------------------------------------


def find_dead_stores(solution: MayAliasSolution) -> Iterator[Finding]:
    """``dead-store``: alias-aware liveness says no name the store may
    define is read afterwards.  Return-slot writes (the value of a
    ``return``) and compiler temporaries are not reported."""
    ctx = solution.ctx
    live = LiveNames(solution)
    for node in live.dead_stores():
        access = node_access(node)
        target = access.writes[0]
        sym = ctx.base_symbol(target)
        if sym is not None and sym.kind is SymbolKind.RETURN_SLOT:
            continue
        if _is_temp(ctx, target):
            continue
        # A store is *definitely* dead when its target is unambiguous:
        # a plain (deref-free, untruncated) strong write, or a deref
        # whose storage the must pass pins down.  Weak or unresolved
        # writes may hit storage whose liveness the may-set over-kills.
        weak = isinstance(node.stmt, PtrAssign) and node.stmt.weak
        definite = not weak and (
            (DEREF not in target.selectors and not target.truncated)
            or _must_resolve(solution, node, target) is not None
        )
        yield Finding(
            rule=RULE_DEAD_STORE,
            severity="note",
            message=f"value stored to '{target}' is never read",
            proc=node.proc,
            node_id=node.nid,
            span=node.span,
            name=target,
            confidence="definite" if definite else "possible",
        )


# -- statement conflicts (parallelism report) ---------------------------------


def find_statement_conflicts(
    solution: MayAliasSolution, max_findings: int = 200
) -> Iterator[Finding]:
    """``stmt-conflict``: consecutive straight-line statements whose
    accesses may overlap *through aliasing*, so they cannot be
    reordered or parallelized ([LH88] conflicts, §2 of the paper).

    Conflicts between syntactically identical or containing names
    (``x = 1; y = x``) are visible without any alias analysis and are
    not reported — the report shows exactly the ordering constraints
    that exist *because of* pointers, which is also what makes the
    per-provider finding counts a precision measure.  Bounded by
    ``max_findings`` to keep lint time linear-ish on generated
    programs."""
    conflicts = ConflictAnalysis(solution)
    emitted = 0
    for node in solution.icfg.nodes:
        if node.kind not in (NodeKind.ASSIGN, NodeKind.OTHER):
            continue
        if not node_access(node).touches_memory:
            continue
        for succ in node.succs:
            if succ.proc != node.proc:
                continue
            if succ.kind not in (NodeKind.ASSIGN, NodeKind.OTHER):
                continue
            if not node_access(succ).touches_memory:
                continue
            found = conflicts.conflict(node, succ)
            if found is None:
                continue
            if found.written == found.accessed or ConflictAnalysis._contains(
                found.written, found.accessed
            ):
                continue  # alias-free dependence; not alias news
            definite = _must_query(
                solution, node, found.written, found.accessed
            )
            yield Finding(
                rule=RULE_CONFLICT,
                severity="note",
                message=(
                    f"{found.kind} conflict: cannot reorder with the "
                    f"previous statement ('{found.written}' vs "
                    f"'{found.accessed}')"
                ),
                proc=succ.proc,
                node_id=succ.nid,
                span=succ.span,
                name=found.written,
                witnesses=(str(found),),
                confidence="definite" if definite else "possible",
            )
            emitted += 1
            if emitted >= max_findings:
                return

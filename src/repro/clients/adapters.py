"""Alias-provider adapters for client analyses.

Client analyses (:mod:`repro.clients.reaching_defs`,
:mod:`repro.clients.conflicts`) consume the small query surface of
:class:`MayAliasSolution`.  This module adapts the baselines to the
same surface so downstream precision can be compared — the paper's
motivation ("the precision of aliases greatly affects the quality of
optimized code") made measurable.
"""

from __future__ import annotations

from typing import Iterable

from ..baselines.andersen import AndersenResult
from ..baselines.weihl import WeihlResult
from ..core.solution import represented
from ..frontend.semantics import AnalyzedProgram
from ..icfg.graph import ICFG
from ..icfg.ir import Node
from ..names.alias_pairs import AliasPair
from ..names.context import NameContext
from ..names.object_names import ObjectName


class WeihlBackedSolution:
    """Presents a Weihl program-alias relation through the
    MayAliasSolution query surface (every node sees the same aliases —
    that is exactly Weihl's flow-insensitivity)."""

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        icfg: ICFG,
        weihl: WeihlResult,
        k: int = 3,
    ) -> None:
        self.icfg = icfg
        self.ctx = NameContext(analyzed.symbols, k)
        self.k = k
        self._aliases = weihl.aliases
        self._by_name = _member_index(weihl.aliases)

    def may_alias(self, node: Node | int) -> set[AliasPair]:
        """The whole program relation (same at every node)."""
        return set(self._aliases)

    def may_alias_names(self, node: Node | int, name: ObjectName) -> set[ObjectName]:
        """Names aliased to ``name`` program-wide."""
        return {pair.other(name) for pair in self._by_name.get(name, ())}

    def pairs_with_member(
        self, node: Node | int, name: ObjectName
    ) -> Iterable[AliasPair]:
        """Program-wide pairs that have ``name`` as a member."""
        return self._by_name.get(name, ())

    def alias_query(self, node: Node | int, a: ObjectName, b: ObjectName) -> bool:
        """Program-wide alias query with truncated-representative
        coverage, read through the member index."""
        return represented(self, node, a, b)


class AndersenBackedSolution:
    """Presents the Andersen-style points-to baseline through the
    MayAliasSolution query surface.

    Andersen's abstraction is field-insensitive: an alias ``(*p, *q)``
    (same points-to sets) stands for aliasing at *any* selector depth
    below the variables, so ``alias_query`` widens each queried name to
    its first-deref form.  Flow-insensitive like Weihl: every node sees
    the same relation.
    """

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        icfg: ICFG,
        andersen: AndersenResult,
        k: int = 3,
    ) -> None:
        self.icfg = icfg
        self.ctx = NameContext(analyzed.symbols, k)
        self.k = k
        self._aliases = andersen.aliases
        # Exact members, for clients that extend stored names (the
        # conflict prefix walk); the coarse per-base map below is what
        # ``alias_query``/``may_alias_names`` answer from.
        self._by_member = _member_index(andersen.aliases)
        self._by_base: dict[str, set[str]] = {}
        for pair in andersen.aliases:
            self._by_base.setdefault(pair.first.base, set()).add(pair.second.base)
            self._by_base.setdefault(pair.second.base, set()).add(pair.first.base)

    def _bases_alias(self, a: ObjectName, b: ObjectName) -> bool:
        """Do the two names dereference variables with intersecting
        points-to sets?  Only deref-bearing names denote
        pointed-to storage (bare ``a``/``b`` never alias here)."""
        from ..names.object_names import DEREF

        if DEREF not in a.selectors and not a.truncated:
            return False
        if DEREF not in b.selectors and not b.truncated:
            return False
        return b.base in self._by_base.get(a.base, ())

    def may_alias(self, node: Node | int) -> set[AliasPair]:
        """The whole-program relation (flow-insensitive)."""
        return set(self._aliases)

    def may_alias_names(self, node: Node | int, name: ObjectName) -> set[ObjectName]:
        """Names aliased to ``name`` program-wide, at the coarse
        one-deref-per-variable granularity."""
        from ..names.object_names import DEREF

        if DEREF not in name.selectors and not name.truncated:
            return set()
        return {
            ObjectName(base).deref() for base in self._by_base.get(name.base, ())
        }

    def pairs_with_member(
        self, node: Node | int, name: ObjectName
    ) -> Iterable[AliasPair]:
        """Program-wide pairs that have ``name`` as a member (exact
        names, unlike the coarse :meth:`may_alias_names`)."""
        return self._by_member.get(name, ())

    def alias_query(self, node: Node | int, a: ObjectName, b: ObjectName) -> bool:
        """Coarse query: may the storage below ``a``'s and ``b``'s base
        variables overlap?"""
        return self._bases_alias(a, b)


def _member_index(aliases: Iterable[AliasPair]) -> dict[ObjectName, list[AliasPair]]:
    """name -> the pairs that have it as a member."""
    index: dict[ObjectName, list[AliasPair]] = {}
    for pair in aliases:
        index.setdefault(pair.first, []).append(pair)
        if pair.second != pair.first:
            index.setdefault(pair.second, []).append(pair)
    return index

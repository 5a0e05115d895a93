"""[must, may] precision intervals.

An :class:`IntervalSolution` pairs any may-provider (LR solution,
Weihl- or Andersen-backed adapter — anything exposing the
``MayAliasSolution`` surface) with a :class:`MustAliasSolution`.  The
two bounds bracket the exact alias relation at every node::

    must_pairs(n)  <=  exact aliases at n  <=  may_alias(n)

May-side queries delegate unchanged (so the interval is a drop-in
provider for the lint engine); the must side adds ``must_alias``,
``must_pairs`` and ``must_resolve``; ``interval(node, a, b)`` answers
both at once.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple, Union

from ..icfg.graph import Node
from ..names.object_names import ObjectName
from .solution import MustAliasSolution


class IntervalSolution:
    """A may-provider enriched with must-alias lower bounds."""

    def __init__(self, may, must: MustAliasSolution) -> None:
        self.may = may
        self.must = must

    # -- may side (the provider surface lint already consumes) ---------------

    @property
    def icfg(self):
        return self.may.icfg

    @property
    def ctx(self):
        return self.may.ctx

    @property
    def k(self) -> int:
        return self.may.k

    @property
    def complete(self) -> bool:
        return self.may.complete

    def may_alias(self, node):
        return self.may.may_alias(node)

    def may_alias_names(self, node, name):
        return self.may.may_alias_names(node, name)

    def pairs_with_member(self, node, name):
        return self.may.pairs_with_member(node, name)

    def alias_query(self, node, a, b) -> bool:
        return self.may.alias_query(node, a, b)

    def __getattr__(self, attr: str):
        # Everything else (store, engine, budget, stats helpers...)
        # falls through to the may provider.
        return getattr(self.may, attr)

    # -- must side -----------------------------------------------------------

    def must_alias(
        self, node: Union[Node, int], a: ObjectName, b: ObjectName
    ) -> bool:
        return self.must.must_alias(node, a, b)

    def must_pairs(self, node: Union[Node, int]) -> frozenset:
        return self.must.must_pairs(node)

    def must_resolve(
        self, node: Union[Node, int], name: ObjectName
    ) -> Optional[ObjectName]:
        return self.must.must_resolve(node, name)

    def must_alias_names(
        self, node: Union[Node, int], name: ObjectName
    ) -> Set[ObjectName]:
        return self.must.must_alias_names(node, name)

    # -- the interval itself -------------------------------------------------

    def interval(
        self, node: Union[Node, int], a: ObjectName, b: ObjectName
    ) -> Tuple[bool, bool]:
        """``(must, may)`` for one name pair.  ``(True, False)`` is
        impossible when both engines are sound — the difftest
        ``must_subset_lr`` edge pins exactly that."""
        return (
            self.must.must_alias(node, a, b),
            self.may.alias_query(node, a, b),
        )

    def interval_counts(self, node: Union[Node, int]) -> Tuple[int, int]:
        """``(|must_pairs|, |may_pairs|)`` after ``node`` — the
        interval width at a node is ``may - must``."""
        return len(self.must.must_pairs(node)), len(self.may.may_alias(node))

    def stats_dict(self) -> dict:
        """The may provider's stats document with an additive ``must``
        block and whole-program interval counts."""
        stats = dict(self.may.stats_dict())
        must_total = self.must.total_pairs()
        may_total = sum(
            len(self.may.may_alias(node)) for node in self.may.icfg.nodes
        )
        stats["must"] = self.must.stats_dict()
        stats["interval"] = {
            "must_node_pairs": must_total,
            "may_node_pairs": may_total,
            "width": may_total - must_total,
        }
        return stats

"""Statement conflict detection ([LH88], quoted in the paper's §2).

A *conflict* occurs between two statements when one statement writes a
location and the other accesses (reads or writes) the same location,
preventing the two statements from being executed in arbitrary order.
With pointers, "the same location" is exactly a may-alias question —
this client is the parallelizer/optimizer use case the paper's
introduction motivates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..core.solution import MayAliasSolution
from ..icfg.ir import Node
from ..names.object_names import ObjectName, interned_prefixes
from .accesses import Access, node_access


@dataclass(frozen=True, slots=True)
class Conflict:
    """A write/access conflict between two ICFG nodes."""

    writer: Node
    other: Node
    written: ObjectName
    accessed: ObjectName
    kind: str  # "write-write" | "write-read"

    def __str__(self) -> str:
        return (
            f"{self.kind}: n{self.writer.nid} writes {self.written}, "
            f"n{self.other.nid} accesses {self.accessed}"
        )


class ConflictAnalysis:
    """Answers conflict queries against a may-alias solution."""

    def __init__(self, solution: MayAliasSolution) -> None:
        self.solution = solution

    @staticmethod
    def _contains(a: ObjectName, b: ObjectName) -> bool:
        """Do the two names denote overlapping *storage*?  Field-path
        containment only: ``s`` contains ``s.f``, but ``p`` does NOT
        contain ``*p`` (a dereference moves to different storage)."""
        for outer, inner in ((a, b), (b, a)):
            if outer.is_prefix(inner):
                from ..names.object_names import DEREF

                if DEREF not in inner.suffix_after(outer):
                    return True
        return False

    def names_may_overlap(self, a: ObjectName, b: ObjectName, at: Node) -> bool:
        """May names ``a`` and ``b`` denote overlapping storage at
        ``at``?  Same name, field-path containment (writing ``s.f``
        writes part of ``s``), or a may-alias."""
        if a == b or self._contains(a, b):
            return True
        if self.solution.alias_query(at, a, b):
            return True
        # An access to `a` also touches any name reached through an
        # alias of a *prefix* of `a` (writing p->f clobbers q->f when
        # p == q) — checked for both arguments so the predicate is
        # symmetric.  Only pairs with a member that is a prefix of the
        # name can match, so read just those members' index buckets.
        for this, other in ((a, b), (b, a)):
            for x in interned_prefixes(this):
                suffix = this.selectors[len(x.selectors):]
                for stored in self.solution.pairs_with_member(at, x):
                    image = stored.other(x).extend(suffix)
                    if image == other or self._contains(image, other):
                        return True
        return False

    def _overlap_either(self, a: ObjectName, b: ObjectName, n1: Node, n2: Node) -> bool:
        """Overlap at either statement's program point — symmetric, so
        conflict(a, b) == conflict(b, a)."""
        return self.names_may_overlap(a, b, n1) or self.names_may_overlap(a, b, n2)

    def conflict(self, first: Node, second: Node) -> Optional[Conflict]:
        """The first conflict found between two nodes, if any."""
        acc1 = node_access(first)
        acc2 = node_access(second)
        for written in acc1.writes:
            for accessed in acc2.writes:
                if self._overlap_either(written, accessed, first, second):
                    return Conflict(first, second, written, accessed, "write-write")
            for accessed in acc2.reads:
                if self._overlap_either(written, accessed, first, second):
                    return Conflict(first, second, written, accessed, "write-read")
        for written in acc2.writes:
            for accessed in acc1.reads:
                if self._overlap_either(written, accessed, first, second):
                    return Conflict(second, first, written, accessed, "write-read")
        return None

    def conflicts_in(self, nodes: list[Node]) -> Iterator[Conflict]:
        """All pairwise conflicts among ``nodes``."""
        for i, first in enumerate(nodes):
            for second in nodes[i + 1:]:
                found = self.conflict(first, second)
                if found is not None:
                    yield found

    def reorderable(self, first: Node, second: Node) -> bool:
        """May the two statements be executed in arbitrary order?"""
        return self.conflict(first, second) is None

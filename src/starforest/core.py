"""Vertex, edge, star and decomposition primitives shared by every other module.

Vertices are dense integers ``0..n-1``.  Structured display labels (coordinate
triples over GF(3), block labels of the 12m+4 layout) are a presentation layer
attached through :class:`LabelScheme`; they never change how edges are stored.
"""

from __future__ import annotations

from typing import NamedTuple

Edge = tuple[int, int]


class DecompositionError(Exception):
    """Base class for all structured errors raised by this package."""


class MalformedStarError(DecompositionError):
    pass


class LabelSchemeError(DecompositionError):
    pass


class PreconditionError(DecompositionError):
    pass


class NotApplicableError(DecompositionError):
    """An operation whose hypotheses exclude the given input."""


def complete_graph_edges(n: int) -> list[Edge]:
    """All n(n-1)/2 edges of the complete graph on {0..n-1} in lexicographic order."""
    if n < 1:
        raise PreconditionError("complete graph needs at least one vertex")
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


class CheckedRecord:
    """Base of a record whose ``__new__`` checks its fields: ``_make``, so ``_replace``, builds through it."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class Star(CheckedRecord, NamedTuple("Star", [("center", int), ("leaves", tuple[int, ...])])):
    """One center adjacent to every leaf.  Leaf order is preserved."""

    __slots__ = ()

    def __new__(cls, center: int, leaves: tuple[int, ...]) -> Star:
        if type(leaves) is not tuple:
            leaves = tuple(leaves)
        # the common case in one test: a leaf, no negative id and no vertex twice
        if not (leaves and center >= 0 and min(leaves) >= 0 and len({center, *leaves}) == len(leaves) + 1):
            if center < 0 or (leaves and min(leaves) < 0):
                raise MalformedStarError(f"negative vertex id in star centered at {center}")
            if not leaves:
                raise MalformedStarError(f"star centered at {center} has no leaves")
            if center in leaves:
                raise MalformedStarError(f"star with center {center} lists the center as a leaf")
            if len(set(leaves)) != len(leaves):
                raise MalformedStarError(f"star with center {center} repeats a leaf")
        return tuple.__new__(cls, (center, leaves))


class StarForest(CheckedRecord, NamedTuple("StarForest", [("stars", tuple[Star, ...])])):
    """Disjoint union of stars.

    Disjointness of the component stars is *not* enforced on construction so
    that broken inputs can be represented and diagnosed;
    ``verify.validate_decomposition`` reports overlaps.
    """

    __slots__ = ()

    def __new__(cls, stars: tuple[Star, ...]) -> StarForest:
        return tuple.__new__(cls, (tuple(stars),))

    @property
    def centers(self) -> tuple[int, ...]:
        return tuple(s.center for s in self.stars)

    def edge_count(self) -> int:
        return sum(len(s.leaves) for s in self.stars)


_SCHEME_NAMES = ("plain", "f3cube", "block12m4")


class LabelScheme(CheckedRecord, NamedTuple("LabelScheme", [("name", str), ("param", int | None)])):
    """Bijection between integer vertex ids and human-readable labels.

    * ``plain``      -- labels are the ids themselves, any n.
    * ``f3cube``     -- (i,j,k) over {0,1,2}^3 mapped to 9i+3j+k, n = 27.
    * ``block12m4``  -- blocks A_0..A_m, B_0..B_{m-1}, C_0..C_{m-1} of size 4,
      A_x(i) -> 12x+i, B_x(i) -> 12x+4+i, C_x(i) -> 12x+8+i, n = 12m+4.
    """

    __slots__ = ()

    def __new__(cls, name: str, param: int | None = None) -> LabelScheme:
        if name not in _SCHEME_NAMES:
            raise LabelSchemeError(f"unknown label scheme {name!r}")
        if name == "block12m4":
            if param is None or param < 1:
                raise LabelSchemeError("block12m4 needs a block parameter m >= 1")
        elif param is not None:
            raise LabelSchemeError(f"label scheme {name!r} takes no parameter")
        return tuple.__new__(cls, (name, param))

    def expected_n(self) -> int | None:
        if self.name == "f3cube":
            return 27
        if self.param is not None:  # only block12m4 takes one
            return 12 * self.param + 4
        return None

    def label(self, v: int) -> str:
        if self.name == "f3cube":
            return f"({v // 9},{v // 3 % 3},{v % 3})"
        if self.name == "block12m4":
            block, offset = divmod(v, 12)
            if offset < 4:
                return f"A{block}({offset})"
            if offset < 8:
                return f"B{block}({offset - 4})"
            return f"C{block}({offset - 8})"
        return str(v)


class Decomposition(CheckedRecord, NamedTuple("Decomposition", [
        ("n", int), ("k", int), ("forests", tuple[StarForest, ...]), ("labels", LabelScheme | None)])):
    """Claimed partition of E(K_n) into star forests with at most k stars each.

    The claim is checked by ``verify.validate_decomposition``, not here.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, forests: tuple[StarForest, ...], labels: LabelScheme | None = None) -> Decomposition:
        forests = tuple(forests)
        if n < 1:
            raise PreconditionError("decomposition needs at least one vertex")
        if k < 1:
            raise PreconditionError("component bound k must be at least 1")
        return tuple.__new__(cls, (n, k, forests, labels))

    @property
    def forest_count(self) -> int:
        return len(self.forests)

    def label(self, v: int) -> str:
        """Vertex ``v`` under the label scheme, or ``str(v)`` when there is none."""
        return self.labels.label(v) if self.labels is not None else str(v)

    def total_edge_slots(self) -> int:
        return sum(f.edge_count() for f in self.forests)

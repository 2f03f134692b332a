"""Vertex, edge, star and decomposition primitives shared by every other module.

Vertices are dense integers ``0..n-1``.  Structured display labels (coordinate
triples over GF(3), block labels of the 12m+4 layout) are a presentation layer
attached through :class:`LabelScheme`; they never change how edges are stored.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

Edge = tuple[int, int]


class DecompositionError(Exception):
    """Base class for all structured errors raised by this package."""


class MalformedStarError(DecompositionError):
    pass


class MalformedForestError(DecompositionError):
    pass


class LabelSchemeError(DecompositionError):
    pass


class PreconditionError(DecompositionError):
    pass


class NotApplicableError(DecompositionError):
    """An operation whose hypotheses exclude the given input."""


def make_edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an edge; self-loops are rejected."""
    if u == v:
        raise MalformedStarError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def complete_graph_edges(n: int) -> list[Edge]:
    """All n(n-1)/2 edges of the complete graph on {0..n-1} in lexicographic order."""
    if n < 1:
        raise PreconditionError("complete graph needs at least one vertex")
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@dataclass(frozen=True)
class Star:
    """One center adjacent to every leaf.  Leaf order is preserved."""

    center: int
    leaves: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "leaves", tuple(self.leaves))
        if self.center < 0 or any(l < 0 for l in self.leaves):
            raise MalformedStarError(f"negative vertex id in star centered at {self.center}")
        if not self.leaves:
            raise MalformedStarError(f"star centered at {self.center} has no leaves")
        if self.center in self.leaves:
            raise MalformedStarError(f"star with center {self.center} lists the center as a leaf")
        if len(set(self.leaves)) != len(self.leaves):
            raise MalformedStarError(f"star with center {self.center} repeats a leaf")

    def edges(self) -> list[Edge]:
        return [make_edge(self.center, leaf) for leaf in self.leaves]


@dataclass(frozen=True)
class StarForest:
    """Disjoint union of stars.

    Disjointness of the component stars is *not* enforced on construction so
    that broken inputs can be represented and diagnosed; :func:`forest_edges`
    and the validator reject overlaps.
    """

    stars: tuple[Star, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "stars", tuple(self.stars))

    @property
    def centers(self) -> tuple[int, ...]:
        return tuple(s.center for s in self.stars)

    def edge_count(self) -> int:
        return sum(len(s.leaves) for s in self.stars)


def forest_edges(forest: StarForest) -> list[Edge]:
    """Canonical edges of a star forest, in star/leaf traversal order.

    Raises:
        MalformedForestError: if two stars of the forest share a vertex.
    """
    seen: set[int] = set()
    out: list[Edge] = []
    for star in forest.stars:
        for v in (star.center, *star.leaves):
            if v in seen:
                raise MalformedForestError(f"vertex {v} appears in more than one star")
            seen.add(v)
        out.extend(star.edges())
    return out


_SCHEME_NAMES = ("plain", "f3cube", "block12m4")


@dataclass(frozen=True)
class LabelScheme:
    """Bijection between integer vertex ids and human-readable labels.

    * ``plain``      -- labels are the ids themselves, any n.
    * ``f3cube``     -- (i,j,k) over {0,1,2}^3 mapped to 9i+3j+k, n = 27.
    * ``block12m4``  -- blocks A_0..A_m, B_0..B_{m-1}, C_0..C_{m-1} of size 4,
      A_x(i) -> 12x+i, B_x(i) -> 12x+4+i, C_x(i) -> 12x+8+i, n = 12m+4.
    """

    name: str
    param: int | None = None

    def __post_init__(self) -> None:
        if self.name not in _SCHEME_NAMES:
            raise LabelSchemeError(f"unknown label scheme {self.name!r}")
        if self.name == "block12m4":
            if self.param is None or self.param < 1:
                raise LabelSchemeError("block12m4 needs a block parameter m >= 1")
        elif self.param is not None:
            raise LabelSchemeError(f"label scheme {self.name!r} takes no parameter")

    def expected_n(self) -> int | None:
        if self.name == "f3cube":
            return 27
        if self.name == "block12m4":
            assert self.param is not None
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


@dataclass(frozen=True)
class Decomposition:
    """Claimed partition of E(K_n) into star forests with at most k stars each.

    The claim is checked by ``verify.validate_decomposition``, not here.
    """

    n: int
    k: int
    forests: tuple[StarForest, ...]
    labels: LabelScheme | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "forests", tuple(self.forests))
        if self.n < 1:
            raise PreconditionError("decomposition needs at least one vertex")
        if self.k < 1:
            raise PreconditionError("component bound k must be at least 1")

    @property
    def forest_count(self) -> int:
        return len(self.forests)

    def total_edge_slots(self) -> int:
        return sum(f.edge_count() for f in self.forests)


def relabel(d: Decomposition, scheme: LabelScheme) -> Decomposition:
    """Attach a label scheme to a decomposition.  Pure metadata: edges unchanged."""
    expected = scheme.expected_n()
    if expected is not None and expected != d.n:
        raise LabelSchemeError(
            f"label scheme {scheme.name!r} describes n={expected}, decomposition has n={d.n}"
        )
    return replace(d, labels=scheme)

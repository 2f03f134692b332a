"""Decide whether a candidate object really partitions E(K_n) into k-star-forests,
and compute the root-hypergraph diagnostics behind the counting lower bounds.

The root-hypergraph of a forest collection has one hyperedge per forest,
containing exactly that forest's star centers.  Its read-only degree table
and its degree profile, which carries the hypergraph, feed three checks:

* no-isolated-vertex (holds whenever fewer than n-1 forests are used),
* the two center-placement conditions for degree-1 vertices,
* the bipartite double-count inequality 2*p1 - r <= p2 + sum_{j>=3} j*p_j and
  its aggregate consequence 5n - 9m + 2r <= -sum_{j>=3} (2j-5)*p_j.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import chain, compress, filterfalse, repeat
from types import MappingProxyType
from typing import NamedTuple

from .core import (
    Decomposition,
    Edge,
    NotApplicableError,
    PreconditionError,
)


class MissingEdges:
    """The edges of K_n that a claim leaves uncovered, in lexicographic order.

    Lazy: the object holds only the covered edges of K_n, each as the key
    ``u*n + v`` (u < v < n), so its memory follows the input and not n².
    ``size`` is the exact count, found by arithmetic; ``len()`` is the same,
    but Python raises ``OverflowError`` past ``sys.maxsize``, so read ``size``
    where n may be that large.  ``bool()`` tells whether any edge is missing.
    Iteration and ``rows()`` walk the rows on demand, so ``islice(missing,
    20)`` costs 20 edges even for an empty claim with a huge header; there is
    no indexing.  Two objects are equal when they miss the same edges of the
    same K_n.
    """

    __slots__ = ("n", "size", "_covered")

    def __init__(self, n: int, covered: set[int]) -> None:
        self.n = n
        self._covered = covered
        self.size = n * (n - 1) // 2 - len(covered)

    def rows(self) -> Iterator[tuple[int, Iterable[int]]]:
        """Each row u with a missing edge, with the missing upper ends v > u in order.

        A row with no covered edge is a ``range``; a full row is skipped.  The
        covered count of each row is taken here, one pass over the keys.
        """
        n, covered = self.n, self._covered
        if not self.size:
            return
        per_row = Counter(map(n.__rfloordiv__, covered))
        for u in range(n - 1):
            got = per_row.get(u)
            if got is None:
                yield u, range(u + 1, n)
            elif got < n - 1 - u:
                un = u * n
                yield u, map((-un).__add__, filterfalse(covered.__contains__, range(un + u + 1, un + n)))

    def __iter__(self) -> Iterator[Edge]:
        for u, vs in self.rows():
            yield from zip(repeat(u), vs)

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MissingEdges):
            return NotImplemented
        return self.n == other.n and self._covered == other._covered

    def __hash__(self) -> int:
        return hash((self.n, self.size))

    def __repr__(self) -> str:
        return f"MissingEdges(n={self.n}, size={self.size})"


class CoverageReport(NamedTuple):
    """How a claim covers E(K_n).

    ``missing`` is lazy (see ``MissingEdges``): iterate it for the edges, read
    ``size`` (or ``len``) for their count and ``bool`` for whether there are
    any, and take a prefix with ``itertools.islice``, so no reader pays for
    listing the n² edges of an empty claim.  ``duplicated`` holds each edge
    covered more than once, endpoints outside K_n included, with its count.
    """

    total_edges: int
    missing: MissingEdges
    duplicated: tuple[tuple[Edge, int], ...]


class ValidationReport(NamedTuple("ValidationReport", [
        ("ok", bool), ("malformed", tuple[str, ...]), ("k_violations", tuple[int, ...]),
        ("coverage", CoverageReport), ("decomposition", Decomposition)])):
    """The verdict on ``decomposition``, which the report names so a check handed it needs nothing else."""

    # no __slots__: cached_property keeps its value in the instance __dict__

    @cached_property
    def hypergraph(self) -> RootHypergraph:
        """The root-hypergraph of ``decomposition``, built on first read, so its readers share one."""
        return root_hypergraph(self.decomposition)


def _repeats(items: Iterable) -> Iterator[tuple]:
    """Each item listed more than once in ``items``, with its count."""
    counts = Counter(items)
    return compress(counts.items(), map((1).__lt__, counts.values()))


def validate_decomposition(d: Decomposition) -> ValidationReport:
    """Full check: structure and exact single coverage of E(K_n), in one pass.

    Each forest is checked a star at a time: ``seen`` takes a star's center
    and leaves at once, so overlapping stars and ids >= n show in its size
    and maximum.  A sound forest lists each edge as the key ``u*n + v``
    (u < v), one edge of K_n (``Star`` rules out negative ids); ``covered`` is
    the set of those keys, and a key listed twice is an edge covered twice.
    Any other forest is walked vertex by vertex, to word each fault as
    malformed and set each edge with an end >= n apart in ``stray`` (only a
    claim built in code has one, as ``parse`` rejects it).  Malformed stays
    separate from coverage, so downstream placement checks can trust the
    shape of anything that passes.
    """
    n = d.n
    malformed: list[str] = []
    keys: list[int] = []  # each covered edge of K_n, once per copy
    push = keys.append
    stray: list[Edge] = []  # each covered edge with an endpoint >= n
    for fi, forest in enumerate(d.forests):
        stars = forest.stars
        seen: set[int] = set()
        count = 0  # vertex occurrences in the forest
        for star in stars:
            seen.add(star.center)
            seen.update(star.leaves)
            count += 1 + len(star.leaves)
        if len(seen) == count and (not seen or max(seen) < n):
            for star in stars:
                c = star.center
                cn = c * n
                for v in star.leaves:
                    push(cn + v if c < v else v * n + c)
            continue
        seen.clear()
        for star in stars:
            c = star.center
            for v in (c, *star.leaves):
                if v >= n:
                    malformed.append(f"forest {fi}: vertex {v} out of range for n={n}")
                if v in seen:
                    malformed.append(f"forest {fi}: vertex {v} appears in more than one star")
                seen.add(v)
            for leaf in star.leaves:
                u, v = (c, leaf) if c < leaf else (leaf, c)
                if v < n:
                    push(u * n + v)
                else:
                    stray.append((u, v))
    k_violations = tuple(fi for fi, f in enumerate(d.forests) if len(f.stars) > d.k)

    covered = set(keys)
    copies = [(divmod(key, n), c) for key, c in _repeats(keys)] if len(covered) < len(keys) else []
    duplicated = tuple(sorted(copies + list(_repeats(stray)) if stray else copies))
    missing = MissingEdges(n, covered)
    coverage = CoverageReport(total_edges=n * (n - 1) // 2, missing=missing, duplicated=duplicated)
    ok = not malformed and not k_violations and not missing and not duplicated
    return ValidationReport(ok, tuple(malformed), k_violations, coverage, decomposition=d)


class RootHypergraph(NamedTuple("RootHypergraph", [("n", int), ("hyperedges", tuple[frozenset[int], ...])])):
    # no __slots__: cached_property keeps its value in the instance __dict__

    @property
    def m(self) -> int:
        return len(self.hyperedges)

    @cached_property
    def degree(self) -> MappingProxyType[int, int]:
        """Each center -> the hyperedges through it, read-only; sparse, a vertex of degree 0 reads 0."""
        return MappingProxyType(Counter(chain.from_iterable(self.hyperedges)))

    def __reduce__(self):  # pickle cannot copy a read-only view, so a copy builds its own table
        return type(self), tuple(self)


def root_hypergraph(d: Decomposition) -> RootHypergraph:
    """One hyperedge per forest, holding exactly that forest's centers."""
    return RootHypergraph(d.n, tuple(frozenset(s.center for s in f.stars) for f in d.forests))


class IsolationReport(NamedTuple("IsolationReport", [
        ("applicable", bool), ("ok", bool), ("hypergraph", RootHypergraph)])):
    """``applicable``: only forced when m < n-1.  The report compares and hashes by ``hypergraph``."""

    @cached_property
    def isolated(self) -> tuple[int, ...]:
        """The vertices no hyperedge holds, in order, listed on first read only."""
        return tuple(filterfalse(self.hypergraph.degree.__contains__, range(self.hypergraph.n)))


def check_no_isolated(rh: RootHypergraph) -> IsolationReport:
    """Every vertex must be some star's center when fewer than n-1 forests are used."""
    applicable = rh.m < rh.n - 1
    return IsolationReport(applicable=applicable, ok=not applicable or len(rh.degree) == rh.n, hypergraph=rh)


class DegreeProfile(NamedTuple):
    """The degree counts of ``hypergraph``, which the profile was read from; m is ``hypergraph.m``."""

    hypergraph: RootHypergraph
    r: int  # number of size-2 hyperedges
    p: MappingProxyType[int, int]  # degree (>= 1) -> vertex count, read-only, ascending
    isolated: int
    degree_sum: int

    def __reduce__(self):  # as for the hypergraph, a copy reads ``p`` again
        return degree_profile, (self.hypergraph,)


def degree_profile(rh: RootHypergraph) -> DegreeProfile:
    """Exact degree counts of the root-hypergraph, read from its degree table.

    ``isolated`` is n minus the table's size, which is right only while the
    table names vertices of K_n alone; when every hyperedge has size 2 or 3
    the degree sum also equals 3m - r.  Both are checked, also under
    ``python -O``.
    """
    degree = rh.degree
    if degree and (min(degree) < 0 or max(degree) >= rh.n):
        raise AssertionError(f"degree table names a vertex outside 0..{rh.n - 1}")
    degree_sum = sum(degree.values())
    r = sum(1 for e in rh.hyperedges if len(e) == 2)
    sizes = {len(e) for e in rh.hyperedges}
    if sizes <= {2, 3} and degree_sum != 3 * rh.m - r:
        raise AssertionError(f"degree sum {degree_sum} != 3m - r = {3 * rh.m - r}")
    p = MappingProxyType(dict(sorted(Counter(degree.values()).items())))
    return DegreeProfile(hypergraph=rh, r=r, p=p, isolated=rh.n - len(degree), degree_sum=degree_sum)


class CountingReport(NamedTuple):
    lhs: int  # 2*p1 - r, lower bound on the bipartite edge count
    rhs: int  # p2 + sum_{j>=3} j*p_j, upper bound on the bipartite edge count
    slack: int
    bipartite_edge_count: int  # degree-1 to degree->=2 pairs sharing a hyperedge
    counting_lhs: int  # 5n - 9m + 2r
    counting_rhs: int  # -sum_{j>=3}(2j-5)*p_j
    counting_slack: int
    ok: bool


def check_counting_inequality(prof: DegreeProfile) -> CountingReport:
    """Numeric slack on both counting inequalities of ``prof.hypergraph``.

    The bipartite graph joins each degree-1 vertex to each degree->=2 vertex
    it shares a hyperedge with; only its edge count enters the report.  The
    hyperedges and degrees are those of the hypergraph ``prof`` was read from.

    Raises:
        NotApplicableError: if some hyperedge has more than 3 or fewer than 2
            vertices (a lone center contributes no bipartite edge, which breaks
            the lower bound on the edge count).
    """
    rh = prof.hypergraph
    sizes = [len(e) for e in rh.hyperedges]
    if any(s > 3 for s in sizes):
        raise NotApplicableError("root-hypergraph has a hyperedge larger than 3")
    if any(s < 2 for s in sizes):
        raise NotApplicableError("root-hypergraph has a hyperedge smaller than 2")

    ones = [sum(rh.degree[v] == 1 for v in e) for e in rh.hyperedges]  # degree-1 vertices per hyperedge
    bipartite_edge_count = sum(o * (s - o) for o, s in zip(ones, sizes))

    lhs = 2 * prof.p.get(1, 0) - prof.r
    rhs = prof.p.get(2, 0) + sum(j * c for j, c in prof.p.items() if j >= 3)
    counting_lhs = 5 * rh.n - 9 * rh.m + 2 * prof.r
    counting_rhs = -sum((2 * j - 5) * c for j, c in prof.p.items() if j >= 3)
    return CountingReport(
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        bipartite_edge_count=bipartite_edge_count,
        counting_lhs=counting_lhs,
        counting_rhs=counting_rhs,
        counting_slack=counting_rhs - counting_lhs,
        ok=lhs <= rhs and counting_lhs <= counting_rhs,
    )


class Degree1PlacementReport(NamedTuple):
    ok: bool
    # hyperedges containing two degree-1 vertices: (forest index, offending vertices)
    shared_degree1: tuple[tuple[int, tuple[int, ...]], ...]
    # degree-2 vertices whose two hyperedges both reach into the degree-1 set
    pinched_degree2: tuple[tuple[int, int, int], ...]


def check_degree1_placement(report: ValidationReport) -> Degree1PlacementReport:
    """Center-placement conditions on degree-1 vertices of a valid decomposition.

    (1) no hyperedge may contain two degree-1 vertices; (2) the two hyperedges
    through a degree-2 vertex may not both contain a degree-1 vertex.  Either
    failure on a genuinely valid decomposition would break the coverage
    argument, so test suites treat any violation as fatal.

    ``report`` is ``validate_decomposition(d)``; the conditions are read from
    ``report.hypergraph``, the root-hypergraph of ``report.decomposition``.

    Raises:
        PreconditionError: if the report is not valid.
        NotApplicableError: if m >= n-1 or some hyperedge has fewer than 2 vertices.
    """
    if not report.ok:
        raise PreconditionError("placement checks need a valid decomposition")
    return _degree1_placement(report.hypergraph)


def _degree1_placement(rh: RootHypergraph) -> Degree1PlacementReport:
    """``check_degree1_placement``'s two conditions on ``rh``, taken as the root-hypergraph of a valid decomposition."""
    if rh.m >= rh.n - 1:
        raise NotApplicableError("needs fewer than n-1 forests")
    if any(len(e) < 2 for e in rh.hyperedges):
        raise NotApplicableError("needs every hyperedge to have at least 2 vertices")

    degree = rh.degree
    v1 = {v for v, dg in degree.items() if dg == 1}

    shared = []
    for fi, e in enumerate(rh.hyperedges):
        inside = tuple(sorted(e & v1))
        if len(inside) >= 2:
            shared.append((fi, inside))

    incident: dict[int, list[int]] = {}
    for fi, e in enumerate(rh.hyperedges):
        for v in e:
            incident.setdefault(v, []).append(fi)
    pinched = []
    for v in sorted(v for v, dg in degree.items() if dg == 2):
        fa, fb = incident[v]
        if (rh.hyperedges[fa] - {v}) & v1 and (rh.hyperedges[fb] - {v}) & v1:
            pinched.append((v, fa, fb))

    return Degree1PlacementReport(ok=not shared and not pinched, shared_degree1=tuple(shared), pinched_degree2=tuple(pinched))


def is_broken_double_star(report: ValidationReport) -> bool:
    """Recognize the broken double star, the (t+1)-forest decomposition of K_{2t}.

    For t >= 3 it is t spanning two-star forests of t-1 leaves per star,
    whose centers are antipodal in a cyclic order, plus the antipodal perfect
    matching as one forest of t one-leaf stars.  It is unique, and recognition
    rebuilds the cyclic order instead of trying relabelings.  For t = 2 every
    star is one edge and has no center: bds(2) is the 1-factorization of K_4,
    accepted in any orientation.  The 3-star staircase also decomposes K_4
    and is rejected, so uniqueness fails there (see ``bounds.lb_bds``).

    Only what validity leaves open is checked.  A vertex that is a center c
    times in the two-star forests has degree 1 + t + c(t-2), which must be
    2t-1, so every vertex is a center exactly once when t >= 3.  Two vertices
    with the same closed arc L(u) + {u} would cover an edge twice, so the
    arc names its vertex.  The walk's successor of v is the u whose closed
    arc is L(v) + {partner(v)}; u lies in L(v), since L(v) and
    L(partner(v)) are disjoint and not empty.

    ``report`` is ``validate_decomposition(d)``, and ``d`` is
    ``report.decomposition``; a ``d`` without the (t+1)-forest shape is
    rejected before the verdict is read.

    Raises:
        NotApplicableError: for odd n.
    """
    d = report.decomposition
    if d.n % 2 == 1:
        raise NotApplicableError("only defined for even vertex counts")
    t = d.n // 2
    if t < 2 or len(d.forests) != t + 1:
        return False
    if not report.ok:
        return False
    others = [f for f in d.forests if len(f.stars) != 2]
    if t == 2:
        return not others
    if len(others) != 1 or len(others[0].stars) != t:  # t stars on 2t vertices: one leaf each
        return False
    partner = {s.center: s.leaves[0] for s in others[0].stars}
    partner |= {v: u for u, v in partner.items()}
    arc: dict[int, frozenset[int]] = {}  # center v -> L(v)
    for a, b in (f.stars for f in d.forests if len(f.stars) == 2):
        if partner[a.center] != b.center or len(a.leaves) != t - 1 or len(b.leaves) != t - 1:
            return False
        arc[a.center], arc[b.center] = frozenset(a.leaves), frozenset(b.leaves)
    by_closed = {leaves | {u}: u for u, leaves in arc.items()}
    seq, v = [], 0
    for _ in range(2 * t):
        seq.append(v)
        v = by_closed.get(arc[v] | {partner[v]})
        if v is None:
            return False
    return v == 0 and len(set(seq)) == 2 * t and list(map(partner.get, seq[:t])) == seq[t:]  # antipodal

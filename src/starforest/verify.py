"""Decide whether a candidate object really partitions E(K_n) into k-star-forests,
and compute the root-hypergraph diagnostics behind the counting lower bounds.

The root-hypergraph of a forest collection has one hyperedge per forest,
containing exactly that forest's star centers.  Its degree profile feeds three
checks used across the test suite:

* no-isolated-vertex (holds whenever fewer than n-1 forests are used),
* the two center-placement conditions for degree-1 vertices,
* the bipartite double-count inequality 2*p1 - r <= p2 + sum_{j>=3} j*p_j and
  its aggregate consequence 5n - 9m + 2r <= -sum_{j>=3} (2j-5)*p_j.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, filterfalse, repeat

from .core import (
    Decomposition,
    Edge,
    NotApplicableError,
    PreconditionError,
    StarForest,
    make_edge,
)


class MissingEdges:
    """The edges of K_n that a claim leaves uncovered, in lexicographic order.

    Lazy: the object holds only the covered in-range edges, indexed by their
    lower endpoint (``covered[u]`` is the set of covered v, u < v < n), so its
    memory follows the input and not n².  ``size`` is the exact count, found
    by arithmetic; ``len()`` is the same, but Python raises ``OverflowError``
    past ``sys.maxsize``, so read ``size`` where n may be that large.
    ``bool()`` tells whether any edge is missing.  Iteration and ``rows()``
    walk the rows on demand, so ``islice(missing, 20)`` costs 20 edges even for
    an empty claim with a huge header; there is no indexing.
    """

    __slots__ = ("n", "size", "_covered")

    def __init__(self, n: int, covered: dict[int, set[int]]) -> None:
        self.n = n
        self._covered = covered
        self.size = n * (n - 1) // 2 - sum(map(len, covered.values()))

    def rows(self) -> Iterator[tuple[int, Iterable[int]]]:
        """Each row u with a missing edge, with the missing upper ends v > u in order.

        A row with no covered edge is a ``range``; a full row is skipped.
        """
        n, covered = self.n, self._covered
        for u in range(n - 1):
            row = covered.get(u)
            if row is None:
                yield u, range(u + 1, n)
            elif len(row) < n - 1 - u:
                yield u, filterfalse(row.__contains__, range(u + 1, n))

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


@dataclass(frozen=True)
class CoverageReport:
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


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    malformed: tuple[str, ...]
    k_violations: tuple[int, ...]
    coverage: CoverageReport


def validate_decomposition(d: Decomposition) -> ValidationReport:
    """Full check: structure and exact single coverage of E(K_n), in one pass.

    Structural violations (overlapping stars, out-of-range ids) are reported
    as malformed, separately from missing/duplicated coverage, so downstream
    placement checks can trust the shape of anything that passes.  An edge
    outside K_n needs an out-of-range endpoint, so it is always malformed.
    """
    n = d.n
    malformed: list[str] = []
    rows: defaultdict[int, set[int]] = defaultdict(set)  # covered edges of K_n: lower end -> upper ends
    stray: defaultdict[int, set[int]] = defaultdict(set)  # the same for edges with an endpoint >= n
    extra: Counter[Edge] = Counter()  # copies of an edge past its first
    for fi, forest in enumerate(d.forests):
        seen: set[int] = set()
        for star in forest.stars:
            c = star.center
            for v in (c, *star.leaves):
                if v >= n:
                    malformed.append(f"forest {fi}: vertex {v} out of range for n={n}")
                if v in seen:
                    malformed.append(f"forest {fi}: vertex {v} appears in more than one star")
                seen.add(v)
            for leaf in star.leaves:
                u, v = (c, leaf) if c < leaf else (leaf, c)
                row = (rows if v < n else stray)[u]
                if v in row:
                    extra[u, v] += 1
                row.add(v)
    k_violations = tuple(fi for fi, f in enumerate(d.forests) if len(f.stars) > d.k)

    missing = MissingEdges(n, rows)
    duplicated = tuple(sorted((e, c + 1) for e, c in extra.items()))
    coverage = CoverageReport(total_edges=n * (n - 1) // 2, missing=missing, duplicated=duplicated)
    ok = not malformed and not k_violations and not missing and not duplicated
    return ValidationReport(ok=ok, malformed=tuple(malformed), k_violations=k_violations, coverage=coverage)


@dataclass(frozen=True)
class RootHypergraph:
    n: int
    hyperedges: tuple[frozenset[int], ...]

    @property
    def m(self) -> int:
        return len(self.hyperedges)

    @cached_property
    def degree(self) -> Counter[int]:
        """Each center -> the hyperedges through it; sparse, a vertex of degree 0 has no entry."""
        return Counter(chain.from_iterable(self.hyperedges))


def root_hypergraph(d: Decomposition) -> RootHypergraph:
    """One hyperedge per forest, holding exactly that forest's centers."""
    return RootHypergraph(d.n, tuple(frozenset(f.centers) for f in d.forests))


@dataclass(frozen=True)
class IsolationReport:
    applicable: bool  # only forced when m < n-1
    ok: bool
    hypergraph: RootHypergraph  # the report compares and hashes by it

    @cached_property
    def isolated(self) -> tuple[int, ...]:
        """The vertices no hyperedge holds, in order, listed on first read only."""
        return tuple(filterfalse(self.hypergraph.degree.__contains__, range(self.hypergraph.n)))


def check_no_isolated(rh: RootHypergraph) -> IsolationReport:
    """Every vertex must be some star's center when fewer than n-1 forests are used."""
    applicable = rh.m < rh.n - 1
    return IsolationReport(applicable=applicable, ok=not applicable or len(rh.degree) == rh.n, hypergraph=rh)


@dataclass(frozen=True)
class DegreeProfile:
    m: int
    r: int  # number of size-2 hyperedges
    p: dict[int, int]  # degree (>= 1) -> vertex count
    isolated: int
    degree_sum: int

    def p_j(self, j: int) -> int:
        return self.p.get(j, 0)


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
    p = dict(sorted(Counter(degree.values()).items()))
    return DegreeProfile(m=rh.m, r=r, p=p, isolated=rh.n - len(degree), degree_sum=degree_sum)


@dataclass(frozen=True)
class CountingReport:
    lhs: int  # 2*p1 - r, lower bound on the bipartite edge count
    rhs: int  # p2 + sum_{j>=3} j*p_j, upper bound on the bipartite edge count
    slack: int
    bipartite_edge_count: int  # degree-1 to degree->=2 pairs sharing a hyperedge
    counting_lhs: int  # 5n - 9m + 2r
    counting_rhs: int  # -sum_{j>=3}(2j-5)*p_j
    counting_slack: int
    ok: bool


def check_counting_inequality(rh: RootHypergraph) -> CountingReport:
    """Numeric slack on both counting inequalities.

    The bipartite graph joins each degree-1 vertex to each degree->=2 vertex
    it shares a hyperedge with; only its edge count enters the report.

    Raises:
        NotApplicableError: if some hyperedge has more than 3 or fewer than 2
            vertices (a lone center contributes no bipartite edge, which breaks
            the lower bound on the edge count).
    """
    sizes = [len(e) for e in rh.hyperedges]
    if any(s > 3 for s in sizes):
        raise NotApplicableError("root-hypergraph has a hyperedge larger than 3")
    if any(s < 2 for s in sizes):
        raise NotApplicableError("root-hypergraph has a hyperedge smaller than 2")

    prof = degree_profile(rh)
    degree = rh.degree
    bipartite_edge_count = 0
    for e in rh.hyperedges:
        ones = sum(1 for v in e if degree[v] == 1)
        bipartite_edge_count += ones * (len(e) - ones)

    lhs = 2 * prof.p_j(1) - prof.r
    rhs = prof.p_j(2) + sum(j * c for j, c in prof.p.items() if j >= 3)
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


@dataclass(frozen=True)
class Degree1PlacementReport:
    ok: bool
    # hyperedges containing two degree-1 vertices: (forest index, offending vertices)
    shared_degree1: tuple[tuple[int, tuple[int, ...]], ...]
    # degree-2 vertices whose two hyperedges both reach into the degree-1 set
    pinched_degree2: tuple[tuple[int, int, int], ...]


def check_degree1_placement(d: Decomposition, *, report: ValidationReport | None = None,
                            rh: RootHypergraph | None = None) -> Degree1PlacementReport:
    """Center-placement conditions on degree-1 vertices of a valid decomposition.

    (1) no hyperedge may contain two degree-1 vertices; (2) the two hyperedges
    through a degree-2 vertex may not both contain a degree-1 vertex.  Either
    failure on a genuinely valid decomposition would break the coverage
    argument, so test suites treat any violation as fatal.

    ``report`` and ``rh``, if given, must be ``validate_decomposition(d)`` and
    ``root_hypergraph(d)``; a caller that already holds them saves computing
    them again here.

    Raises:
        PreconditionError: if the decomposition is not valid.
        NotApplicableError: if m >= n-1 or some hyperedge has fewer than 2 vertices.
    """
    if report is None:
        report = validate_decomposition(d)
    if not report.ok:
        raise PreconditionError("placement checks need a valid decomposition")
    rh = root_hypergraph(d) if rh is None else rh
    if rh.m >= d.n - 1:
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


def is_broken_double_star(d: Decomposition, *, report: ValidationReport | None = None) -> bool:
    """Recognize the unique (t+1)-forest decomposition of K_{2t}.

    Shape: t spanning two-star forests whose centers pair antipodal vertices,
    plus one forest consisting of the antipodal perfect matching.  Recognition
    reconstructs the cyclic vertex order instead of trying all relabelings.

    ``report``, if given, must be ``validate_decomposition(d)``; a caller that
    already holds it saves a second validation.  Without it, ``d`` is
    validated here, and only once it has the (t+1)-forest shape.

    Raises:
        NotApplicableError: for odd n.
    """
    if d.n % 2 == 1:
        raise NotApplicableError("only defined for even vertex counts")
    t = d.n // 2
    if t < 2 or len(d.forests) != t + 1:
        return False
    if report is None:
        report = validate_decomposition(d)
    if not report.ok:
        return False

    for mi, matching_forest in enumerate(d.forests):
        if _matches_with_matching_forest(d, t, mi, matching_forest):
            return True
    return False


def _matches_with_matching_forest(d: Decomposition, t: int, mi: int, mf: StarForest) -> bool:
    if len(mf.stars) != t or any(len(s.leaves) != 1 for s in mf.stars):
        return False
    partner: dict[int, int] = {}
    for s in mf.stars:
        partner[s.center] = s.leaves[0]
        partner[s.leaves[0]] = s.center
    if len(partner) != 2 * t:
        return False
    pairs = {make_edge(s.center, s.leaves[0]) for s in mf.stars}

    # every other forest: two spanning stars centered on one antipodal pair
    leaf_sets: dict[int, frozenset[int]] = {}
    used_pairs: set[Edge] = set()
    for fi, forest in enumerate(d.forests):
        if fi == mi:
            continue
        if len(forest.stars) != 2:
            return False
        a, b = forest.stars
        if make_edge(a.center, b.center) not in pairs:
            return False
        used_pairs.add(make_edge(a.center, b.center))
        for s in forest.stars:
            if len(s.leaves) != t - 1 or partner[s.center] in s.leaves:
                return False
            if s.center in leaf_sets:
                return False
            leaf_sets[s.center] = frozenset(s.leaves)
    if used_pairs != pairs or len(leaf_sets) != 2 * t:
        return False

    # successor walk: the next vertex is the u in L(v) with
    # L(u) = (L(v) - {u}) + {partner(v)}.  As u is not in L(u) and partner(v)
    # is not in L(v), that reads L(u) + {u} = L(v) + {partner(v)}: one lookup
    by_closed: dict[frozenset[int], list[int]] = {}
    for u, leaves in leaf_sets.items():
        by_closed.setdefault(leaves | {u}, []).append(u)

    def successor(v: int) -> int | None:
        hits = [u for u in by_closed.get(leaf_sets[v] | {partner[v]}, ()) if u in leaf_sets[v]]
        return hits[0] if len(hits) == 1 else None

    start = 0
    seq = [start]
    v = start
    for _ in range(2 * t - 1):
        nxt = successor(v)
        if nxt is None:
            return False
        seq.append(nxt)
        v = nxt
    if successor(v) != start or len(set(seq)) != 2 * t:
        return False
    return all(partner[seq[i]] == seq[(i + t) % (2 * t)] for i in range(2 * t))

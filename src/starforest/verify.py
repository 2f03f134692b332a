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

from collections import Counter
from dataclasses import dataclass

from .core import (
    Decomposition,
    Edge,
    NotApplicableError,
    PreconditionError,
    StarForest,
    complete_graph_edges,
    make_edge,
)


@dataclass(frozen=True)
class CoverageReport:
    total_edges: int
    missing: tuple[Edge, ...]
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
    multiplicity: Counter[Edge] = Counter()
    for fi, forest in enumerate(d.forests):
        seen: set[int] = set()
        for star in forest.stars:
            for v in (star.center, *star.leaves):
                if v >= n:
                    malformed.append(f"forest {fi}: vertex {v} out of range for n={n}")
                if v in seen:
                    malformed.append(f"forest {fi}: vertex {v} appears in more than one star")
                seen.add(v)
            for leaf in star.leaves:
                multiplicity[make_edge(star.center, leaf)] += 1
    k_violations = tuple(fi for fi, f in enumerate(d.forests) if len(f.stars) > d.k)

    missing = tuple(e for e in complete_graph_edges(n) if e not in multiplicity)
    duplicated = tuple((e, c) for e, c in sorted(multiplicity.items()) if c > 1)
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

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for e in self.hyperedges:
            for v in e:
                deg[v] += 1
        return deg


def root_hypergraph(d: Decomposition) -> RootHypergraph:
    """One hyperedge per forest, holding exactly that forest's centers."""
    return RootHypergraph(d.n, tuple(frozenset(f.centers) for f in d.forests))


@dataclass(frozen=True)
class IsolationReport:
    applicable: bool  # only forced when m < n-1
    isolated: tuple[int, ...]
    ok: bool


def check_no_isolated(rh: RootHypergraph) -> IsolationReport:
    """Every vertex must be some star's center when fewer than n-1 forests are used."""
    isolated = tuple(v for v, dg in enumerate(rh.degrees()) if dg == 0)
    applicable = rh.m < rh.n - 1
    return IsolationReport(applicable=applicable, isolated=isolated, ok=not applicable or not isolated)


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
    """Exact degree counts of the root-hypergraph.

    Always satisfies sum_j p_j + isolated = n and degree_sum = sum_j j*p_j;
    when every hyperedge has size 2 or 3 the degree sum additionally equals
    3m - r.  All three identities are checked, also under ``python -O``.
    """
    degrees = rh.degrees()
    counts = Counter(dg for dg in degrees if dg > 0)
    isolated = sum(1 for dg in degrees if dg == 0)
    degree_sum = sum(degrees)
    r = sum(1 for e in rh.hyperedges if len(e) == 2)
    prof = DegreeProfile(m=rh.m, r=r, p=dict(sorted(counts.items())), isolated=isolated, degree_sum=degree_sum)
    if sum(prof.p.values()) + prof.isolated != rh.n:
        raise AssertionError(f"degree profile counts {sum(prof.p.values()) + prof.isolated} vertices, n={rh.n}")
    if sum(j * c for j, c in prof.p.items()) != degree_sum:
        raise AssertionError(f"degree profile does not sum to the degree sum {degree_sum}")
    sizes = {len(e) for e in rh.hyperedges}
    if sizes <= {2, 3} and degree_sum != 3 * rh.m - r:
        raise AssertionError(f"degree sum {degree_sum} != 3m - r = {3 * rh.m - r}")
    return prof


@dataclass(frozen=True)
class CenterBipartiteGraph:
    """Bipartite graph between degree-1 vertices and degree->=2 vertices,
    joined whenever the two share a hyperedge."""

    edges: tuple[tuple[int, int], ...]
    v1_size: int


@dataclass(frozen=True)
class CountingReport:
    lhs: int  # 2*p1 - r, lower bound on the bipartite edge count
    rhs: int  # p2 + sum_{j>=3} j*p_j, upper bound on the bipartite edge count
    slack: int
    bipartite_edge_count: int
    counting_applicable: bool  # all hyperedge sizes in {2,3}
    counting_lhs: int  # 5n - 9m + 2r
    counting_rhs: int  # -sum_{j>=3}(2j-5)*p_j
    counting_slack: int
    ok: bool


def check_counting_inequality(rh: RootHypergraph) -> tuple[CountingReport, CenterBipartiteGraph]:
    """Numeric slack on both counting inequalities, plus the witnessing bipartite graph.

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
    degrees = rh.degrees()
    cross_edges = []
    for e in rh.hyperedges:
        for p_vtx in e:
            if degrees[p_vtx] != 1:
                continue
            for q in e:
                if q != p_vtx and degrees[q] >= 2:
                    cross_edges.append((p_vtx, q))
    bipartite = CenterBipartiteGraph(edges=tuple(sorted(cross_edges)), v1_size=prof.p_j(1))

    lhs = 2 * prof.p_j(1) - prof.r
    rhs = prof.p_j(2) + sum(j * c for j, c in prof.p.items() if j >= 3)
    counting_applicable = set(sizes) <= {2, 3}
    counting_lhs = 5 * rh.n - 9 * rh.m + 2 * prof.r
    counting_rhs = -sum((2 * j - 5) * c for j, c in prof.p.items() if j >= 3)
    ok = lhs <= rhs and (not counting_applicable or counting_lhs <= counting_rhs)
    report = CountingReport(
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        bipartite_edge_count=len(bipartite.edges),
        counting_applicable=counting_applicable,
        counting_lhs=counting_lhs,
        counting_rhs=counting_rhs,
        counting_slack=counting_rhs - counting_lhs,
        ok=ok,
    )
    return report, bipartite


@dataclass(frozen=True)
class Degree1PlacementReport:
    ok: bool
    # hyperedges containing two degree-1 vertices: (forest index, offending vertices)
    shared_degree1: tuple[tuple[int, tuple[int, ...]], ...]
    # degree-2 vertices whose two hyperedges both reach into the degree-1 set
    pinched_degree2: tuple[tuple[int, int, int], ...]


def check_degree1_placement(d: Decomposition) -> Degree1PlacementReport:
    """Center-placement conditions on degree-1 vertices of a valid decomposition.

    (1) no hyperedge may contain two degree-1 vertices; (2) the two hyperedges
    through a degree-2 vertex may not both contain a degree-1 vertex.  Either
    failure on a genuinely valid decomposition would break the coverage
    argument, so test suites treat any violation as fatal.

    Raises:
        PreconditionError: if the decomposition is not valid.
        NotApplicableError: if m >= n-1 or some hyperedge has fewer than 2 vertices.
    """
    if not validate_decomposition(d).ok:
        raise PreconditionError("placement checks need a valid decomposition")
    rh = root_hypergraph(d)
    if rh.m >= d.n - 1:
        raise NotApplicableError("needs fewer than n-1 forests")
    if any(len(e) < 2 for e in rh.hyperedges):
        raise NotApplicableError("needs every hyperedge to have at least 2 vertices")

    degrees = rh.degrees()
    v1 = {v for v, dg in enumerate(degrees) if dg == 1}

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
    for v, dg in enumerate(degrees):
        if dg != 2:
            continue
        fa, fb = incident[v]
        if (rh.hyperedges[fa] - {v}) & v1 and (rh.hyperedges[fb] - {v}) & v1:
            pinched.append((v, fa, fb))

    return Degree1PlacementReport(ok=not shared and not pinched, shared_degree1=tuple(shared), pinched_degree2=tuple(pinched))


def is_broken_double_star(d: Decomposition) -> bool:
    """Recognize the unique (t+1)-forest decomposition of K_{2t}.

    Shape: t spanning two-star forests whose centers pair antipodal vertices,
    plus one forest consisting of the antipodal perfect matching.  Recognition
    reconstructs the cyclic vertex order instead of trying all relabelings.

    Raises:
        NotApplicableError: for odd n.
    """
    if d.n % 2 == 1:
        raise NotApplicableError("only defined for even vertex counts")
    t = d.n // 2
    if t < 2 or len(d.forests) != t + 1:
        return False
    if not validate_decomposition(d).ok:
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

    # successor walk: the next vertex u satisfies L(u) = (L(v) - {u}) + {partner(v)}
    def successor(v: int) -> int | None:
        hits = [u for u in leaf_sets[v] if leaf_sets[u] == (leaf_sets[v] - {u}) | {partner[v]}]
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

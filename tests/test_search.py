import hashlib
import os
import time
from collections import Counter
from functools import lru_cache

import pytest

from starforest import (
    Decomposition,
    PreconditionError,
    SearchBudget,
    SearchStatus,
    Star,
    StarForest,
    broken_double_star,
    conjecture_value,
    exists_decomposition,
    f2_construction,
    f3_construction,
    f_exact,
    hypergraph_exists,
    k4_construction,
    k16,
    k27,
    validate_decomposition,
)
from starforest import search
from starforest.core import complete_graph_edges
from starforest.fileio import DecompositionFile, serialize

from backtracker import backtrack


def test_k3_single_star_forests():
    res = exists_decomposition(3, 1, 2)
    assert res.status is SearchStatus.FOUND
    stars = [s for f in res.certificate.forests for s in f.stars]
    assert stars == [Star(0, (1, 2)), Star(1, (2,))]


def test_k4_two_forest_exhaustion():
    res = exists_decomposition(4, 2, 2)
    assert res.status is SearchStatus.EXHAUSTED_NOT_FOUND


def test_k4_three_forests_found():
    res = exists_decomposition(4, 2, 3)
    assert res.status is SearchStatus.FOUND
    assert validate_decomposition(res.certificate).ok


def test_k4_three_star_exhaustion():
    # two 3-star-forests cannot cover K_4
    assert exists_decomposition(4, 3, 2).status is SearchStatus.EXHAUSTED_NOT_FOUND


def _slow(*values, reason):
    return pytest.param(*values, marks=pytest.mark.skipif(
        not os.environ.get("STARFOREST_SLOW"), reason=f"{reason}; set STARFOREST_SLOW=1 to run"))


@pytest.mark.parametrize("n,want", [
    (4, 3), (5, 4), (6, 5), (7, 6), (8, 6), (9, 7), (10, 8),
    _slow(11, 9, reason="~2s"), _slow(12, 9, reason="~1s"), _slow(13, 10, reason="~5s exhaustion of (13, 2, 9)"),
])
def test_f_exact_two_star_values(n, want):
    # Pach, Saghafian and Schnider proved F_2(n) = ceil(3n/4) for n >= 4
    res = f_exact(n, 2)
    assert res.value == want == -(-3 * n // 4)
    assert validate_decomposition(res.certificate).ok


@pytest.mark.parametrize("n,k", [(10, 3), (10, 4), _slow(12, 3, reason="~2s exhaustion of (12, 3, 7)"),
                                 _slow(12, 4, reason="~4s exhaustion of (12, 4, 7)")])
def test_f_exact_meets_n_over_2_plus_2(n, k):
    # the paper's lower bound n/2 + 2 for even n > 2k, which f_exact starts
    # from, is also the search's: n/2 + 1 forests are exhausted (in 4,957
    # and 9,276 placements at n = 10), and n/2 + 2 are found
    assert exists_decomposition(n, k, n // 2 + 1).status is SearchStatus.EXHAUSTED_NOT_FOUND
    res = f_exact(n, k)
    assert res.value == n // 2 + 2
    assert validate_decomposition(res.certificate).ok


def test_f_exact_three_stars_at_odd_n():
    # F_3(9) = 6 meets the conjectured ceil((k+1)n/2k); F_3(11) = 7, and
    # F_3(13) = F_4(13) = 8, fall one below it
    assert (f_exact(9, 3).value, conjecture_value(9, 3)) == (6, 6)
    for n, k, want in ((11, 3, 7), (13, 3, 8), (13, 4, 8)):
        res = f_exact(n, k)
        assert (res.value, conjecture_value(n, k)) == (want, want + 1)
        assert validate_decomposition(res.certificate).ok


@pytest.mark.parametrize("k", [_slow(5, reason="~3s"), _slow(6, reason="~2s")])
def test_f_exact_more_stars_at_13(k):
    # F_k(13) <= F_4(13) = 8 and the lower bound is 8; the conjectured
    # ceil((k+1)n/2k) is 8 as well for these k
    res = f_exact(13, k)
    assert (res.value, conjecture_value(13, k)) == (8, 8)
    assert validate_decomposition(res.certificate).ok


def test_f_exact_brute_force_exhaustions_below_optimum():
    # full cross-checks, independent of the lower-bound formulas
    assert exists_decomposition(5, 2, 3).status is SearchStatus.EXHAUSTED_NOT_FOUND
    assert exists_decomposition(6, 2, 4).status is SearchStatus.EXHAUSTED_NOT_FOUND
    assert exists_decomposition(7, 2, 4).status is SearchStatus.EXHAUSTED_NOT_FOUND
    assert exists_decomposition(8, 2, 4).status is SearchStatus.EXHAUSTED_NOT_FOUND


def test_column_rule_prunes_relabelled_columns():
    # the backtracker's own node counts on the benchmark's instances, measured
    # when the star-count test joined it; before the absence term and the
    # vertex-symmetry column rule, (7, 2, 4) and (7, 3, 4) visited 210872 and
    # 235321 nodes.  Any change to its pruning moves them.  (8, 2, 4) fails
    # the star-count test at the root, and F_3(7) = F_7(7) = 5 is found at m = 5
    exhaustions = {(6, 2, 4): 5081, (7, 2, 4): 776, (7, 3, 4): 864,
                   (7, 4, 4): 864, (8, 2, 4): 0}
    for (n, k, m), nodes in exhaustions.items():
        res = backtrack(n, k, m)
        assert (res.status, res.nodes_explored) == (SearchStatus.EXHAUSTED_NOT_FOUND, nodes)
    for k in (3, 7):
        res = backtrack(7, k, 5)
        assert (res.status, res.nodes_explored) == (SearchStatus.FOUND, 877)


def test_exists_decomposition_node_counts():
    # center-set placements on the benchmark's instances; F_2(6) = 5 = n-1
    # needs no search
    exhaustions = {(6, 2, 4): 14, (7, 2, 4): 2, (7, 3, 4): 2, (7, 4, 4): 2, (8, 2, 4): 0}
    for (n, k, m), nodes in exhaustions.items():
        res = exists_decomposition(n, k, m)
        assert (res.status, res.nodes_explored) == (SearchStatus.EXHAUSTED_NOT_FOUND, nodes)
    for (n, k), nodes in {(6, 2): 0, (7, 3): 5, (7, 7): 5}.items():
        res = f_exact(n, k)
        assert (res.value, res.nodes_explored) == (5, nodes)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_f_exact_single_star_is_n_minus_one(n):
    assert f_exact(n, 1).value == n - 1


def test_f_exact_k3_on_k4():
    assert f_exact(4, 3).value == 3


def test_f_exact_n3_reports_exhaustive_value():
    # the two-forest split of K_3 undercuts the ceil(3n/4) formula at n=3
    assert f_exact(3, 2).value == 2


def test_f_exact_unbounded_components_match_star_forest_floor():
    for n, want in [(4, 3), (5, 4), (6, 4)]:
        assert f_exact(n, n).value == want


def test_f_exact_monotone_in_k_and_n():
    values = {(n, k): f_exact(n, k).value for n in (4, 5, 6) for k in (1, 2, 3)}
    for n in (4, 5, 6):
        assert values[(n, 1)] >= values[(n, 2)] >= values[(n, 3)]
    for k in (1, 2, 3):
        assert values[(4, k)] <= values[(5, k)] <= values[(6, k)]


def test_f_exact_n7_fast_cases():
    assert f_exact(7, 1).value == 6
    assert f_exact(7, 3).value == 5
    assert f_exact(7, 7).value == 5


def test_f_exact_n7_two_star_slow():
    # the backtracker needs 2,505,094 nodes for m = 5; the search exhausts it
    # in 137 placements
    res = f_exact(7, 2)
    assert res.value == 6  # matches ceil(3*7/4)
    assert res.attempts == ((5, SearchStatus.EXHAUSTED_NOT_FOUND),)
    assert res.nodes_explored == 137


def test_certificates_respect_budgets():
    res = f_exact(6, 2)
    cert = res.certificate
    assert cert.forest_count <= res.value
    assert all(len(f.stars) <= 2 for f in cert.forests)


def test_budget_exceeded_signalling():
    res = exists_decomposition(6, 2, 4, SearchBudget(max_nodes=10))
    assert res.status is SearchStatus.BUDGET_EXCEEDED
    assert res.certificate is None


def test_budget_of_exactly_the_nodes_needed_finds():
    # (7, 3, 5) is found on its 5th node
    assert exists_decomposition(7, 3, 5, SearchBudget(max_nodes=5)).status is SearchStatus.FOUND
    res = exists_decomposition(7, 3, 5, SearchBudget(max_nodes=4))
    assert (res.status, res.nodes_explored) == (SearchStatus.BUDGET_EXCEEDED, 4)


def test_wall_time_stops_at_the_first_deadline_check():
    # the deadline is read every 4096 nodes, so even an expired one lets 4096
    # run: (10, 2, 7) needs 4170 placements to exhaust
    res = exists_decomposition(10, 2, 7, SearchBudget(wall_time=1e-9))
    assert (res.status, res.certificate, res.nodes_explored) == (SearchStatus.BUDGET_EXCEEDED, None, 4096)


def test_wall_time_is_read_at_the_same_node_counts_in_every_stage():
    # a feasible row reads the deadline at the same node counts as an
    # exhaustion: (11, 5, 7) is found on its 6799th placement
    res = exists_decomposition(11, 5, 7, SearchBudget(wall_time=1e-9))
    assert (res.status, res.certificate, res.nodes_explored) == (SearchStatus.BUDGET_EXCEEDED, None, 4096)


def test_f_exact_budget_bracketing():
    res = f_exact(7, 2, SearchBudget(max_nodes=10))
    assert res.status is SearchStatus.BUDGET_EXCEEDED
    assert res.value is None
    lo, hi = res.interval
    assert lo <= 6 <= hi


def staircase(n: int, k: int) -> Decomposition:
    return Decomposition(n=n, k=k, forests=tuple(
        StarForest((Star(i, tuple(range(i + 1, n))),)) for i in range(n - 1)))


def test_f_exact_budget_runs_out_inside_and_after_an_exhaustion():
    # F_2(7) = 6 from the lower bound 5.  Exhausting m=5 takes 137 center-set
    # placements.  A search visits at most max_nodes nodes: one short of 137
    # stops inside the exhaustion, and exactly 137 completes it with nothing
    # left for m=6, which the staircase of n-1 = 6 stars settles without a search.
    res = f_exact(7, 2, SearchBudget(max_nodes=136))
    assert res.status is SearchStatus.BUDGET_EXCEEDED
    assert res.attempts == ((5, SearchStatus.BUDGET_EXCEEDED),)
    assert (res.interval, res.nodes_explored) == ((5, 6), 136)
    res = f_exact(7, 2, SearchBudget(max_nodes=137))
    assert (res.status, res.value, res.certificate) == (SearchStatus.FOUND, 6, staircase(7, 2))
    assert res.attempts == ((5, SearchStatus.EXHAUSTED_NOT_FOUND),)
    assert (res.interval, res.nodes_explored) == ((6, 6), 137)


def test_f_exact_budget_runs_out_between_attempts():
    # F_2(9) from the lower bound 6: exhausting m=6 takes exactly 327 nodes,
    # so a budget of 327 stops before m=7 starts, not inside it
    res = f_exact(9, 2, SearchBudget(max_nodes=327))
    assert (res.status, res.value, res.certificate) == (SearchStatus.BUDGET_EXCEEDED, None, None)
    assert res.attempts == ((6, SearchStatus.EXHAUSTED_NOT_FOUND),)
    assert (res.interval, res.nodes_explored) == ((7, 8), 327)


def test_too_few_centers_exhaust_at_the_root():
    # with m < n-1 every vertex centers a star somewhere, and m forests hold
    # at most k*m stars: k*m < n is decided before any node, at any n.  For
    # k >= 2 that implies 2m <= n, so the rows it adds are those with k = 1
    for n, k, m in ((7, 1, 5), (8, 1, 5), (8, 1, 6), (10**6, 1, 10**6 - 2)):
        res = exists_decomposition(n, k, m)
        assert (res.status, res.nodes_explored) == (SearchStatus.EXHAUSTED_NOT_FOUND, 0)
    res = f_exact(8, 1)
    assert (res.value, res.nodes_explored) == (7, 0)


@pytest.mark.parametrize("n", range(2, 8))
def test_search_certificate_at_n_minus_1_is_the_staircase(n):
    # and the staircase is also the backtracker's lexicographically smallest
    # certificate: when edge (u, v) comes, every forest j < u already holds
    # both u and v, so forest u is the lowest that can take it
    for k in range(1, n + 1):
        res = exists_decomposition(n, k, n - 1)
        assert (res.certificate, res.nodes_explored) == (staircase(n, k), 0)
        assert backtrack(n, k, n - 1).certificate == staircase(n, k)


def test_certificate_deterministic():
    a = f_exact(7, 3)
    b = f_exact(7, 3)
    assert a.certificate == b.certificate
    assert a.nodes_explored == b.nodes_explored


def test_exhaustion_tokens_recorded():
    res = f_exact(4, 2)  # the lower bound is 3 = n-1, which needs no search
    assert (res.value, res.attempts, res.nodes_explored) == (3, (), 0)
    res = f_exact(6, 6)  # floor formula gives 4; found immediately
    assert res.attempts[-1][1] is SearchStatus.FOUND


def test_search_parameter_validation():
    with pytest.raises(PreconditionError):
        exists_decomposition(0, 1, 1)
    with pytest.raises(PreconditionError, match="^needs n >= 1, k >= 1, m >= 1$"):
        hypergraph_exists(0, 1, 1)
    with pytest.raises(PreconditionError, match="needs n >= 1 and k >= 1"):
        f_exact(0, 1)
    with pytest.raises(PreconditionError, match="needs n >= 1 and k >= 1"):
        f_exact(3, 0)
    with pytest.raises(PreconditionError):
        SearchBudget(max_nodes=0)
    with pytest.raises(PreconditionError):
        SearchBudget(wall_time=float("nan"))


# ---------------------------------------------------------------------------
# independent brute-force oracle: no verify.py, no searcher
# ---------------------------------------------------------------------------


def _lex_edges(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _forest_components(n, edges):
    """Number of stars if ``edges`` form a star forest on {0..n-1}, else None."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, comps = set(), 0
    for s in range(n):
        if s in seen or not adj[s]:
            continue
        comp, stack = {s}, [s]
        while stack:
            for w in adj[stack.pop()] - comp:
                comp.add(w)
                stack.append(w)
        seen |= comp
        ecount = sum(len(adj[w]) for w in comp) // 2
        if ecount != len(comp) - 1 or max(len(adj[w]) for w in comp) != len(comp) - 1:
            return None
        comps += 1
    return comps


@lru_cache(maxsize=None)
def _valid_assignments(n, m):
    """Every first-use-canonical edge->forest assignment that splits K_n into
    star forests, in lexicographic order, paired with its largest star count."""
    edges = _lex_edges(n)
    found = []

    def rec(prefix, used):
        if len(prefix) == len(edges):
            worst = 0
            for f in range(used):
                comps = _forest_components(n, [e for e, g in zip(edges, prefix) if g == f])
                if comps is None:
                    return
                worst = max(worst, comps)
            found.append((tuple(prefix), worst))
            return
        for f in range(min(used + 1, m)):
            prefix.append(f)
            rec(prefix, max(used, f + 1))
            prefix.pop()

    rec([], 0)
    return found


def _certificate_assignment(cert):
    by_edge = {}
    for fi, forest in enumerate(cert.forests):
        for star in forest.stars:
            for leaf in star.leaves:
                by_edge[(min(star.center, leaf), max(star.center, leaf))] = fi
    return tuple(by_edge[e] for e in _lex_edges(cert.n))


_ORACLE_CASES = [
    (n, k, m)
    for n in range(1, 6)
    for m in range(1, n)
    for k in range(1, n + 1)
    if m ** (n * (n - 1) // 2) <= 60_000
]


def test_oracle_case_count():
    assert len(_ORACLE_CASES) == 35


@pytest.mark.parametrize("n,k,m", _ORACLE_CASES)
def test_search_matches_brute_force_oracle(n, k, m):
    # the search decides the row as the brute force does, and the backtracker
    # finds the lexicographically smallest assignment
    lexmin = next((a for a, worst in _valid_assignments(n, m) if worst <= k), None)
    res, oracle = exists_decomposition(n, k, m), backtrack(n, k, m)
    if lexmin is None:
        assert res.status is oracle.status is SearchStatus.EXHAUSTED_NOT_FOUND
    else:
        assert res.status is oracle.status is SearchStatus.FOUND
        assert validate_decomposition(res.certificate).ok
        assert res.certificate.forest_count <= m
        assert _certificate_assignment(oracle.certificate) == lexmin


# sha256 of serialize(DecompositionFile(f_exact(n, k).certificate,
# family="search")), the bytes `search --cert` writes: the staircase for
# F_2(6) = 5 = n-1, and the center-set engine's certificate for the rest
_PINNED_CERTIFICATES = {
    (6, 2): "7e205ca34290ea78fccbb69812a5305e34ac983685353126c8f6982a5a157a34",
    (6, 3): "bd61f1b1996a1dab959f29c1dd86dbb13ec9cf73022f48680b87e967bec1927b",
    (7, 3): "618417cf2e26857183861e1ea1313f99c798bc746116b824f05a3e051708b368",
    (7, 7): "cfecf62865f595aa58c50ce4cdec2a2612ecfd403a73195a358db15495c4859b",
}


@pytest.mark.parametrize("n,k", sorted(_PINNED_CERTIFICATES))
def test_pinned_certificates(n, k):
    text = serialize(DecompositionFile(f_exact(n, k).certificate, family="search"))
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_CERTIFICATES[(n, k)]


def _sweep_digests(ns, budget):
    """sha256 over every (n, k, m) with n in ns and 1 <= k, m <= n of status,
    node count and certificate; of status and certificate; and of status alone."""
    full, results, statuses = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for n in ns:
        for k in range(1, n + 1):
            for m in range(1, n + 1):
                res = exists_decomposition(n, k, m, budget)
                cert = "" if res.certificate is None else serialize(DecompositionFile(res.certificate, family="search"))
                full.update(f"{n} {k} {m} {res.status.value} {res.nodes_explored}\n{cert}".encode())
                results.update(f"{n} {k} {m} {res.status.value}\n{cert}".encode())
                statuses.update(f"{n} {k} {m} {res.status.value}\n".encode())
    return full.hexdigest(), results.hexdigest(), statuses.hexdigest()


@lru_cache(maxsize=None)
def _small_sweep_digests():
    return _sweep_digests(range(1, 8), SearchBudget(max_nodes=200_000))


def test_search_sweep_pinned():
    # any change to the enumeration or its pruning moves it
    assert _small_sweep_digests()[0] == "4986c1706e3d893bd01c5d45591908431ae8ad32acc39a780370431eab0586fd"


def test_search_sweep_results_pinned():
    # the statuses were recorded while the edge-placement backtracker still
    # ran first on every row, and a change to the search may not move them;
    # the certificates move with the engine's enumeration order
    _, results, statuses = _small_sweep_digests()
    assert statuses == "02271e1c04f6bb6d33ee4b27b0165137e46d42de785930cef9f028d05e8b99cd"
    assert results == "96243be3a5d515a056ff55ac6bdb6089503bf0fb773c1c416722b91738397add"


def _absence_slack_along(d):
    """The slack bound of the backtracker's docstring, recomputed from each prefix
    of d's edges in lexicographic order, with m = d's forest count."""
    n, m = d.n, d.forest_count
    forest_of = {}
    for fi, forest in enumerate(d.forests):
        for star in forest.stars:
            for leaf in star.leaves:
                forest_of[(min(star.center, leaf), max(star.center, leaf))] = fi
    edges = _lex_edges(n)
    members = [set() for _ in range(m)]  # vertices each forest holds so far
    sizes = [0] * m  # edges each forest holds so far
    degree = [0] * n  # edges placed at each vertex so far
    bounds = []
    for t in range(len(edges) + 1):
        if t:
            (u, v), f = edges[t - 1], forest_of[edges[t - 1]]
            members[f] |= {u, v}
            sizes[f] += 1
            degree[u] += 1
            degree[v] += 1
        comps = [len(members[f]) - sizes[f] for f in range(m)]  # a prefix of a forest is a forest
        absent = [sum(v not in members[f] for f in range(m)) for v in range(n)]
        needed = [n - 1 - degree[v] for v in range(n)]
        bounds.append(m * n - len(edges) - sum(max(c, 1) for c in comps)
                      - sum(max(a - r, 0) for a, r in zip(absent, needed)))
    return bounds


@pytest.mark.parametrize("make", [
    k16, k27, lambda: k4_construction(2), lambda: broken_double_star(8), lambda: f2_construction(20),
], ids=["k16", "k27", "k4gen-m2", "bds-t8", "f2-n20"])
def test_absence_slack_never_prunes_a_valid_decomposition(make):
    # every forest of these decompositions is in use, so the bound must stay
    # >= 0 on every prefix; once every edge is placed it is exactly 0
    d = make().decomposition
    assert all(f.stars for f in d.forests)
    bounds = _absence_slack_along(d)
    assert min(bounds) >= 0
    assert bounds[-1] == 0


def _star_count_bound_along(d):
    """The star-count bound of the backtracker's docstring, recomputed from each
    prefix of d's edges in lexicographic order, with m = d's forest count:
    m*n - |E| - sum comps - sum max(extra, 0) - max(0, unc - k2), where unc
    counts the vertices of degree < 2 in every forest and k2 the components
    that are one edge."""
    n, m = d.n, d.forest_count
    edges = _lex_edges(n)
    forest_of = _certificate_assignment(d)
    placed = [[] for _ in range(m)]  # each forest's edges so far
    bounds = []
    for t in range(len(edges) + 1):
        if t:
            placed[forest_of[t - 1]].append(edges[t - 1])
        degree = [Counter(x for e in p for x in e) for p in placed]  # per forest and vertex
        comps = sum(len(deg) - len(p) for deg, p in zip(degree, placed))  # a prefix of a forest is a forest
        absent = [sum(v not in deg for deg in degree) for v in range(n)]
        needed = [n - 1 - sum(deg[v] for deg in degree) for v in range(n)]
        unc = sum(all(deg[v] < 2 for deg in degree) for v in range(n))
        k2 = sum(deg[u] == deg[v] == 1 for deg, p in zip(degree, placed) for u, v in p)
        bounds.append(m * n - len(edges) - comps - sum(max(a - r, 0) for a, r in zip(absent, needed))
                      - max(0, unc - k2))
    return bounds


@pytest.mark.parametrize("make", [
    k16, k27, lambda: k4_construction(2), lambda: broken_double_star(8), lambda: f2_construction(20),
], ids=["k16", "k27", "k4gen-m2", "bds-t8", "f2-n20"])
def test_star_count_bound_never_prunes_a_valid_decomposition(make):
    # each of these has m < n-1 forests, so the star-count test applies; the
    # bound must stay >= 0 on every prefix, and once every edge is placed it
    # is exactly 0
    d = make().decomposition
    assert d.forest_count < d.n - 1
    bounds = _star_count_bound_along(d)
    assert min(bounds) >= 0
    assert bounds[-1] == 0


def test_search_n8_results_pinned():
    # as the sweep above, at n = 8; the statuses were recorded with the
    # backtracker, which took 7.8 s for them, 6.1 s of it on (8, 2, 6)
    _, results, statuses = _sweep_digests([8], SearchBudget())
    assert statuses == "5080eedf968399696fa1c3e2a5b874ef243c8add8f3b031ef495cfa049c51e07"
    assert results == "9aa29d7ad5c11870054a82bbd0f85928a081a0bc03bea3c3e5fa53b8391c9ce0"


# ---------------------------------------------------------------------------
# the hypergraph engine: against the backtracker, the brute-force oracle and
# the center sets of known decompositions
# ---------------------------------------------------------------------------


def _engine_agrees_with_backtracker(n):
    """The search and the backtracker give every (n, k, m) with m <= n the
    same status, and so does hypergraph_exists on its own where m < n-1;
    each certificate is valid."""
    for k in range(1, n + 1):
        for m in range(1, n + 1):
            oracle = backtrack(n, k, m).status
            results = [exists_decomposition(n, k, m)] + ([hypergraph_exists(n, k, m)] if m < n - 1 else [])
            for res in results:
                assert (n, k, m, res.status) == (n, k, m, oracle)
                if res.certificate is not None:
                    assert validate_decomposition(res.certificate).ok
                    assert res.certificate.k == k
                    assert res.certificate.forest_count <= m


@pytest.mark.parametrize("n", range(2, 8))
def test_hypergraph_engine_matches_backtracker(n):
    _engine_agrees_with_backtracker(n)


@pytest.mark.skipif(not os.environ.get("STARFOREST_SLOW"),
                    reason="~20s, the backtracker visits 13.5M nodes on (8, 3, 5); set STARFOREST_SLOW=1 to run")
def test_hypergraph_engine_matches_backtracker_n8_slow():
    _engine_agrees_with_backtracker(8)


@pytest.mark.parametrize("n,k,m", _ORACLE_CASES)
def test_hypergraph_engine_matches_brute_force_oracle(n, k, m):
    feasible = any(worst <= k for _, worst in _valid_assignments(n, m))
    res = hypergraph_exists(n, k, m)
    assert res.status is (SearchStatus.FOUND if feasible else SearchStatus.EXHAUSTED_NOT_FOUND)
    if feasible:
        assert validate_decomposition(res.certificate).ok
        assert res.certificate.forest_count <= m


def _center_sets(d, flip):
    """Per vertex, the bitmask of the forests of d whose stars it centers; with
    flip, every one-leaf star takes its leaf as its center instead."""
    member = [0] * d.n
    for f, forest in enumerate(d.forests):
        for star in forest.stars:
            member[star.leaves[0] if flip and len(star.leaves) == 1 else star.center] |= 1 << f
    return member


@pytest.mark.parametrize("flip", [False, True], ids=["centers", "one-leaf-flipped"])
@pytest.mark.parametrize("make", [
    lambda: k27().decomposition, lambda: k16().decomposition,
    *(lambda t=t: broken_double_star(t).decomposition for t in range(2, 6)),
    *(lambda n=n: f2_construction(n).decomposition for n in range(4, 11, 2)),
    *(lambda nk=nk: f_exact(*nk).certificate for nk in sorted(_PINNED_CERTIFICATES)),
    lambda: k4_construction(10).decomposition, lambda: f3_construction(81).decomposition,
], ids=["k27", "k16", *(f"bds-t{t}" for t in range(2, 6)), *(f"f2-n{n}" for n in range(4, 11, 2)),
        *(f"search-{n}-{k}" for n, k in sorted(_PINNED_CERTIFICATES)), "k4gen-m10", "f3-n81"])
def test_center_sets_of_a_decomposition_admit_a_covering_matching(make, flip):
    # the reduction of hypergraph_exists, read forwards: the centers of a
    # valid decomposition admit a matching of every edge into a leaf slot.
    # On k4gen m=10 (n = 124) an augmenting path is longer than Python's
    # default recursion limit
    d = make()
    member = _center_sets(d, flip)
    assert len(set(member)) == d.n  # rule 6
    cover = search._leaf_cover(member)
    assert cover is not None
    assert sorted(cover.values()) == [u * d.n + v for u, v in complete_graph_edges(d.n)]


@pytest.mark.parametrize("member, covered", [
    ([1, 1, 2], False),  # equal masks: edge 0-1 has no slot
    ([1, 2, 3], False),  # distinct masks, but three edges share two slots: Hall fails
    ([1, 2, 4], True),
])
def test_leaf_cover_called_directly(member, covered):
    cover = search._leaf_cover(member)
    assert (cover is not None) == covered
    if covered:
        assert sorted(cover.values()) == [1, 2, 5]  # u * 3 + v for the edges 0-1, 0-2, 1-2


def test_only_distinct_masks_reach_the_matching(monkeypatch):
    # rule 6 cuts every tuple in which two vertices share a membership mask
    # before it is complete, so Kuhn's matching never sees one
    distinct = []

    def leaf_cover(member):
        distinct.append(len(set(member)) == len(member))
        return cover(member)

    cover = search._leaf_cover
    monkeypatch.setattr(search, "_leaf_cover", leaf_cover)
    for n in range(2, 8):
        for k in range(1, n + 1):
            for m in range(1, n):
                hypergraph_exists(n, k, m)
    assert len(distinct) > 100 and all(distinct)


@pytest.mark.parametrize("n,k,m", [(7, 3, 5), (7, 3, 6)], ids=["engine", "staircase"])
def test_a_certificate_that_fails_validation_raises(monkeypatch, run_optimized, n, k, m):
    # every FOUND certificate is validated before it is returned, also under
    # python -O: here the validator rejects everything
    monkeypatch.setattr(search, "validate_decomposition", lambda d: validate_decomposition(Decomposition(3, 1, ())))
    with pytest.raises(AssertionError, match=rf"search certificate for K_{n} with k = {k} fails validation"):
        exists_decomposition(n, k, m)
    proc = run_optimized(
        "from starforest import search\n"
        "from starforest.core import Decomposition\n"
        "check = search.validate_decomposition\n"
        "search.validate_decomposition = lambda d: check(Decomposition(3, 1, ()))\n"
        f"search.exists_decomposition({n}, {k}, {m})\n"
    )
    assert proc.returncode != 0
    assert f"AssertionError: a search certificate for K_{n} with k = {k} fails validation" in proc.stderr


def test_hypergraph_engine_exhausts_9_2_6_within_a_second():
    # F_2(9) >= 7; the backtracker does not finish (9, 2, 6) in 60 s
    start = time.perf_counter()
    assert hypergraph_exists(9, 2, 6).status is SearchStatus.EXHAUSTED_NOT_FOUND
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n,k,m,placements", [(7, 7, 5, 5), (8, 7, 6, 6)], ids=["7-7-5", "8-7-6"])
def test_hypergraph_engine_caps_center_sets_at_half_of_n(n, k, m, placements):
    # the stars of a forest are disjoint with at least two vertices each, so
    # rule 1 caps every center set at n // 2; a cap of min(k, n) took 6,110
    # and 36,403 placements here before rule 6
    res = hypergraph_exists(n, k, m)
    assert (res.status, res.nodes_explored) == (SearchStatus.FOUND, placements)
    assert validate_decomposition(res.certificate).ok


@pytest.mark.parametrize("k,placements", [(2, 37), (3, 488)], ids=["2", "3"])
def test_n8_m5_exhausts_through_exists_decomposition(k, placements):
    # the backtracker needs 3,679,924 and 13,497,802 nodes for these
    res = exists_decomposition(8, k, 5)
    assert (res.status, res.nodes_explored) == (SearchStatus.EXHAUSTED_NOT_FOUND, placements)


def test_f_exact_n9_two_star():
    # (9, 2, 6) exhausts in 327 placements and (9, 2, 7) is found in 7
    res = f_exact(9, 2)
    assert res.value == 7 == -(-3 * 9 // 4)
    assert res.attempts == ((6, SearchStatus.EXHAUSTED_NOT_FOUND), (7, SearchStatus.FOUND))
    assert res.nodes_explored == 327 + 7
    assert validate_decomposition(res.certificate).ok


# Every (n, k, m) with n <= 8 that visits a node: the placements the engine
# built and the ones rule 6 then cut, when it still cut built placements
_RULE6_CUTS = {
    (5, 2, 3): (3, 1), (5, 3, 3): (3, 1), (5, 4, 3): (3, 1), (5, 5, 3): (3, 1),
    (6, 2, 4): (35, 21), (6, 3, 4): (107, 68), (6, 4, 4): (107, 68), (6, 5, 4): (107, 68), (6, 6, 4): (107, 68),
    (7, 2, 4): (4, 2), (7, 2, 5): (374, 237), (7, 3, 4): (5, 3), (7, 3, 5): (11, 6), (7, 4, 4): (5, 3),
    (7, 4, 5): (11, 6), (7, 5, 4): (5, 3), (7, 5, 5): (11, 6), (7, 6, 4): (5, 3), (7, 6, 5): (11, 6),
    (7, 7, 4): (5, 3), (7, 7, 5): (11, 6),
    (8, 2, 5): (100, 63), (8, 2, 6): (22, 16), (8, 3, 5): (1594, 1106), (8, 3, 6): (17, 11),
    (8, 4, 5): (861, 635), (8, 4, 6): (31, 25), (8, 5, 5): (861, 635), (8, 5, 6): (31, 25),
    (8, 6, 5): (861, 635), (8, 6, 6): (31, 25), (8, 7, 5): (861, 635), (8, 7, 6): (31, 25),
    (8, 8, 5): (861, 635), (8, 8, 6): (31, 25),
}


def test_rule_6_skips_exactly_the_placements_it_used_to_cut():
    # the walk over C_f's shares skips a share only when rule 6 would cut
    # every placement through it, and yields no placement that rule 6 cuts,
    # so each node count is the old placements less the old cuts
    for n in range(1, 9):
        for k in range(1, n + 1):
            for m in range(1, n + 1):
                placements, cuts = _RULE6_CUTS.get((n, k, m), (0, 0))
                assert (n, k, m, exists_decomposition(n, k, m).nodes_explored) == (n, k, m, placements - cuts)


@pytest.mark.parametrize("n,k,m,placements", [(100, 2, 77, 77), (16, 3, 10, 822), (20, 3, 12, 462)])
def test_place_recurses_once_per_forest(n, k, m, placements):
    # the walk over a forest's classes is a generator, off the call stack
    # while the later forests are placed; were each forest's walk to stay on
    # it, the path to (100, 2, 77)'s certificate would hold 3,252 class
    # frames, past Python's default recursion limit of 1,000, and the
    # search would end out of budget
    res = hypergraph_exists(n, k, m)
    assert (res.status, res.nodes_explored) == (SearchStatus.FOUND, placements)
    assert validate_decomposition(res.certificate).ok
    assert res.certificate.forest_count <= m


@pytest.mark.parametrize("n,k,m,status,placements", [
    _slow(12, 4, 7, SearchStatus.EXHAUSTED_NOT_FOUND, 128_656, reason="~3s"),
    _slow(13, 2, 9, SearchStatus.EXHAUSTED_NOT_FOUND, 158_214, reason="~4s"),
    _slow(22, 3, 13, SearchStatus.FOUND, 4_604, reason="~1s"),
    _slow(23, 3, 13, SearchStatus.FOUND, 67_870, reason="~15s"),
], ids=["12-4-7", "13-2-9", "22-3-13", "23-3-13"])
def test_frontier_rows(n, k, m, status, placements):
    # (23, 3, 13) settles F_3(23) = 13 = ceil(5 * 23 / 9), the f3-counting
    # lower bound
    res = hypergraph_exists(n, k, m)
    assert (res.status, res.nodes_explored) == (status, placements)
    if status is SearchStatus.FOUND:
        assert validate_decomposition(res.certificate).ok
        assert res.certificate.forest_count <= m

import hashlib
import os
from functools import lru_cache

import pytest

from starforest import (
    PreconditionError,
    SearchBudget,
    SearchStatus,
    Star,
    StarForest,
    exists_decomposition,
    f_exact,
    validate_decomposition,
)
from starforest.fileio import serialize


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


@pytest.mark.parametrize("n,want", [(4, 3), (5, 4), (6, 5)])
def test_f_exact_two_star_values(n, want):
    res = f_exact(n, 2)
    assert res.value == want == -(-3 * n // 4)
    assert validate_decomposition(res.certificate).ok


def test_f_exact_brute_force_exhaustions_below_optimum():
    # full cross-checks, independent of the lower-bound formulas
    assert exists_decomposition(5, 2, 3).status is SearchStatus.EXHAUSTED_NOT_FOUND
    assert exists_decomposition(6, 2, 4).status is SearchStatus.EXHAUSTED_NOT_FOUND
    assert exists_decomposition(7, 2, 4).status is SearchStatus.EXHAUSTED_NOT_FOUND
    assert exists_decomposition(8, 2, 4).status is SearchStatus.EXHAUSTED_NOT_FOUND


def test_column_rule_prunes_relabelled_columns():
    # node counts measured when the vertex-symmetry column rule landed; the
    # search without it visits 210872 and 235321 nodes here
    assert exists_decomposition(7, 2, 4).nodes_explored <= 15_188
    assert exists_decomposition(7, 3, 4).nodes_explored <= 17_194


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


@pytest.mark.skipif(not os.environ.get("STARFOREST_SLOW"),
                    reason="~8s exhaustion; set STARFOREST_SLOW=1 to run")
def test_f_exact_n7_two_star_slow():
    assert f_exact(7, 2).value == 6  # matches ceil(3*7/4)


def test_certificates_respect_budgets():
    res = f_exact(6, 2)
    cert = res.certificate
    assert cert.forest_count <= res.value
    assert all(len(f.stars) <= 2 for f in cert.forests)


def test_budget_exceeded_signalling():
    res = exists_decomposition(6, 2, 4, SearchBudget(max_nodes=10))
    assert res.status is SearchStatus.BUDGET_EXCEEDED
    assert res.certificate is None


def test_f_exact_budget_bracketing():
    res = f_exact(6, 2, SearchBudget(max_nodes=10))
    assert res.status is SearchStatus.BUDGET_EXCEEDED
    assert res.value is None
    lo, hi = res.interval
    assert lo <= 5 <= hi


def test_certificate_deterministic():
    a = f_exact(6, 2)
    b = f_exact(6, 2)
    assert a.certificate == b.certificate
    assert a.nodes_explored == b.nodes_explored


def test_exhaustion_tokens_recorded():
    res = f_exact(4, 2)
    assert res.attempts == ((3, SearchStatus.FOUND),)
    res = f_exact(6, 6)  # floor formula gives 4; found immediately
    assert res.attempts[-1][1] is SearchStatus.FOUND


def test_search_parameter_validation():
    with pytest.raises(PreconditionError):
        exists_decomposition(0, 1, 1)
    with pytest.raises(PreconditionError):
        SearchBudget(max_nodes=0)


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
    lexmin = next((a for a, worst in _valid_assignments(n, m) if worst <= k), None)
    res = exists_decomposition(n, k, m)
    if lexmin is None:
        assert res.status is SearchStatus.EXHAUSTED_NOT_FOUND
    else:
        assert res.status is SearchStatus.FOUND
        assert _certificate_assignment(res.certificate) == lexmin


# sha256 of serialize(f_exact(n, k).certificate, family="search"), recorded
# before the column rule was added to the search
_PINNED_CERTIFICATES = {
    (6, 2): "7e205ca34290ea78fccbb69812a5305e34ac983685353126c8f6982a5a157a34",
    (6, 3): "be071fe4d68b65357e69bd484b3ed443de4b45e4d84c169b7460d450d6cc0266",
    (7, 3): "39682799999acaaded3bc11a8f023657a54a41a99d248ed0bafaec82e409b5a5",
    (7, 7): "ae3b03a1e2444467c312ffb867897dc8b92cdabc3d1a3b134371dc7165d00c29",
}


@pytest.mark.parametrize("n,k", sorted(_PINNED_CERTIFICATES))
def test_pinned_certificates(n, k):
    text = serialize(f_exact(n, k).certificate, family="search")
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_CERTIFICATES[(n, k)]

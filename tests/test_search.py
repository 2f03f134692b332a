import os

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
                    reason="~90s exhaustion; set STARFOREST_SLOW=1 to run")
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

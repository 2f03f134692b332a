import hashlib

import pytest

from starforest import (
    PreconditionError,
    SearchBudget,
    bound_report,
    bounds,
    conjecture_value,
    f3_equality_feasible,
    lb_bds,
    lb_f3,
    lb_star_forest,
)
from starforest.bounds import safe_lower_bound
from starforest.construct import FAMILIES


def test_lb_star_forest_values():
    assert lb_star_forest(4) == 3
    assert lb_star_forest(16) == 9
    # the formula exceeds F(K_2) = 1 and F(K_3) = 2, so no bound is quoted there
    assert lb_star_forest(2) is None
    assert lb_star_forest(3) is None


def test_lb_bds_values():
    assert lb_bds(16, 4) == 10
    assert lb_bds(16, 8) is None  # n = 2k
    assert lb_bds(28, 4) == 16
    assert lb_bds(15, 4) is None  # odd
    assert lb_bds(4, 1) is None  # below the uniqueness range


def test_lb_f3_values():
    assert lb_f3(27) == 15
    assert lb_f3(9) == 5
    assert lb_f3(54) == 30
    assert lb_f3(1) is None and lb_f3(2) is None  # below the counting argument's range


def test_f3_equality_feasible():
    assert not f3_equality_feasible(9)  # 30 < 36
    assert not f3_equality_feasible(18)  # 150 < 153
    assert f3_equality_feasible(27)  # 360 >= 351
    with pytest.raises(PreconditionError):
        f3_equality_feasible(12)


def test_conjecture_values():
    assert conjecture_value(27, 3) == 18
    assert conjecture_value(16, 4) == 10
    assert conjecture_value(28, 4) == 18
    assert conjecture_value(5, 1) is None  # k < 2
    assert conjecture_value(3, 5) is None  # n < k


def test_safe_lower_bound_small_n():
    # must never exceed the true optimum, even where the formulas do
    assert safe_lower_bound(2, 1)[0] == 1
    assert safe_lower_bound(3, 1)[0] == 2
    assert safe_lower_bound(4, 1)[0] == 3
    assert safe_lower_bound(6, 2) == (5, "bds-uniqueness")


def test_bound_report_disproof_table():
    r = bound_report(27, 3)
    assert (r.lower, r.upper, r.conjecture_value) == (15, 15, 18)
    assert r.conjecture_refuted_here

    r = bound_report(28, 4)
    assert (r.lower, r.upper, r.conjecture_value) == (16, 16, 18)
    assert r.conjecture_refuted_here

    r = bound_report(16, 4)
    assert (r.lower, r.upper, r.conjecture_value) == (10, 10, 10)
    assert not r.conjecture_refuted_here


def test_bound_report_sources():
    r = bound_report(27, 3)
    assert r.lower_source == "f3-counting"
    assert r.upper_source == "construction:f3"
    r = bound_report(28, 4)
    assert r.upper_source == "construction:k4gen"


def test_bound_report_quotes_bds_where_no_other_family_reaches_it():
    # for even n >= 6 with 2k > n the broken double star's n/2+1 forests meet
    # the Akiyama-Kano bound; at 2k = n the conjecture family ties it first
    for n, k in ((6, 4), (10, 6), (14, 8)):
        r = bound_report(n, k)
        assert (r.lower, r.upper, r.upper_source) == (n // 2 + 1, n // 2 + 1, "construction:bds")
    assert bound_report(8, 4).upper_source == "construction:conjecture"


def test_bound_report_with_search():
    # a budget alone turns the search on
    r = bound_report(5, 2, budget=SearchBudget())
    assert r.lower == r.upper == 4
    assert r.upper_source == "search"


def test_bound_report_search_out_of_budget_raises_only_the_lower_bound():
    # m=6 exhausts in 327 center-set placements, then m=7, which needs 7
    # more, runs out of budget one placement short
    r = bound_report(9, 2, budget=SearchBudget(max_nodes=327 + 6))
    assert (r.lower, r.lower_source, r.upper, r.upper_source) == (7, "search", None, None)


def test_bound_report_search_settles_single_star_rows_at_the_root():
    # six or seven single centers cannot cover nine vertices, so m=6 and m=7
    # exhaust with 0 nodes, and F_1(9) = 8 = n-1 needs no search
    r = bound_report(9, 1, budget=SearchBudget(max_nodes=2047))
    assert (r.lower, r.lower_source, r.upper, r.upper_source) == (8, "search", 8, "search")


def test_bound_report_construction_sizes_always_validated():
    # upper bounds are realized forest counts of validated constructions
    r = bound_report(54, 3)
    assert r.upper == 30
    r = bound_report(12, 2)
    assert r.upper == 9  # ceil(36/4)


def test_bound_report_builds_one_construction_per_row(monkeypatch):
    # only the family quoted as the upper bound is built, once, and rows no family reaches build none
    calls = []
    for fam in FAMILIES.values():
        if fam.upper is not None:
            real = getattr(bounds, fam.builder)
            monkeypatch.setattr(bounds, fam.builder, lambda *args, real=real: calls.append(args) or real(*args))
    for k in range(1, 9):
        for n in range(k, 61):
            calls.clear()
            r = bound_report(n, k)
            candidates = [name for name, fam in FAMILIES.items() if fam.upper and fam.upper(n, k)]
            assert len(calls) == (1 if candidates else 0), (n, k)
            assert (r.upper_source is None) == (not candidates), (n, k)


def test_bound_report_rejects_a_size_formula_the_build_disagrees_with_under_optimize(run_optimized):
    # the size formula only picks the build; a forest count it misstates must still fail with `python -O`
    proc = run_optimized(
        "from starforest import bound_report, construct\n"
        "construct.FAMILIES['f2'] = construct.FAMILIES['f2']._replace(size=lambda n: 1)\n"
        "bound_report(12, 2)\n"
    )
    assert proc.returncode != 0
    assert "AssertionError: f2(12) built 9 forests, its size formula says 1" in proc.stderr


def test_bound_report_no_construction_for_k1():
    r = bound_report(9, 1)
    assert r.upper is None
    assert r.conjecture_value is None


def test_bound_report_rejects_valueless_search_result_under_optimize(run_optimized):
    # the FOUND-implies-value check must not vanish with `python -O`
    proc = run_optimized(
        "from starforest import bound_report, search\n"
        "real = search.f_exact\n"
        "search.f_exact = lambda n, k, budget=None: real(n, k, budget)._replace(value=None)\n"
        "bound_report(4, 2, budget=search.SearchBudget())\n"
    )
    assert proc.returncode != 0
    assert "AssertionError: search reported F_2(4) found without a value" in proc.stderr


# sha256 of repr(bound_report(n, k)) over k <= n <= 109: any change of a
# value, a source or the tie-break between equal bounds moves a digest
_BOUND_DIGESTS = {
    1: "4881f47dafcd52625e83fe22dc1817231f25ce2c89b187d37894e1c5613999b1",
    2: "8aca46cf53bb50c30b3e5338c1618bc05535e6316701121831d358bb621cf8a3",
    3: "61daf53c7da251b4db9daec203d4f1830ec49309910bf9dd48d17a4cbd1bae7a",
    4: "6befb93d3221ec36432dfc7bde4516733a3d93bdc4744b6bfd998279f8f1c91d",
    5: "1260a97b639aade938637817c407ce748cac111aea5dda222156a9d4ce0f735f",
    6: "532cac1d77cac481df4be779a87b88c210a361fb06cc01398d13213bd7f85530",
    7: "837eeb5af65d0c812acd4419a88283b7f0dfe01735e86578ed02834dbce68ead",
    8: "96bc73b9cb1f1fd10426eae05536095d7b385b1b2bf400c518ffe67908d54a27",
}


@pytest.mark.parametrize("k", sorted(_BOUND_DIGESTS))
def test_bound_report_pinned(k):
    h = hashlib.sha256()
    for n in range(k, 110):
        h.update(repr(bound_report(n, k)).encode())
    assert h.hexdigest() == _BOUND_DIGESTS[k]


def test_bound_report_with_search_pinned():
    # every k <= n <= 7; F_2(7) = 6 fits the node budget (1431 nodes), so its
    # row reads lower = upper = 6 from the search
    h = hashlib.sha256()
    for n in range(1, 8):
        for k in range(1, n + 1):
            h.update(repr(bound_report(n, k, budget=SearchBudget(max_nodes=20_000))).encode())
    assert h.hexdigest() == "59bd751924dfa6b1747ab125b277912d9e8f5421200d049b0fb69667570d650e"

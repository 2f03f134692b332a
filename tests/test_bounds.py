import pytest

from starforest import (
    PreconditionError,
    bound_report,
    conjecture_value,
    f3_equality_feasible,
    lb_bds,
    lb_f3,
    lb_star_forest,
)
from starforest.bounds import safe_lower_bound


def test_lb_star_forest_values():
    assert lb_star_forest(4) == 3
    assert lb_star_forest(16) == 9
    assert lb_star_forest(2) == 2  # formula value; exceeds the truth at n=2


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


def test_bound_report_with_search():
    r = bound_report(5, 2, use_search=True)
    assert r.lower == r.upper == 4
    assert r.upper_source == "search"


def test_bound_report_construction_sizes_always_validated():
    # upper bounds are realized forest counts of validated constructions
    r = bound_report(54, 3)
    assert r.upper == 30
    r = bound_report(12, 2)
    assert r.upper == 9  # ceil(36/4)


def test_bound_report_no_construction_for_k1():
    r = bound_report(9, 1)
    assert r.upper is None
    assert r.conjecture_value is None


def test_bound_report_rejects_valueless_search_result_under_optimize(run_optimized):
    # the FOUND-implies-value check must not vanish with `python -O`
    proc = run_optimized(
        "import dataclasses\n"
        "from starforest import bound_report, search\n"
        "real = search.f_exact\n"
        "search.f_exact = lambda n, k, budget=None: dataclasses.replace(real(n, k, budget), value=None)\n"
        "bound_report(4, 2, use_search=True)\n"
    )
    assert proc.returncode != 0
    assert "AssertionError: search reported F_2(4) found without a value" in proc.stderr

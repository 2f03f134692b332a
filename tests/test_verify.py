import dataclasses

import pytest

from starforest import (
    CoverageReport,
    Decomposition,
    NotApplicableError,
    PreconditionError,
    RootHypergraph,
    Star,
    StarForest,
    broken_double_star,
    check_counting_inequality,
    check_degree1_placement,
    check_no_isolated,
    conjecture_construction,
    degree_profile,
    f2_construction,
    is_broken_double_star,
    k16,
    k27,
    root_hypergraph,
    validate_decomposition,
)


def k3_decomposition() -> Decomposition:
    return Decomposition(
        n=3, k=2,
        forests=(StarForest((Star(0, (1, 2)),)), StarForest((Star(1, (2,)),))),
    )


def staircase(n: int) -> Decomposition:
    forests = tuple(StarForest((Star(i, tuple(range(i + 1, n))),)) for i in range(n - 1))
    return Decomposition(n=n, k=1, forests=forests)


def test_validate_k3():
    assert validate_decomposition(k3_decomposition()).ok


def test_validate_k27_full_coverage():
    rep = validate_decomposition(k27().decomposition)
    assert rep.ok
    assert rep.coverage.total_edges == 351
    assert not rep.coverage.missing and not rep.coverage.duplicated


def test_validate_detects_single_missing_edge():
    d = k27().decomposition
    # drop one leaf from one star
    star = d.forests[0].stars[0]
    smaller = Star(star.center, star.leaves[:-1])
    forests = (StarForest((smaller,) + d.forests[0].stars[1:]),) + d.forests[1:]
    rep = validate_decomposition(dataclasses.replace(d, forests=forests))
    assert not rep.ok
    assert len(rep.coverage.missing) == 1
    assert not rep.coverage.duplicated


def test_validate_separates_malformed_from_coverage():
    overlapping = Decomposition(
        n=4, k=2,
        forests=(StarForest((Star(0, (1, 2)), Star(2, (3,)))),),
    )
    rep = validate_decomposition(overlapping)
    assert rep.malformed and not rep.ok


def test_validate_out_of_range_vertex():
    d = Decomposition(n=3, k=1, forests=(StarForest((Star(0, (5,)),)),))
    rep = validate_decomposition(d)
    assert any("out of range" in msg for msg in rep.malformed)
    assert not rep.ok
    # at n=1 the only edge lies outside K_1, so nothing is missing or duplicated
    d = Decomposition(n=1, k=1, forests=(StarForest((Star(0, (1,)),)),))
    rep = validate_decomposition(d)
    assert rep.malformed == ("forest 0: vertex 1 out of range for n=1",)
    assert rep.coverage == CoverageReport(total_edges=0, missing=(), duplicated=())
    assert not rep.ok


def test_validate_component_bound():
    d = Decomposition(n=4, k=1, forests=(StarForest((Star(0, (1,)), Star(2, (3,)))),))
    rep = validate_decomposition(d)
    assert rep.k_violations == (0,)


def test_root_hypergraph_single_forest():
    d = Decomposition(n=4, k=2, forests=(StarForest((Star(0, (1,)), Star(2, (3,)))),))
    assert root_hypergraph(d).hyperedges == (frozenset({0, 2}),)


def test_root_hypergraph_broken_double_star():
    t = 4
    d = broken_double_star(t).decomposition
    rh = root_hypergraph(d)
    assert rh.hyperedges[:t] == tuple(frozenset({i, i + t}) for i in range(t))
    assert rh.hyperedges[t] == frozenset(range(t))


def test_no_isolated_k27_and_k16():
    for out in (k27(), k16()):
        rep = check_no_isolated(root_hypergraph(out.decomposition))
        assert rep.applicable and rep.ok and not rep.isolated


def test_no_isolated_vacuous_for_star_decomposition():
    rep = check_no_isolated(root_hypergraph(staircase(4)))
    assert not rep.applicable
    assert rep.isolated == (3,)
    assert rep.ok


def test_degree_profile_toy():
    rh = RootHypergraph(3, (frozenset({0, 1}), frozenset({0, 2})))
    prof = degree_profile(rh)
    assert prof.p == {1: 2, 2: 1}
    assert prof.r == 2
    assert prof.degree_sum == 4


@pytest.mark.parametrize("degrees,message", [
    ("[1] * (self.n + 1)", "degree profile counts 4 vertices, n=3"),
    ("[0] * self.n", "degree sum 0 != 3m - r = 4"),
], ids=["vertex-count", "degree-sum"])
def test_degree_profile_identities_checked_under_optimize(run_optimized, degrees, message):
    # a RootHypergraph whose degrees() disagrees with its hyperedges must be
    # rejected even with `python -O`
    proc = run_optimized(
        "from starforest import RootHypergraph, degree_profile\n"
        "class Skewed(RootHypergraph):\n"
        f"    def degrees(self): return {degrees}\n"
        "degree_profile(Skewed(3, (frozenset({0, 1}), frozenset({0, 2}))))\n"
    )
    assert proc.returncode != 0
    assert f"AssertionError: {message}" in proc.stderr


def test_degree_profile_k27():
    # extraction gives nine once-centers (bottom layer) and eighteen twice-centers
    prof = degree_profile(root_hypergraph(k27().decomposition))
    assert prof.m == 15 and prof.r == 0
    assert prof.p == {1: 9, 2: 18}
    assert prof.degree_sum == 45 == 3 * prof.m - prof.r
    assert prof.isolated == 0


def test_degree_profile_broken_double_star():
    t = 3
    prof = degree_profile(root_hypergraph(broken_double_star(t).decomposition))
    assert prof.p == {1: t, 2: t}


def test_counting_inequality_k27_holds_with_equality():
    report, bipartite = check_counting_inequality(root_hypergraph(k27().decomposition))
    assert report.ok
    assert report.lhs == report.rhs == 18
    assert report.bipartite_edge_count == 18
    assert bipartite.v1_size == 9
    assert report.counting_applicable
    assert report.counting_lhs == report.counting_rhs == 0


def test_counting_inequality_flags_impossible_profile():
    rh = RootHypergraph(3, (frozenset({0, 1}), frozenset({0, 2})))
    report, _ = check_counting_inequality(rh)
    assert not report.ok
    assert report.lhs == 2 and report.rhs == 1


def test_counting_not_applicable_for_large_hyperedges():
    with pytest.raises(NotApplicableError):
        check_counting_inequality(root_hypergraph(k16().decomposition))


def test_degree1_placement_k27():
    rep = check_degree1_placement(k27().decomposition)
    assert rep.ok


def test_degree1_placement_f2_construction():
    assert check_degree1_placement(f2_construction(8).decomposition).ok


def test_degree1_placement_requires_validity():
    d = Decomposition(n=3, k=1, forests=(StarForest((Star(0, (1,)),)),))
    with pytest.raises(PreconditionError):
        check_degree1_placement(d)


def test_degree1_placement_not_applicable_for_star_decomposition():
    with pytest.raises(NotApplicableError):
        check_degree1_placement(staircase(5))


def test_broken_double_star_recognizer_accepts_construction():
    for t in (2, 3, 4, 6):
        assert is_broken_double_star(broken_double_star(t).decomposition)


def test_broken_double_star_recognizer_survives_relabeling():
    d = broken_double_star(3).decomposition
    perm = [3, 5, 0, 4, 1, 2]
    forests = tuple(
        StarForest(tuple(Star(perm[s.center], tuple(perm[v] for v in s.leaves)) for s in f.stars))
        for f in d.forests
    )
    assert is_broken_double_star(dataclasses.replace(d, forests=forests))


def test_broken_double_star_recognizer_rejects_k16():
    assert not is_broken_double_star(k16().decomposition)


def test_broken_double_star_recognizer_rejects_other_counts():
    assert not is_broken_double_star(conjecture_construction(12, 2).decomposition)


def test_broken_double_star_not_applicable_odd_n():
    with pytest.raises(NotApplicableError):
        is_broken_double_star(k27().decomposition)


def test_matching_completion_of_conjecture_at_k_equals_t():
    # with k = n/2 the whole matching fits into one forest: the t+1 object
    d = conjecture_construction(8, 4).decomposition
    assert is_broken_double_star(d)

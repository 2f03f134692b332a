import dataclasses
import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starforest import (
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
    cli,
    complete_graph_edges,
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


def test_coverage_reports_compare_by_claim():
    # a lazy missing list compares and hashes by its claim, as a tuple of edges did
    full, empty = (validate_decomposition(Decomposition(n=4, k=1, forests=fs)).coverage
                   for fs in (staircase(4).forests, ()))
    assert full == validate_decomposition(staircase(4)).coverage
    assert hash(full) == hash(validate_decomposition(staircase(4)).coverage)
    assert full != empty and full.missing != empty.missing


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
    cov = rep.coverage
    assert (cov.total_edges, tuple(cov.missing), cov.duplicated) == (0, (), ())
    assert not rep.ok


def brute_coverage(d: Decomposition) -> tuple[tuple, tuple]:
    """Missing and duplicated edges straight from their definitions, by list scans."""
    covered = [tuple(sorted((s.center, leaf))) for f in d.forests for s in f.stars for leaf in s.leaves]
    missing = tuple(e for e in complete_graph_edges(d.n) if e not in covered)
    duplicated = tuple((e, covered.count(e)) for e in sorted(set(covered)) if covered.count(e) > 1)
    return missing, duplicated


# slices that a tuple of the oracle's missing edges answers the same way
SLICES = [slice(None, 5), slice(None, 20), slice(-3, None), slice(2, None, 3), slice(4, 1), slice(None, None, -2)]


def missing_rows_json(missing) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        cli._write_missing_rows(missing)
    return f"[{out.getvalue()}]"


def assert_coverage_matches_oracle(d: Decomposition) -> None:
    cov = validate_decomposition(d).coverage
    missing, duplicated = brute_coverage(d)
    lazy = cov.missing
    assert (tuple(lazy), cov.duplicated) == (missing, duplicated)
    assert type(cov.duplicated) is tuple
    assert (len(lazy), lazy.size, bool(lazy)) == (len(missing), len(missing), bool(missing))
    assert [lazy[s] for s in SLICES] == [missing[s] for s in SLICES]
    assert [lazy[i] for i in range(-len(missing), len(missing))] == [*missing, *missing]
    for i in (len(missing), -len(missing) - 1):
        with pytest.raises(IndexError):
            lazy[i]
    # verify --json writes the list row by row; its text is json.dumps of the list
    assert missing_rows_json(lazy) == json.dumps(list(missing))


def one_star_forests(n: int, stars) -> Decomposition:
    return Decomposition(n=n, k=1, forests=tuple(StarForest((Star(c, tuple(ls)),)) for c, ls in stars))


@pytest.mark.parametrize("n, stars", [
    (1, []),
    (2, []),
    (12, []),
    (1, [(0, [1]), (0, [1])]),  # only an out-of-range edge, duplicated
    (2, [(0, [1]), (1, [0])]),
    (4, [(0, [5]), (6, [1]), (3, [4]), (1, [5]), (5, [1])]),  # out of range covers nothing in K_4
    (6, [(0, [1, 2, 3, 4, 5]), (0, [5]), (1, [2, 3, 4, 5]), (3, [5]), (4, [5]), (4, [5])]),  # full, empty, partial rows
    (5, [(0, [1, 2, 3]), (1, [2, 3, 4]), (2, [4, 7])]),  # one missing edge in each of rows 0, 2 and 3
], ids=["n1", "n2", "empty12", "n1-stray-dup", "n2-dup", "out-of-range", "rows", "single-edge-rows"])
def test_coverage_matches_oracle_cases(n, stars):
    assert_coverage_matches_oracle(one_star_forests(n, stars))


@st.composite
def partial_claims(draw):
    n = draw(st.integers(1, 9))
    # a staircase with some leaves dropped gives full, partial and empty rows
    stairs = [(u, draw(st.lists(st.integers(u + 1, n - 1), unique=True, max_size=n - 1 - u))) for u in range(n - 1)]
    # extra stars duplicate edges and reach vertices n..n+2, outside K_n
    vertex = st.integers(0, n + 2)
    extra = draw(st.lists(st.tuples(vertex, st.lists(vertex, unique=True, min_size=1, max_size=4)), max_size=6))
    stars = [(c, [v for v in ls if v != c]) for c, ls in stairs + extra]
    return one_star_forests(n, [(c, ls) for c, ls in stars if ls])


@settings(max_examples=300, deadline=None)
@given(partial_claims())
def test_coverage_matches_oracle(d):
    assert_coverage_matches_oracle(d)


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
    rh = root_hypergraph(k27().decomposition)
    report = check_counting_inequality(rh)
    assert report.ok
    assert report.lhs == report.rhs == 18
    assert report.bipartite_edge_count == 18
    assert degree_profile(rh).p_j(1) == 9
    assert report.counting_lhs == report.counting_rhs == 0


def test_counting_inequality_flags_impossible_profile():
    rh = RootHypergraph(3, (frozenset({0, 1}), frozenset({0, 2})))
    report = check_counting_inequality(rh)
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

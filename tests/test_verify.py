import io
import json
import pickle
import random
from collections import Counter
from contextlib import redirect_stdout
from itertools import chain, islice, product

import pytest
from hypothesis import assume, given, settings
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
    exists_decomposition,
    f2_construction,
    is_broken_double_star,
    k16,
    k27,
    root_hypergraph,
    validate_decomposition,
    verify,
)


def k3_decomposition() -> Decomposition:
    return Decomposition(
        n=3, k=2,
        forests=(StarForest((Star(0, (1, 2)),)), StarForest((Star(1, (2,)),))),
    )


def staircase(n: int) -> Decomposition:
    forests = tuple(StarForest((Star(i, tuple(range(i + 1, n))),)) for i in range(n - 1))
    return Decomposition(n=n, k=1, forests=forests)


def placement(d: Decomposition):
    return check_degree1_placement(validate_decomposition(d))


def is_bds(d: Decomposition) -> bool:
    return is_broken_double_star(validate_decomposition(d))


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
    rep = validate_decomposition(d._replace(forests=forests))
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


def missing_rows_json(missing) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        cli._write_missing_rows(missing, [str(v) for v in range(missing.n)])
    return f"[{out.getvalue()}]"


def assert_coverage_matches_oracle(d: Decomposition) -> None:
    cov = validate_decomposition(d).coverage
    missing, duplicated = brute_coverage(d)
    lazy = cov.missing
    assert (tuple(lazy), cov.duplicated) == (missing, duplicated)
    assert type(cov.duplicated) is tuple
    assert (len(lazy), lazy.size, bool(lazy)) == (len(missing), len(missing), bool(missing))
    # callers take a prefix with islice; each one starts a fresh walk
    for j in (0, 1, 5, 20):
        assert tuple(islice(lazy, j)) == missing[:j]
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
    (4, [(0, [1, 6]), (6, [0]), (0, [1])]),  # row 0: covered, duplicated in range, duplicated out of range
], ids=["n1", "n2", "empty12", "n1-stray-dup", "n2-dup", "out-of-range", "rows", "single-edge-rows", "mixed-row"])
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


def brute_structure(d: Decomposition) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Malformed messages and k violations straight from their definitions, by list scans."""
    malformed = []
    for fi, f in enumerate(d.forests):
        occurrences = [v for s in f.stars for v in (s.center, *s.leaves)]
        for i, v in enumerate(occurrences):
            if v >= d.n:
                malformed.append(f"forest {fi}: vertex {v} out of range for n={d.n}")
            if v in occurrences[:i]:
                malformed.append(f"forest {fi}: vertex {v} appears in more than one star")
    return tuple(malformed), tuple(fi for fi, f in enumerate(d.forests) if len(f.stars) > d.k)


def assert_report_matches_oracle(d: Decomposition) -> None:
    rep = validate_decomposition(d)
    missing, duplicated = brute_coverage(d)
    malformed, k_violations = brute_structure(d)
    ok = not (missing or duplicated or malformed or k_violations)
    assert (rep.ok, rep.malformed, rep.k_violations, rep.coverage.duplicated, tuple(rep.coverage.missing)) == (
        ok, malformed, k_violations, duplicated, missing)
    assert rep.coverage.missing.size == len(missing)


# valid multi-star decompositions, each covering E(K_n) in exactly n(n-1)/2 slots
VALID_CLAIMS = {
    "staircase": lambda: staircase(7),
    "k27": lambda: k27().decomposition,
    **{f"bds{t}": (lambda t=t: broken_double_star(t).decomposition) for t in range(2, 6)},
    **{f"f2_{n}": (lambda n=n: f2_construction(n).decomposition) for n in (4, 6, 8, 10)},
}


@st.composite
def slot_preserving_mutants(draw):
    """A valid claim with one change that keeps its slot total, so a slot count alone cannot catch it."""
    d = VALID_CLAIMS[draw(st.sampled_from(sorted(VALID_CLAIMS)))]()
    forests = [[(s.center, list(s.leaves)) for s in f.stars] for f in d.forests]
    fi = draw(st.integers(0, len(forests) - 1))
    si = draw(st.integers(0, len(forests[fi]) - 1))
    c, leaves = forests[fi][si]
    li = draw(st.integers(0, len(leaves) - 1))
    kind = draw(st.sampled_from(["overlap", "repoint", "out-of-range", "over-k", "merge"]))
    if kind == "overlap":  # the star trades a leaf for one of its vertices joining another star of the forest
        others = [sj for sj in range(len(forests[fi])) if sj != si]
        assume(others and len(leaves) >= 2)
        del leaves[li]
        forests[fi][draw(st.sampled_from(others))][1].append(draw(st.sampled_from([c, *leaves])))
    elif kind == "repoint":  # one edge doubled, another missing
        free = [w for w in range(d.n) if w != c and w not in leaves]
        assume(free)
        leaves[li] = draw(st.sampled_from(free))
    elif kind == "out-of-range":
        leaves[li] = draw(st.integers(d.n, d.n + 2))
    elif kind == "over-k":  # the edge moves, as a star of its own, into another forest that already has k stars
        full = [fj for fj, f in enumerate(forests) if fj != fi and len(f) >= d.k]
        assume(full)
        forests[draw(st.sampled_from(full))].append((c, [leaves.pop(li)]))
    else:  # two forests become one: every edge once, but stars overlap or exceed k
        assume(len(forests) >= 2)
        forests[fi - 1] += forests.pop(fi)
    stars = (tuple(Star(c, tuple(ls)) for c, ls in f if ls) for f in forests)
    return d._replace(forests=tuple(map(StarForest, stars)))


@settings(max_examples=300, deadline=None)
@given(slot_preserving_mutants())
def test_bulk_pass_never_accepts_a_faulty_claim(d):
    assert_report_matches_oracle(d)


@pytest.mark.parametrize("name", sorted(VALID_CLAIMS))
def test_bulk_pass_accepts_valid_claims(name):
    d = VALID_CLAIMS[name]()
    assert d.total_edge_slots() == d.n * (d.n - 1) // 2
    assert_report_matches_oracle(d)


@pytest.mark.parametrize("d", [
    Decomposition(n=1, k=1, forests=(StarForest((Star(0, (1,)),)),)),  # a stray star at n=1
    Decomposition(n=1, k=1, forests=()),  # the empty claim of K_1 is valid
    Decomposition(n=4, k=1, forests=()),
    # n(n-1)/2 slots: 0-1 twice, 1-2 missing
    Decomposition(n=3, k=1, forests=(StarForest((Star(0, (1, 2)),)), StarForest((Star(1, (0,)),)))),
    # n(n-1)/2 slots with the doubled edge inside one forest
    Decomposition(n=3, k=2, forests=(StarForest((Star(0, (1, 2)), Star(1, (0,)))),)),
    # a valid claim with an empty forest
    Decomposition(n=3, k=1, forests=(StarForest(()), *staircase(3).forests)),
    # every edge once, but the two stars of the one forest share vertices 1 and 2
    Decomposition(n=3, k=2, forests=(StarForest((Star(0, (1, 2)), Star(1, (2,)))),)),
    # every edge once and the stars disjoint, but forest 1 has two stars for k=1
    Decomposition(n=4, k=1, forests=(StarForest((Star(0, (1, 2)),)), StarForest((Star(1, (2,)), Star(0, (3,)))),
                                     StarForest((Star(3, (1, 2)),)))),
], ids=["n1-stray", "n1-empty", "n4-empty", "slots-with-duplicate", "slots-with-duplicate-in-forest", "empty-forest",
        "exact-cover-overlap", "exact-cover-over-k"])
def test_bulk_pass_edge_cases(d):
    assert_report_matches_oracle(d)


def test_complete_cover_missing_edges_equal_either_form():
    bulk = validate_decomposition(staircase(5)).coverage.missing  # a valid claim's complete cover
    stray = Decomposition(n=5, k=1, forests=(*staircase(5).forests, StarForest((Star(0, (7,)),))))
    walked = validate_decomposition(stray).coverage.missing  # the walk: full cover, one malformed star
    assert (bulk.size, len(bulk), bool(bulk), tuple(bulk), list(bulk.rows())) == (0, 0, False, (), [])
    assert bulk == walked and walked == bulk and hash(bulk) == hash(walked)
    assert bulk != validate_decomposition(Decomposition(n=5, k=1, forests=())).coverage.missing
    assert bulk != validate_decomposition(staircase(4)).coverage.missing


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


@pytest.mark.parametrize("degree,message", [
    ("Counter({0: 2, 1: 1, 3: 1})", "degree table names a vertex outside 0..2"),
    ("Counter()", "degree sum 0 != 3m - r = 4"),
], ids=["vertex-count", "degree-sum"])
def test_degree_profile_identities_checked_under_optimize(run_optimized, degree, message):
    # a RootHypergraph whose degree table disagrees with its hyperedges must
    # be rejected even with `python -O`
    proc = run_optimized(
        "from collections import Counter\n"
        "from starforest import RootHypergraph, degree_profile\n"
        "class Skewed(RootHypergraph):\n"
        f"    degree = {degree}\n"
        "degree_profile(Skewed(3, (frozenset({0, 1}), frozenset({0, 2}))))\n"
    )
    assert proc.returncode != 0
    assert f"AssertionError: {message}" in proc.stderr


def test_degree_profile_k27():
    # extraction gives nine once-centers (bottom layer) and eighteen twice-centers
    prof = degree_profile(root_hypergraph(k27().decomposition))
    assert prof.hypergraph.m == 15 and prof.r == 0
    assert prof.p == {1: 9, 2: 18}
    assert prof.degree_sum == 45 == 3 * prof.hypergraph.m - prof.r
    assert prof.isolated == 0


def test_degree_profile_broken_double_star():
    t = 3
    prof = degree_profile(root_hypergraph(broken_double_star(t).decomposition))
    assert prof.p == {1: t, 2: t}


def test_counting_inequality_k27_holds_with_equality():
    prof = degree_profile(root_hypergraph(k27().decomposition))
    report = check_counting_inequality(prof)
    assert report.ok
    assert report.lhs == report.rhs == 18
    assert report.bipartite_edge_count == 18
    assert prof.p.get(1, 0) == 9
    assert report.counting_lhs == report.counting_rhs == 0


def test_degree_tables_are_read_only():
    # every check reads the one cached table, so neither it nor a profile's counts can be changed
    rh = root_hypergraph(k27().decomposition)
    prof = degree_profile(rh)
    with pytest.raises(TypeError):
        rh.degree[0] += 1
    with pytest.raises(TypeError):
        prof.p[1] = 0
    assert rh.degree[27] == 0 and prof.p.get(3, 0) == 0  # a missing key still reads 0
    assert prof.hypergraph is rh and degree_profile(rh) == prof


def test_profile_pickles_with_its_hypergraph():
    rh = root_hypergraph(k27().decomposition)
    prof = degree_profile(rh)
    assert rh.degree  # cached before pickling
    assert pickle.loads(pickle.dumps(rh)) == rh
    copied = pickle.loads(pickle.dumps(prof))
    assert copied == prof and copied.p == {1: 9, 2: 18}
    assert check_counting_inequality(copied) == check_counting_inequality(prof)


def test_counting_inequality_flags_impossible_profile():
    report = check_counting_inequality(degree_profile(RootHypergraph(3, (frozenset({0, 1}), frozenset({0, 2})))))
    assert not report.ok
    assert report.lhs == 2 and report.rhs == 1


def test_counting_not_applicable_for_large_hyperedges():
    prof = degree_profile(root_hypergraph(k16().decomposition))
    with pytest.raises(NotApplicableError):
        check_counting_inequality(prof)


def test_degree1_placement_k27():
    rep = placement(k27().decomposition)
    assert rep.ok


def test_degree1_placement_f2_construction():
    assert placement(f2_construction(8).decomposition).ok


def test_degree1_placement_flags_shared_and_pinched_vertices():
    # no valid decomposition has this root-hypergraph: 0 and 1 share a hyperedge
    # at degree 1, and degree-2 vertex 3 reaches degree-1 vertices 2 and 4
    # nor a report, so the conditions are read by the check's inner step
    rh = RootHypergraph(6, (frozenset({0, 1}), frozenset({2, 3}), frozenset({3, 4})))
    rep = verify._degree1_placement(rh)
    assert rep == (False, ((0, (0, 1)),), ((3, 1, 2),))


def test_degree1_placement_requires_validity():
    d = Decomposition(n=3, k=1, forests=(StarForest((Star(0, (1,)),)),))
    with pytest.raises(PreconditionError):
        placement(d)


def test_degree1_placement_not_applicable_for_star_decomposition():
    with pytest.raises(NotApplicableError):
        placement(staircase(5))


def test_degree1_placement_not_applicable_with_a_one_star_forest():
    # the search's certificate for K_10 in 8 two-star forests has m < n-1, but
    # one forest is a single star, so its hyperedge holds one vertex
    d = exists_decomposition(10, 2, 8).certificate
    assert validate_decomposition(d).ok
    assert sorted(len(e) for e in root_hypergraph(d).hyperedges) == [1] + [2] * 7
    with pytest.raises(NotApplicableError, match="^needs every hyperedge to have at least 2 vertices$"):
        placement(d)


def test_broken_double_star_recognizer_accepts_construction():
    for t in (2, 3, 4, 6):
        assert is_bds(broken_double_star(t).decomposition)


def relabeled(d: Decomposition, rng: random.Random) -> Decomposition:
    """``d`` under a random vertex permutation, with forests, stars and leaves
    shuffled and each one-leaf star's center and leaf swapped at random."""
    perm = list(range(d.n))
    rng.shuffle(perm)
    forests = []
    for f in d.forests:
        stars = []
        for s in f.stars:
            ends = [perm[s.center], *(perm[v] for v in s.leaves)]
            if len(ends) == 2 and rng.random() < 0.5:
                ends.reverse()
            leaves = ends[1:]
            rng.shuffle(leaves)
            stars.append(Star(ends[0], tuple(leaves)))
        rng.shuffle(stars)
        forests.append(StarForest(tuple(stars)))
    rng.shuffle(forests)
    return d._replace(forests=tuple(forests))


def test_broken_double_star_recognizer_survives_relabeling():
    rng = random.Random(19)
    for t in range(3, 41):
        d = broken_double_star(t).decomposition
        for _ in range(20):
            assert is_bds(relabeled(d, rng)), t


def k4_three_forest_decompositions():
    """Every valid 3-forest decomposition of K_4: each edge goes to one of 3
    forests, each forest must be a nonempty star forest (every edge has an end
    of degree 1), and each one-edge star is written in both orientations."""
    edges = complete_graph_edges(4)
    for homes in product(range(3), repeat=len(edges)):
        per_forest = []
        for fi in range(3):
            es = [e for e, h in zip(edges, homes) if h == fi]
            deg = Counter(chain.from_iterable(es))
            if not es or any(deg[u] > 1 and deg[v] > 1 for u, v in es):
                break
            big = [Star(c, tuple(v for e in es if c in e for v in e if v != c)) for c in sorted(deg) if deg[c] > 1]
            single = [e for e in es if deg[e[0]] == deg[e[1]] == 1]
            per_forest.append([big + [Star(c, (v,)) for c, v in ends]
                               for ends in product(*((e, e[::-1]) for e in single))])
        else:
            for stars in product(*per_forest):
                yield Decomposition(n=4, k=2, forests=tuple(StarForest(tuple(s)) for s in stars))


def test_broken_double_star_on_k4_is_the_one_factorization_in_any_orientation():
    # a one-edge star has no center, so which end a file names first is no evidence
    decompositions = list(k4_three_forest_decompositions())
    assert len(decompositions) == 720
    assert all(validate_decomposition(d).ok for d in decompositions)
    accepted = [d for d in decompositions if is_bds(d)]
    assert accepted == [d for d in decompositions if all(len(f.stars) == 2 for f in d.forests)]
    assert len(accepted) == 384


def test_broken_double_star_rejects_the_k4_staircase():
    # K_4 has a second 3-forest decomposition, so lb_bds is quoted only from n = 6
    assert validate_decomposition(staircase(4)).ok
    assert not is_bds(staircase(4))


def test_broken_double_star_recognizer_rejects_k16():
    assert not is_bds(k16().decomposition)


def test_broken_double_star_recognizer_rejects_other_counts():
    assert not is_bds(conjecture_construction(12, 2).decomposition)


def test_broken_double_star_not_applicable_odd_n():
    with pytest.raises(NotApplicableError):
        is_bds(k27().decomposition)


def test_matching_completion_of_conjecture_at_k_equals_t():
    # with k = n/2 the whole matching fits into one forest: the t+1 object
    d = conjecture_construction(8, 4).decomposition
    assert is_bds(d)

"""Structural laws that must hold across every decomposition this package can
produce: all constructed families plus the small optima found by exhaustive
search.  Any violation here falsifies the counting machinery and must fail
the build."""

from functools import lru_cache
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starforest import (
    Decomposition,
    DecompositionFile,
    NotApplicableError,
    Star,
    StarForest,
    blowup,
    broken_double_star,
    check_counting_inequality,
    check_degree1_placement,
    check_no_isolated,
    conjecture_construction,
    degree_profile,
    f2_construction,
    f3_construction,
    f_exact,
    k16,
    k27,
    k4_construction,
    parse,
    root_hypergraph,
    serialize,
    validate_decomposition,
)


@lru_cache(maxsize=None)
def corpus() -> tuple[tuple[str, Decomposition], ...]:
    """Constructed families at desk scale plus search-found optima."""
    items: list[tuple[str, Decomposition]] = []
    items.append(("k27", k27().decomposition))
    items.append(("f3-54", f3_construction(54).decomposition))
    items.append(("k16", k16().decomposition))
    for m in (2, 3):
        items.append((f"k4gen-{m}", k4_construction(m).decomposition))
    for n in (4, 8, 12, 16):
        items.append((f"f2-{n}", f2_construction(n).decomposition))
    items.append(("conjecture-12-3", conjecture_construction(12, 3).decomposition))
    items.append(("conjecture-20-5", conjecture_construction(20, 5).decomposition))
    for t in (2, 3, 5):
        items.append((f"bds-{t}", broken_double_star(t).decomposition))
    items.append(("blowup-bds4-2", blowup(broken_double_star(4), 2).decomposition))
    for n, k in [(4, 2), (5, 2), (6, 2), (5, 3), (6, 3), (4, 3)]:
        items.append((f"search-{n}-{k}", f_exact(n, k).certificate))
    return tuple(items)


def permute(d: Decomposition, perm: list[int]) -> Decomposition:
    forests = tuple(
        StarForest(tuple(Star(perm[s.center], tuple(perm[v] for v in s.leaves)) for s in f.stars))
        for f in d.forests
    )
    return d._replace(forests=forests, labels=None)


@pytest.mark.parametrize("name,d", corpus(), ids=[n for n, _ in corpus()])
def test_every_corpus_member_is_a_valid_decomposition(name, d):
    rep = validate_decomposition(d)
    assert rep.ok, (name, rep.malformed[:3], tuple(islice(rep.coverage.missing, 3)), rep.coverage.duplicated[:3])


@pytest.mark.parametrize("name,d", corpus(), ids=[n for n, _ in corpus()])
def test_no_isolated_root_vertex_when_forced(name, d):
    rh = root_hypergraph(d)
    rep = check_no_isolated(rh)
    if rh.m < d.n - 1:
        assert rep.applicable and not rep.isolated, name


@pytest.mark.parametrize("name,d", corpus(), ids=[n for n, _ in corpus()])
def test_degree_identities(name, d):
    rh = root_hypergraph(d)
    prof = degree_profile(rh)
    assert sum(prof.p.values()) + prof.isolated == d.n
    sizes = {len(e) for e in rh.hyperedges}
    if sizes <= {2, 3}:
        assert prof.degree_sum == 3 * rh.m - prof.r, name


@pytest.mark.parametrize("name,d", corpus(), ids=[n for n, _ in corpus()])
def test_counting_inequalities_hold_where_applicable(name, d):
    prof = degree_profile(root_hypergraph(d))
    try:
        report = check_counting_inequality(prof)
    except NotApplicableError:
        return  # some hyperedge has more than 3 centers
    assert report.ok, (name, report)
    assert report.slack >= 0
    assert 2 * prof.p.get(1, 0) - prof.r <= report.bipartite_edge_count
    assert report.counting_slack >= 0, name


@pytest.mark.parametrize("name,d", corpus(), ids=[n for n, _ in corpus()])
def test_degree1_center_placement_where_applicable(name, d):
    rh = root_hypergraph(d)
    if rh.m >= d.n - 1 or any(len(e) < 2 for e in rh.hyperedges):
        return
    rep = check_degree1_placement(validate_decomposition(d))
    assert rep.ok, (name, rep.shared_degree1, rep.pinched_degree2)


def test_no_valid_three_star_family_beats_the_59_ratio():
    # 9m >= 5n observed over everything in reach, matching the counting bound
    for name, d in corpus():
        rh = root_hypergraph(d)
        if d.k <= 3 and {len(e) for e in rh.hyperedges} <= {2, 3}:
            assert 9 * rh.m >= 5 * d.n, name


@settings(max_examples=40, deadline=None)
@given(seed=st.randoms(use_true_random=False))
def test_degree_profile_invariant_under_relabeling(seed):
    name, d = corpus()[seed.randrange(len(corpus()))]
    perm = list(range(d.n))
    seed.shuffle(perm)
    base = degree_profile(root_hypergraph(d))
    shuffled = degree_profile(root_hypergraph(permute(d, perm)))
    assert (base.hypergraph.m, base.r, base.p, base.degree_sum) == (
        shuffled.hypergraph.m, shuffled.r, shuffled.p, shuffled.degree_sum)


@settings(max_examples=40, deadline=None)
@given(seed=st.randoms(use_true_random=False))
def test_validity_invariant_under_relabeling(seed):
    name, d = corpus()[seed.randrange(len(corpus()))]
    perm = list(range(d.n))
    seed.shuffle(perm)
    assert validate_decomposition(permute(d, perm)).ok


@settings(max_examples=25, deadline=None)
@given(seed=st.randoms(use_true_random=False))
def test_serialize_parse_roundtrip_on_permuted_corpus(seed):
    name, d = corpus()[seed.randrange(len(corpus()))]
    perm = list(range(d.n))
    seed.shuffle(perm)
    shuffled = permute(d, perm)
    assert parse(serialize(DecompositionFile(shuffled))).decomposition == shuffled

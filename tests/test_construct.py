import pytest

from starforest import (
    PreconditionError,
    blowup,
    broken_double_star,
    conjecture_construction,
    degree_profile,
    f2_construction,
    f3_construction,
    forest_edges,
    k16,
    k27,
    k4_construction,
    root_hypergraph,
    validate_decomposition,
)


def expected_k4_duplicates(m: int) -> list[tuple[int, int]]:
    dups = [(12 * k + i, 12 * k + i + 2) for k in range(m + 1) for i in (0, 1)]
    dups += [(12 * k + 4 + i, 12 * k + 4 + i + 2) for k in range(m) for i in (0, 1)]
    dups += [(12 * k + 8 + i, 12 * k + 8 + i + 2) for k in range(m) for i in (0, 1)]
    return sorted(dups)


# ---------------------------------------------------------------------------
# broken double star and matching completions
# ---------------------------------------------------------------------------


def test_bds_t2_hand_expansion():
    out = broken_double_star(2)
    pair_edges = [sorted(forest_edges(f)) for f in out.decomposition.forests[:2]]
    assert pair_edges == [[(0, 1), (2, 3)], [(1, 2), (0, 3)]] or pair_edges == [
        sorted([(0, 1), (2, 3)]), sorted([(1, 2), (0, 3)])]
    assert out.leftover_matching == ((0, 2), (1, 3))
    assert out.raw_duplicates == ()


def test_bds_t3_covers_all_but_matching():
    out = broken_double_star(3)
    pair_part = set()
    for f in out.decomposition.forests[:3]:
        pair_part.update(forest_edges(f))
    assert len(pair_part) == 12
    assert pair_part.isdisjoint(set(out.leftover_matching))
    assert validate_decomposition(out.decomposition).ok


def test_bds_rejects_small_t():
    with pytest.raises(PreconditionError):
        broken_double_star(1)


def test_conjecture_forest_counts():
    assert conjecture_construction(8, 2).forest_count == 6
    assert conjecture_construction(16, 4).forest_count == 10
    assert conjecture_construction(28, 4).forest_count == 18


def test_conjecture_rejects_odd_n():
    with pytest.raises(PreconditionError):
        conjecture_construction(7, 2)


def test_f2_counts_and_validity():
    for n in (4, 8, 10, 14, 20):
        out = f2_construction(n)
        assert out.forest_count == -(-3 * n // 4)
        assert all(len(f.stars) <= 2 for f in out.decomposition.forests)


# ---------------------------------------------------------------------------
# K_27
# ---------------------------------------------------------------------------


def test_k27_shape():
    out = k27()
    assert out.forest_count == 15
    assert all(len(f.stars) == 3 for f in out.decomposition.forests)
    assert [f.edge_count() for f in out.decomposition.forests] == [24] * 12 + [21] * 3
    assert out.raw_duplicates == ()


def test_k27_root_hypergraph_center_triples():
    rh = root_hypergraph(k27().decomposition)
    # per-cell forests are rooted on the vertical triple above their cell
    for i in range(3):
        for j in range(3):
            base = 9 * i + 3 * j
            assert rh.hyperedges[3 * i + j] == frozenset({base, base + 1, base + 2})
    for j in range(3):
        assert rh.hyperedges[9 + j] == frozenset({9 * i + 3 * j + 1 for i in range(3)})
    for i in range(3):
        assert rh.hyperedges[12 + i] == frozenset({9 * i + 3 * j + 2 for j in range(3)})


def test_k27_every_vertex_centers_at_most_twice():
    prof = degree_profile(root_hypergraph(k27().decomposition))
    assert prof.r == 0
    assert max(prof.p) == 2
    assert prof.p == {1: 9, 2: 18}  # counting equality: 2*p1 == p2


# ---------------------------------------------------------------------------
# K_16 and the 12m+4 family
# ---------------------------------------------------------------------------


def test_k16_shape_and_duplicates():
    out = k16()
    assert out.forest_count == 10
    assert list(out.raw_duplicates) == sorted(
        [(0, 2), (1, 3), (4, 6), (5, 7), (8, 10), (9, 11), (12, 14), (13, 15)]
    )
    assert sum(out.raw_edge_slots) == 128
    assert out.decomposition.total_edge_slots() == 120
    assert all(len(f.stars) <= 4 for f in out.decomposition.forests)


def test_k16_named_coverage_samples():
    out = k16()
    by_name = dict(zip(out.provenance, out.decomposition.forests))
    # B(i)C(i+2) sits in the B-block forest
    b_edges = set(forest_edges(by_name["B(0)"]))
    for i in range(4):
        assert (min(4 + i, 8 + (i + 2) % 4), max(4 + i, 8 + (i + 2) % 4)) in b_edges


def test_k16_degree_profile_after_dedup():
    # dedup drops the two last-block single-leaf stars whose only edge was a
    # duplicated diagonal, so two vertices center once instead of twice
    prof = degree_profile(root_hypergraph(k16().decomposition))
    assert prof.p == {1: 2, 2: 14}
    assert prof.r == 4


def test_k16_root_hypergraph_pattern():
    out = k16()
    rh = root_hypergraph(out.decomposition)
    by_name = dict(zip(out.provenance, rh.hyperedges))
    for i in range(4):
        quad = {i, 4 + i, 8 + i, 12 + i}
        if i in (0, 1):
            assert by_name[f"X(0,{i})"] == frozenset(quad)
        else:
            # the A1-block star lost its only (duplicated) edge to X(0,i-2)
            assert by_name[f"X(0,{i})"] == frozenset(quad - {12 + i})
    assert by_name["B(0)"] == frozenset({4, 5, 6, 7})
    assert by_name["C(0)"] == frozenset({8, 9, 10, 11})
    assert by_name["Y(0)"] == frozenset({0, 1})
    assert by_name["Y(1)"] == frozenset({2, 3})
    assert by_name["Z(0)"] == frozenset({12, 14})
    assert by_name["Z(1)"] == frozenset({13, 15})


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_k4_construction_small(m):
    out = k4_construction(m)
    n = 12 * m + 4
    assert out.forest_count == 6 * m + 4
    assert all(len(f.stars) <= 4 for f in out.decomposition.forests)
    assert list(out.raw_duplicates) == expected_k4_duplicates(m)
    assert sum(out.raw_edge_slots) == n * n // 2


def test_k4_slots_per_forest():
    m = 3
    n = 12 * m + 4
    out = k4_construction(m)
    for name, slots in zip(out.provenance, out.raw_edge_slots):
        assert slots == (n - 2 if name[0] in "YZ" else n - 4), name


def test_k4_m1_edge_identical_to_k16():
    a, b = k16(), k4_construction(1)
    assert a.provenance == b.provenance
    for fa, fb in zip(a.decomposition.forests, b.decomposition.forests):
        assert sorted(forest_edges(fa)) == sorted(forest_edges(fb))
    assert a.raw_duplicates == b.raw_duplicates


def test_k4_center_degree_profile():
    # every vertex centers twice in the raw tables; dedup demotes the last
    # block's two diagonal-only stars, for any m
    for m in (2, 3):
        prof = degree_profile(root_hypergraph(k4_construction(m).decomposition))
        assert prof.p == {1: 2, 2: 12 * m + 2}


def test_k4_rejects_m0():
    with pytest.raises(PreconditionError):
        k4_construction(0)


# ---------------------------------------------------------------------------
# blowup
# ---------------------------------------------------------------------------


def test_blowup_t1_is_identity_on_edges():
    base = k27()
    lifted = blowup(base, 1)
    for fa, fb in zip(base.decomposition.forests, lifted.decomposition.forests):
        assert sorted(forest_edges(fa)) == sorted(forest_edges(fb))


def test_blowup_k27_t2():
    out = blowup(k27(), 2)
    assert out.forest_count == 30
    assert out.decomposition.n == 54
    assert out.decomposition.k == 3


def test_blowup_precondition():
    with pytest.raises(PreconditionError):
        blowup(f2_construction(4), 2)  # 3 forests on 4 vertices exceeds n-2


def test_blowup_composes():
    base = broken_double_star(4)  # 5 forests on 8 vertices
    once = blowup(blowup(base, 2), 2)
    direct = blowup(base, 4)
    assert once.forest_count == direct.forest_count == 20
    assert once.decomposition.n == direct.decomposition.n == 32


def test_f3_construction_counts():
    assert k27().forest_count == 15
    assert f3_construction(54).forest_count == 30
    assert f3_construction(81).forest_count == 45
    with pytest.raises(PreconditionError):
        f3_construction(28)


def test_provenance_aligned_with_forests():
    for out in (k27(), k16(), broken_double_star(3), f2_construction(8)):
        assert len(out.provenance) == out.forest_count


def test_finalize_rejects_incomplete_table_under_optimize(run_optimized):
    # the validation check in _finalize must not vanish with `python -O`
    proc = run_optimized(
        "from starforest.construct import _finalize\n"
        "_finalize(3, 1, [('a', [(0, [1, 2])])], family='short')\n"
    )
    assert proc.returncode != 0
    assert "short: construction failed validation" in proc.stderr

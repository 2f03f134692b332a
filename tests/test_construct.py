import itertools
import re
from pathlib import Path

import pytest

from starforest import (
    DecompositionError,
    DecompositionFile,
    MalformedStarError,
    PreconditionError,
    blowup,
    bounds,
    broken_double_star,
    cli,
    conjecture_construction,
    construct,
    degree_profile,
    f2_construction,
    f3_construction,
    k16,
    k27,
    k4_construction,
    root_hypergraph,
    validate_decomposition,
)
from starforest.fileio import parse, serialize

GOLDEN = Path(__file__).parent / "golden"


def edges_of(forest):
    return [(min(s.center, leaf), max(s.center, leaf)) for s in forest.stars for leaf in s.leaves]


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
    pair_edges = [sorted(edges_of(f)) for f in out.decomposition.forests[:2]]
    assert pair_edges == [[(0, 1), (2, 3)], [(1, 2), (0, 3)]] or pair_edges == [
        sorted([(0, 1), (2, 3)]), sorted([(1, 2), (0, 3)])]
    assert out.meta == {"matching": "0-2 1-3"}
    assert sorted(edges_of(out.decomposition.forests[-1])) == [(0, 2), (1, 3)]
    assert out.raw_duplicates == ()


def test_bds_t3_covers_all_but_matching():
    out = broken_double_star(3)
    pair_part = set()
    for f in out.decomposition.forests[:3]:
        pair_part.update(edges_of(f))
    assert len(pair_part) == 12
    assert pair_part.isdisjoint(edges_of(out.decomposition.forests[-1]))
    assert validate_decomposition(out.decomposition).ok


def test_bds_rejects_small_t():
    with pytest.raises(PreconditionError):
        broken_double_star(1)


def test_conjecture_forest_counts():
    assert conjecture_construction(8, 2).decomposition.forest_count == 6
    assert conjecture_construction(16, 4).decomposition.forest_count == 10
    assert conjecture_construction(28, 4).decomposition.forest_count == 18


def test_conjecture_rejects_odd_n():
    with pytest.raises(PreconditionError):
        conjecture_construction(7, 2)


def test_f2_counts_and_validity():
    for n in (4, 8, 10, 14, 20):
        out = f2_construction(n)
        assert out.decomposition.forest_count == -(-3 * n // 4)
        assert all(len(f.stars) <= 2 for f in out.decomposition.forests)


# ---------------------------------------------------------------------------
# K_27
# ---------------------------------------------------------------------------


def test_k27_shape():
    out = k27()
    assert out.decomposition.forest_count == 15
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
    assert out.decomposition.forest_count == 10
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
    b_edges = set(edges_of(by_name["B(0)"]))
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
    assert out.decomposition.forest_count == 6 * m + 4
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
    # k16() is built from k4_construction(1), so the independent witness is
    # the golden file: forests, star and leaf order, labels, names, duplicates
    golden = parse((GOLDEN / "k16.sfd").read_text())
    one = k4_construction(1)
    assert one.decomposition == golden.decomposition
    assert one.provenance == golden.provenance
    assert one.raw_duplicates == golden.raw_duplicates
    assert k16() == one._replace(family="k16")


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
        assert sorted(edges_of(fa)) == sorted(edges_of(fb))


def test_blowup_k27_t2():
    out = blowup(k27(), 2)
    assert out.decomposition.forest_count == 30
    assert out.decomposition.n == 54
    assert out.decomposition.k == 3


def test_blowup_precondition():
    with pytest.raises(PreconditionError):
        blowup(f2_construction(4), 2)  # 3 forests on 4 vertices exceeds n-2


def test_blowup_composes():
    base = broken_double_star(4)  # 5 forests on 8 vertices
    once = blowup(blowup(base, 2), 2)
    direct = blowup(base, 4)
    assert once.decomposition.forest_count == direct.decomposition.forest_count == 20
    assert once.decomposition.n == direct.decomposition.n == 32


def test_blowup_of_parsed_file_matches_construction_output():
    base = k27()
    parsed = parse(serialize(base))
    assert blowup(parsed, 2) == blowup(base, 2)


def test_blowup_validates_every_base(monkeypatch):
    # _finalize validates k27 and each blowup, so f3 validates its k27 base
    # once; blowup's precondition validates every base it is handed, whatever
    # the record type, a ConstructionOutput included
    parsed = parse(serialize(k27()))
    calls = []
    monkeypatch.setattr(construct, "validate_decomposition", lambda d: calls.append(d.n) or validate_decomposition(d))
    f3_construction(54)
    assert calls == [27, 54]
    calls.clear()
    blowup(parsed, 2)
    assert calls == [27, 54]


def test_blowup_rejects_an_invalid_construction_output_base():
    # bds(4) without its matching forest misses four edges; as a parsed file
    # and as a builder's record it gets the same precondition error
    d = broken_double_star(4).decomposition
    bad = d._replace(forests=d.forests[:-1])
    for base in (DecompositionFile(bad), construct.ConstructionOutput(bad, raw_edge_slots=(0,) * 4)):
        with pytest.raises(PreconditionError, match="^blowup needs a valid base decomposition$"):
            blowup(base, 2)


@pytest.mark.parametrize("names", [("a",), tuple("abcdefghi")])  # 1 and 9 names for 5 forests
def test_blowup_rejects_misaligned_provenance(names):
    with pytest.raises(DecompositionError, match="provenance length"):
        blowup(DecompositionFile(broken_double_star(4).decomposition, provenance=names), 2)


def test_family_table_upper_args_build_a_fitting_decomposition():
    # every (n, k) a family claims for bound_report builds K_n with at most k
    # stars per forest, in as many forests as its size formula says
    built: dict[tuple, tuple[int, int]] = {}
    for name, fam in construct.FAMILIES.items():
        assert (fam.upper is None) == (fam.size is None), name
        for n, k in itertools.product(range(1, 61), range(1, 9)):
            if fam.upper and (args := fam.upper(n, k)):
                if (name, args) not in built:
                    d = getattr(construct, fam.builder)(*args).decomposition
                    assert d.forest_count == fam.size(*args), (name, args)
                    built[name, args] = (d.n, d.k)
                assert built[name, args][0] == n and built[name, args][1] <= k, (name, n, k)
    assert {name for name, _ in built} == {"bds", "f2", "f3", "k4gen", "conjecture"}


def test_family_builders_are_patch_points():
    # cli and bounds call builders by name from their own globals
    for fam in construct.FAMILIES.values():
        assert hasattr(cli, fam.builder)
        if fam.upper is not None:
            assert hasattr(bounds, fam.builder)


def test_f3_construction_counts():
    assert k27().decomposition.forest_count == 15
    assert f3_construction(54).decomposition.forest_count == 30
    assert f3_construction(81).decomposition.forest_count == 45
    with pytest.raises(PreconditionError):
        f3_construction(28)


def test_provenance_aligned_with_forests():
    for out in (k27(), k16(), broken_double_star(3), f2_construction(8)):
        assert len(out.provenance) == out.decomposition.forest_count


@pytest.mark.parametrize("build, exact", [
    (lambda: broken_double_star(5), True),
    (lambda: f2_construction(12), True),
    (lambda: conjecture_construction(16, 4), True),
    (k27, True),
    (lambda: blowup(k27(), 1), True),
    (lambda: k4_construction(2), False),
    (k16, False),
    (lambda: f3_construction(54), False),
], ids=["bds", "f2", "conjecture", "k27", "blowup-t1", "k4gen", "k16", "f3"])
def test_finalize_dedups_only_tables_with_more_slots_than_edges(monkeypatch, build, exact):
    # exact tables fill K_n once and become stars as written; the others double-place some edges
    dedups = []
    dedup = construct._dedup
    monkeypatch.setattr(construct, "_dedup", lambda *args: dedups.append(1) or dedup(*args))
    out = build()
    n = out.decomposition.n
    if exact:
        assert out.raw_duplicates == () and sum(out.raw_edge_slots) == n * (n - 1) // 2
    else:
        assert out.raw_duplicates and sum(out.raw_edge_slots) > n * (n - 1) // 2
    assert len(dedups) == (not exact)


def test_finalize_failure_lists_first_missing_edges():
    # nine edges are missing; the message shows the first five as edge tuples
    with pytest.raises(AssertionError, match=re.escape("missing=((0, 2), (0, 3), (0, 4), (1, 2), (1, 3)),")):
        construct._finalize(5, 1, [("a", [(0, [1])])], family="short")


def test_finalize_exact_table_placing_an_edge_twice_fails_validation():
    # no more slots than K_3 has edges skips the dedup pass, so validation's duplicated check catches the second copy
    with pytest.raises(AssertionError, match=re.escape("twice: construction failed validation")) as exc:
        construct._finalize(3, 2, [("a", [(0, [1, 2])]), ("b", [(1, [0])])], family="twice")
    assert "duplicated=(((0, 1), 2),))" in str(exc.value)


def test_finalize_rejects_a_self_loop():
    # the dedup key is built inline and keeps the leaf, so Star's center-among-leaves check refuses it
    with pytest.raises(MalformedStarError):
        construct._finalize(3, 2, [("a", [(1, [0, 1, 2])]), ("b", [(0, [2])])], family="loop")


def test_finalize_rejects_incomplete_table_under_optimize(run_optimized):
    # the validation check in _finalize must not vanish with `python -O`
    proc = run_optimized(
        "from starforest.construct import _finalize\n"
        "_finalize(3, 1, [('a', [(0, [1, 2])])], family='short')\n"
    )
    assert proc.returncode != 0
    assert "short: construction failed validation" in proc.stderr


def test_k4_slot_accounting_raises_under_optimize(run_optimized):
    # k4_construction checks the raw slot counts _finalize records, with an explicit raise
    proc = run_optimized(
        "from starforest import construct\n"
        "finalize = construct._finalize\n"
        "def skewed(*args, **kwargs):\n"
        "    out = finalize(*args, **kwargs)\n"
        "    return out._replace(raw_edge_slots=(out.raw_edge_slots[0] + 1, *out.raw_edge_slots[1:]))\n"
        "construct._finalize = skewed\n"
        "construct.k4_construction(1)\n"
    )
    assert proc.returncode != 0
    assert proc.stderr.splitlines()[-1] == "AssertionError: X(0,0): 13 raw slots, expected 12"

"""End-to-end acceptance gate.  Each check prints one PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them) and enforces its stated
runtime ceiling.

One check is marked xfail(strict): it asserts that every vertex of the K_27
root-hypergraph has degree exactly 2.  That statement is arithmetically
unsatisfiable -- fifteen hyperedges of size at most 3 bound the degree sum by
45, while 27 vertices of degree 2 would need 54 -- so the realized profile
(nine degree-1 vertices, eighteen degree-2) is the best any 15-forest
decomposition can do, and it attains the counting equality 2*p1 = p2.  The
assertion is kept verbatim rather than weakened."""

import io
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from starforest import (
    SearchStatus,
    blowup,
    bound_report,
    broken_double_star,
    check_counting_inequality,
    check_degree1_placement,
    check_no_isolated,
    degree_profile,
    exists_decomposition,
    f2_construction,
    f3_construction,
    f3_equality_feasible,
    f_exact,
    k16,
    k27,
    k4_construction,
    parse,
    root_hypergraph,
    serialize,
    validate_decomposition,
)
from starforest.cli import main
from starforest.core import NotApplicableError, PreconditionError

GOLDEN = Path(__file__).parent / "golden"


def edges_of(forest):
    return [(min(s.center, leaf), max(s.center, leaf)) for s in forest.stars for leaf in s.leaves]


@contextmanager
def criterion(num: str, label: str, limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:>3} [{label}]: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:>3} [{label}]: PASS ({elapsed:.2f}s)")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget: {elapsed:.2f}s"


def test_criterion_1_k27_partition():
    with criterion("1", "k27 partitions K_27 into 15 forests, r=0", 1.0):
        out = k27()
        assert out.decomposition.forest_count == 15
        assert all(len(f.stars) == 3 for f in out.decomposition.forests)
        rep = validate_decomposition(out.decomposition)
        assert rep.ok and rep.coverage.total_edges == 351
        assert not rep.coverage.missing and not rep.coverage.duplicated
        assert out.raw_duplicates == ()
        prof = degree_profile(root_hypergraph(out.decomposition))
        assert prof.r == 0
        assert prof.isolated == 0 and max(prof.p) <= 2  # every center count in {1, 2}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="unsatisfiable as stated: 15 hyperedges of size <= 3 cap the degree sum "
    "at 45 < 2*27; the construction realizes p1=9, p2=18 (equality 2*p1 = p2)",
)
def test_criterion_1_k27_every_vertex_degree_exactly_two():
    with criterion("1b", "k27 root-hypergraph degrees all exactly 2 (as stated)", 1.0):
        rh = root_hypergraph(k27().decomposition)
        assert all(rh.degree[v] == 2 for v in range(27))


def test_criterion_2_k16():
    with criterion("2", "k16: 10 forests, dup set = 8 block diagonals", 1.0):
        out = k16()
        assert out.decomposition.forest_count == 10
        assert all(len(f.stars) <= 4 for f in out.decomposition.forests)
        rep = validate_decomposition(out.decomposition)
        assert rep.ok and rep.coverage.total_edges == 120
        assert list(out.raw_duplicates) == sorted(
            [(0, 2), (1, 3), (4, 6), (5, 7), (8, 10), (9, 11), (12, 14), (13, 15)]
        )


def test_criterion_3_k4_family():
    with criterion("3", "k4gen m=1..10 valid, dup accounting exact, m=1 == k16", 30.0):
        golden = parse((GOLDEN / "k16.sfd").read_text())
        for m in range(1, 11):
            out = k4_construction(m)
            n = 12 * m + 4
            assert out.decomposition.forest_count == 6 * m + 4
            assert all(len(f.stars) <= 4 for f in out.decomposition.forests)
            expected_dups = sorted(
                [(12 * k + i, 12 * k + i + 2) for k in range(m + 1) for i in (0, 1)]
                + [(12 * k + 4 + i, 12 * k + 4 + i + 2) for k in range(m) for i in (0, 1)]
                + [(12 * k + 8 + i, 12 * k + 8 + i + 2) for k in range(m) for i in (0, 1)]
            )
            assert len(expected_dups) == 6 * m + 2 == n // 2
            assert list(out.raw_duplicates) == expected_dups
            assert sum(out.raw_edge_slots) == n * n // 2
        one = k4_construction(1)
        assert one.decomposition == golden.decomposition
        assert one.provenance == golden.provenance
        assert one.raw_duplicates == golden.raw_duplicates
        assert k16() == one._replace(family="k16")


def test_criterion_4_blowup():
    with criterion("4", "blowup(k27, t) for t=2,3; precondition enforced", 30.0):
        base = k27()
        for t in (2, 3):
            out = blowup(base, t)
            assert out.decomposition.forest_count == 15 * t
            assert out.decomposition.n == 27 * t
            assert validate_decomposition(out.decomposition).ok
        with pytest.raises(PreconditionError):
            blowup(f2_construction(4), 2)


def test_criterion_5_f2_family():
    with criterion("5", "f2 yields ceil(3n/4) two-star forests, even n <= 60", 10.0):
        for n in range(4, 61, 2):
            out = f2_construction(n)
            assert out.decomposition.forest_count == -(-3 * n // 4)
            assert all(len(f.stars) <= 2 for f in out.decomposition.forests)
            assert validate_decomposition(out.decomposition).ok


def test_criterion_6_exhaustive_oracle():
    with criterion("6", "search oracle cross-checks", 300.0):
        assert exists_decomposition(4, 2, 2).status is SearchStatus.EXHAUSTED_NOT_FOUND
        assert f_exact(4, 2).value == 3
        assert f_exact(5, 2).value == 4
        assert f_exact(6, 2).value == 5
        for n in (2, 3, 4, 5, 6):
            assert f_exact(n, 1).value == n - 1


def test_criterion_7_disproof_table():
    with criterion("7", "conjecture comparison rows", 60.0):
        r = bound_report(27, 3)
        assert (r.lower, r.upper, r.conjecture_value, r.conjecture_refuted_here) == (15, 15, 18, True)
        r = bound_report(28, 4)
        assert (r.lower, r.upper, r.conjecture_value, r.conjecture_refuted_here) == (16, 16, 18, True)
        r = bound_report(16, 4)
        assert (r.lower, r.upper, r.conjecture_value, r.conjecture_refuted_here) == (10, 10, 10, False)


def test_criterion_8_equality_feasibility():
    with criterion("8", "counting obstruction at n=9,18 but not 27", 1.0):
        assert f3_equality_feasible(9) is False
        assert f3_equality_feasible(18) is False
        assert f3_equality_feasible(27) is True


def test_criterion_9_property_battery():
    with criterion("9", "root-hypergraph laws over constructions and optima", 120.0):
        battery = [
            k27().decomposition,
            f3_construction(54).decomposition,
            k16().decomposition,
            k4_construction(2).decomposition,
            k4_construction(3).decomposition,
            broken_double_star(3).decomposition,
            broken_double_star(5).decomposition,
        ]
        battery += [f2_construction(n).decomposition for n in range(4, 21, 2)]
        battery += [f_exact(n, k).certificate for n, k in [(4, 2), (5, 2), (6, 2), (5, 3), (6, 3)]]
        for d in battery:
            assert validate_decomposition(d).ok
            rh = root_hypergraph(d)
            prof = degree_profile(rh)
            assert sum(prof.p.values()) + prof.isolated == d.n  # vertex count identity
            if rh.m < d.n - 1:
                assert check_no_isolated(rh).ok
                if all(len(e) >= 2 for e in rh.hyperedges):
                    assert check_degree1_placement(rh, validate_decomposition(d)).ok
            sizes = {len(e) for e in rh.hyperedges}
            if sizes <= {2, 3}:
                assert prof.degree_sum == 3 * rh.m - prof.r  # degree sum identity
                report = check_counting_inequality(rh, prof)
                assert report.ok


def test_criterion_10_k27_per_class_coverage():
    with criterion("10", "k27 class-by-class coverage attributions", 1.0):
        out = k27()
        owner: dict[tuple[int, int], str] = {}
        for name, forest in zip(out.provenance, out.decomposition.forests):
            for e in edges_of(forest):
                owner[e] = name

        def vid(i, j, layer):
            return 9 * (i % 3) + 3 * (j % 3) + layer

        def owners(i, j, layer, other_layer):
            """Owner multiset of all edges from (i,j,layer) into other_layer."""
            from collections import Counter

            src = vid(i, j, layer)
            counts: Counter[str] = Counter()
            for ii in range(3):
                for jj in range(3):
                    dst = vid(ii, jj, other_layer)
                    if dst == src:
                        continue
                    counts[owner[(min(src, dst), max(src, dst))]] += 1
            return counts

        def s(i, j):
            return f"S({i % 3},{j % 3})"

        def x(j):
            return f"X({j % 3})"

        def y(i):
            return f"Y({i % 3})"

        for i in range(3):
            for j in range(3):
                # 8 edges into layer 0: 4 own-cell + one from each listed neighbour
                assert owners(i, j, 0, 0) == {
                    s(i, j): 4, s(i, j - 1): 1, s(i - 1, j): 1,
                    s(i - 1, j + 1): 1, s(i + 1, j + 1): 1,
                }
                # 9 edges into layer 1
                assert owners(i, j, 0, 1) == {
                    s(i, j): 4, s(i + 1, j): 1, s(i - 1, j - 1): 1,
                    x(j): 1, x(j + 1): 1, x(j - 1): 1,
                }
                # 9 edges into layer 2
                assert owners(i, j, 0, 2) == {
                    s(i, j): 4, s(i, j + 1): 1, s(i + 1, j - 1): 1,
                    y(i): 1, y(i + 1): 1, y(i - 1): 1,
                }
                # 8 edges inside layer 1: 4 via the cell forest and its row forest
                got = owners(i, j, 1, 1)
                assert got[s(i, j)] + got[x(j)] == 4
                assert got == {
                    s(i, j): 2, x(j): 2, s(i - 1, j): 1, s(i + 1, j + 1): 1,
                    x(j + 1): 1, x(j - 1): 1,
                }
                # 9 edges from layer 1 into layer 2: 5 via cell + row forests
                got = owners(i, j, 1, 2)
                assert got[s(i, j)] + got[x(j)] == 5
                assert got == {
                    s(i, j): 2, x(j): 3, s(i - 1, j + 1): 1, s(i, j - 1): 1,
                    y(i + 1): 1, y(i - 1): 1,
                }
                # 8 edges inside layer 2
                got = owners(i, j, 2, 2)
                assert got[s(i, j)] + got[y(i)] == 4
                assert got == {
                    s(i, j): 2, y(i): 2, s(i, j - 1): 1, s(i - 1, j + 1): 1,
                    y(i + 1): 1, y(i - 1): 1,
                }


def test_criterion_11_roundtrip_and_determinism(capsys, monkeypatch):
    with criterion("11", "golden round-trips and byte-deterministic CLI", 10.0):
        for path in sorted(GOLDEN.glob("*.sfd")):
            text = path.read_text()
            f = parse(text)
            assert validate_decomposition(f.decomposition).ok
            assert serialize(f) == text, path.name
        # repeated invocations produce identical bytes
        outputs = []
        for _ in range(2):
            assert main(["construct", "--family", "k16"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        monkeypatch.setattr("sys.stdin", io.StringIO(outputs[0]))
        assert main(["verify"]) == 0
        capsys.readouterr()

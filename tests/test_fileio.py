from pathlib import Path

import pytest

from starforest import (
    Decomposition,
    DecompositionFile,
    ParseError,
    broken_double_star,
    export_dot,
    export_dot_per_forest,
    f2_construction,
    f_exact,
    k4_construction,
    k16,
    k27,
    parse,
    serialize,
    validate_decomposition,
)

GOLDEN = Path(__file__).parent / "golden"


def roundtrip(out):
    text = serialize(out)
    f = parse(text)
    assert f.decomposition == out.decomposition
    assert f.family == out.family
    assert f.provenance == out.provenance
    assert f.raw_duplicates == out.raw_duplicates
    assert f.meta == out.meta
    assert serialize(f) == text


def test_roundtrip_constructions():
    roundtrip(k27())
    roundtrip(k16())
    roundtrip(broken_double_star(3))


def test_roundtrip_search_certificate():
    cert = f_exact(5, 2).certificate
    f = parse(serialize(DecompositionFile(cert)))
    assert f.decomposition == cert


def test_parse_rejects_bad_header():
    with pytest.raises(ParseError, match="line 1"):
        parse("decomposition v9\nn 3\nk 1\n")


def test_parse_rejects_center_among_leaves():
    text = "decomposition v1\nn 4\nk 2\nforest\nstar 1 : 0 1\n"
    with pytest.raises(ParseError, match=r"line 5.*center 1"):
        parse(text)


def test_parse_rejects_out_of_range_vertex():
    text = "decomposition v1\nn 4\nk 2\nforest\nstar 0 : 9\n"
    with pytest.raises(ParseError, match="out of range"):
        parse(text)


def test_parse_rejects_repeated_leaf():
    text = "decomposition v1\nn 4\nk 2\nforest\nstar 0 : 1 1\n"
    with pytest.raises(ParseError, match="repeats a leaf"):
        parse(text)


def test_parse_rejects_star_before_forest():
    with pytest.raises(ParseError, match="star before"):
        parse("decomposition v1\nn 4\nk 2\nstar 0 : 1\n")


def test_parse_rejects_missing_fields():
    with pytest.raises(ParseError, match="missing 'n'"):
        parse("decomposition v1\nk 2\n")
    with pytest.raises(ParseError, match="missing 'k'"):
        parse("decomposition v1\nn 4\n")


def test_parse_rejects_label_scheme_mismatch():
    with pytest.raises(ParseError, match="n=27"):
        parse("decomposition v1\nn 4\nk 2\nlabels f3cube\n")
    with pytest.raises(ParseError, match="line 4"):
        parse("decomposition v1\nn 4\nk 2\nlabels bogus\n")


# int() alone would take the first five: n=10, k=2, center 3, k=2, n=4
@pytest.mark.parametrize("body, problem", [
    ("n 1_0\nk 2\n", "line 2: n must be an integer, got '1_0'"),
    ("n 4\nk +2\n", "line 3: k must be an integer, got '+2'"),
    ("n 4\nk 2\nforest\nstar \u0663 : 0\n", "line 5: star center must be an integer, got '\u0663'"),
    ("n 4\nk \uff12\n", "line 3: k must be an integer, got '\uff12'"),
    ("n \uff14\nk 2\n", "line 2: n must be an integer, got '\uff14'"),
    ("n 4\nk 2\nforest\nstar 0 : -\n", "line 5: leaf must be an integer, got '-'"),
    ("n 4\nk 2\nforest\nstar -1 : 0\n", "line 5: star center must be non-negative, got -1"),
], ids=["underscore", "plus", "arabic-indic", "fullwidth-k", "fullwidth-n", "bare-minus", "negative"])
def test_parse_accepts_only_ascii_integers(body, problem):
    with pytest.raises(ParseError) as exc:
        parse("decomposition v1\n" + body)
    assert str(exc.value) == problem


# a second single-valued header line or meta key would otherwise win silently
# (or be appended), so parse followed by serialize would change the bytes
@pytest.mark.parametrize("body, problem", [
    ("n 4\nn 4\nk 2\n", "line 3: n given twice"),
    ("n 4\nk 2\nk 3\n", "line 4: k given twice"),
    ("n 16\nk 4\nlabels block12m4 1\nlabels plain\n", "line 5: labels given twice"),
    ("n 4\nk 2\nfamily a\nfamily b\n", "line 5: family given twice"),
    ("n 4\nk 2\nduplicates 0-1\nduplicates 2-3\n", "line 5: duplicates given twice"),
    ("n 4\nk 2\nmeta seed 1\nmeta note x\nmeta seed 2\n", "line 6: meta key seed given twice"),
], ids=["n", "k", "labels", "family", "duplicates", "meta"])
def test_parse_rejects_repeated_header_lines(body, problem):
    with pytest.raises(ParseError) as exc:
        parse("decomposition v1\n" + body)
    assert str(exc.value) == problem


def test_parse_rejects_bad_duplicate_edge():
    with pytest.raises(ParseError, match="u < v"):
        parse("decomposition v1\nn 4\nk 2\nduplicates 3-1\n")


@pytest.mark.parametrize("body, problem", [
    ("n 4\nk 2\nduplicates 0-1 0-99\n", "line 4: vertex 99 out of range for n=4"),
    ("duplicates 0-4\nn 4\nk 2\n", "line 2: vertex 4 out of range for n=4"),
], ids=["after-n", "before-n"])
def test_parse_rejects_out_of_range_duplicate_edge(body, problem):
    with pytest.raises(ParseError) as exc:
        parse("decomposition v1\n" + body)
    assert str(exc.value) == problem


def test_golden_files_reverify():
    for path in sorted(GOLDEN.glob("*.sfd")):
        text = path.read_text()
        f = parse(text)
        assert validate_decomposition(f.decomposition).ok, path.name
        assert serialize(f) == text, f"{path.name} does not round-trip byte-for-byte"
        assert parse(serialize(f)) == f, path.name


# the library's bytes are the bytes `construct` prints (tests/test_cli.py
# checks the CLI side against the same files)
@pytest.mark.parametrize("golden, build", [
    ("bds_t4.sfd", lambda: broken_double_star(4)),
    ("f2_n8.sfd", lambda: f2_construction(8)),
    ("k16.sfd", k16),
    ("k27.sfd", k27),
    ("k4gen_m2.sfd", lambda: k4_construction(2)),
], ids=["bds", "f2", "k16", "k27", "k4gen"])
def test_serialize_builder_matches_golden(golden, build):
    assert serialize(build()) == (GOLDEN / golden).read_text()


def test_builder_outputs_and_parsed_files_hash():
    assert hash(k27()) == hash(k27())
    f = parse((GOLDEN / "bds_t4.sfd").read_text())
    assert f.meta  # a meta line, which is a dict, does not make the record unhashable
    assert hash(f) == hash(parse(serialize(f)))


def test_golden_k16_has_ten_forests():
    f = parse((GOLDEN / "k16.sfd").read_text())
    assert f.decomposition.forest_count == 10
    assert len(f.raw_duplicates) == 8


def test_export_dot_k16():
    text = export_dot(k16().decomposition)
    assert text.count(" -- ") == 120
    assert text == export_dot(k16().decomposition)  # deterministic bytes
    assert 'label="A0(0)"' in text


def test_export_dot_single_star_forest():
    d = parse("decomposition v1\nn 6\nk 1\nforest\nstar 2 : 0 5\n").decomposition
    graphs = export_dot_per_forest(d)
    assert len(graphs) == 1
    assert "0" in graphs[0] and "5 [" in graphs[0]
    assert "1 [" not in graphs[0]  # untouched vertices stay out of per-forest graphs


def test_export_dot_per_forest_k27():
    assert len(export_dot_per_forest(k27().decomposition)) == 15


def test_serialize_rejects_mismatched_provenance():
    d = Decomposition(n=3, k=1, forests=())
    with pytest.raises(Exception):
        serialize(DecompositionFile(d, provenance=("too", "many")))

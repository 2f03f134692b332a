import hashlib
import tracemalloc
from pathlib import Path

import pytest

from starforest import (
    Decomposition,
    DecompositionError,
    DecompositionFile,
    LabelScheme,
    ParseError,
    Star,
    StarForest,
    broken_double_star,
    construct,
    exists_decomposition,
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
    assert f == DecompositionFile(*out[:5])  # a builder's ConstructionOutput reads back as its first five fields
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
    # unnamed forests, as `search --cert` writes them
    roundtrip(DecompositionFile(exists_decomposition(7, 3, 5).certificate, family="search"))
    # a scheme that names no vertex count, written as 'labels plain'
    d = broken_double_star(3).decomposition
    roundtrip(DecompositionFile(Decomposition(d.n, d.k, d.forests, LabelScheme("plain"))))


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


@pytest.mark.parametrize("body, problem", [
    ("k 2\nforest\nstar 0 : 1\nn 4\n", "line 4: star before n was given"),
    ("n 4\nk 2\nmeta seed\n", "line 4: expected 'meta <key> <value>'"),
    ("n 4\nk 2\nlabels\n", "line 4: expected 'labels <scheme> [param]'"),
    ("n 16\nk 4\nlabels block12m4 1 2\n", "line 4: expected 'labels <scheme> [param]'"),
    ("n 4\nk 2\nfamily\n", "line 4: empty family"),
], ids=["star-before-n", "meta-without-value", "labels-without-scheme", "labels-with-two-params", "bare-family"])
def test_parse_rejects_incomplete_lines(body, problem):
    with pytest.raises(ParseError) as exc:
        parse("decomposition v1\n" + body)
    assert str(exc.value) == problem


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
    # the same tokens as leaves, alone and after a valid leaf; the whole line is
    # checked at once, so each must still be found and named
    ("n 4\nk 2\nforest\nstar 0 : +2\n", "line 5: leaf must be an integer, got '+2'"),
    ("n 4\nk 2\nforest\nstar 0 : 1 +2 3\n", "line 5: leaf must be an integer, got '+2'"),
    ("n 4\nk 2\nforest\nstar 0 : 1_0\n", "line 5: leaf must be an integer, got '1_0'"),
    ("n 4\nk 2\nforest\nstar 0 : 1 1_0\n", "line 5: leaf must be an integer, got '1_0'"),
    ("n 4\nk 2\nforest\nstar 0 : \u0663\n", "line 5: leaf must be an integer, got '\u0663'"),
    ("n 4\nk 2\nforest\nstar 0 : 1 \u0663\n", "line 5: leaf must be an integer, got '\u0663'"),
    # '²'.isdigit() is true and only isascii() refuses it
    ("n 4\nk 2\nforest\nstar \u00b2 : 1\n", "line 5: star center must be an integer, got '\u00b2'"),
    ("n 4\nk 2\nforest\nstar 0 : \u00b2\n", "line 5: leaf must be an integer, got '\u00b2'"),
    ("n 4\nk 2\nforest\nstar 0 : 1 \u00b2\n", "line 5: leaf must be an integer, got '\u00b2'"),
    ("n 4\nk 2\nforest\nstar 0 : 1 - 2\n", "line 5: leaf must be an integer, got '-'"),
    ("n 4\nk 2\nforest\nstar 0 : -1\n", "line 5: leaf must be non-negative, got -1"),
    ("n 4\nk 2\nforest\nstar 0 : 1 -1\n", "line 5: leaf must be non-negative, got -1"),
    # every token is read before any range check, so a later bad token wins
    ("n 4\nk 2\nforest\nstar 0 : 9 +2\n", "line 5: leaf must be an integer, got '+2'"),
    ("n 4\nk 2\nforest\nstar 9 : 1 -1\n", "line 5: leaf must be non-negative, got -1"),
], ids=["underscore", "plus", "arabic-indic", "fullwidth-k", "fullwidth-n", "bare-minus", "negative",
        "leaf-plus", "later-leaf-plus", "leaf-underscore", "later-leaf-underscore", "leaf-arabic-indic",
        "later-leaf-arabic-indic", "center-superscript", "leaf-superscript", "later-leaf-superscript",
        "later-leaf-bare-minus", "leaf-negative", "later-leaf-negative", "plus-after-out-of-range",
        "negative-after-out-of-range"])
def test_parse_accepts_only_ascii_integers(body, problem):
    with pytest.raises(ParseError) as exc:
        parse("decomposition v1\n" + body)
    assert str(exc.value) == problem


def test_parse_reads_integer_tokens_of_640_characters():
    # the longest token that int() reads under any sys.set_int_max_str_digits
    # setting; a star line's tokens go through the table and the re-read path
    pad = "0" * 639
    f = parse(f"decomposition v1\nn {pad}4\nk {pad}2\nduplicates {pad}0-{pad}1\n"
              f"forest\nstar {pad}0 : {pad}1 2\nstar 3 : -{pad}\n")
    assert (f.decomposition.n, f.decomposition.k, f.raw_duplicates) == (4, 2, ((0, 1),))
    assert [(s.center, s.leaves) for s in f.decomposition.forests[0].stars] == [(0, (1, 2)), (3, (0,))]


def test_parse_reads_minus_zero_as_zero():
    d = parse("decomposition v1\nn 4\nk 2\nforest\nstar 1 : -0\nstar 2 : 3 -0\nforest\nstar -0 : 3\n").decomposition
    assert [(s.center, s.leaves) for f in d.forests for s in f.stars] == [(1, (0,)), (2, (3, 0)), (0, (3,))]


@pytest.mark.parametrize("star, vertex", [
    ("9 : 7 1", 9),  # the center comes first
    ("0 : 1 7 9", 7),
    ("1 : 2 3 6 5", 6),
    ("4 : 0", 4),
])
def test_parse_reports_first_out_of_range_vertex(star, vertex):
    with pytest.raises(ParseError) as exc:
        parse(f"decomposition v1\nn 4\nk 2\nforest\nstar {star}\n")
    assert str(exc.value) == f"line 5: vertex {vertex} out of range for n=4"


def test_parse_reuses_read_tokens_with_their_values():
    # line 9 enters '007' in the token table under its own spelling, and the last star line reads it
    # from there; '-0' stays out and is re-read on each line, and the duplicates line reads token by token
    f = parse("decomposition v1\nn 8\nk 2\nduplicates 1-007\nforest\nstar -0 : 007 1\nstar 2 : 3\n"
              "forest\nstar 007 : -0 3\nstar 1 : 2\nforest\nstar 007 : 1\n")
    assert f.raw_duplicates == ((1, 7),)
    assert [(s.center, s.leaves) for fo in f.decomposition.forests for s in fo.stars] == [
        (0, (7, 1)), (2, (3,)), (7, (0, 3)), (1, (2,)), (7, (1,))]


@pytest.mark.parametrize("later, problem", [
    ("star 1 : 2 +3", "line 7: leaf must be an integer, got '+3'"),
    ("star 1 : 2 1_0", "line 7: leaf must be an integer, got '1_0'"),
    ("star +1 : 2", "line 7: star center must be an integer, got '+1'"),
    ("star 1 : -2", "line 7: leaf must be non-negative, got -2"),
    ("star 1 : 2 \u0663", "line 7: leaf must be an integer, got '\u0663'"),
    # out of range: the first such vertex in line order, though earlier tokens are known
    ("star 1 : 2 9 8", "line 7: vertex 9 out of range for n=4"),
    ("star 9 : 2 1", "line 7: vertex 9 out of range for n=4"),
    ("star 1 : 0 2 3 4", "line 7: vertex 4 out of range for n=4"),
    # known tokens, but the star itself is malformed
    ("star 1 : 2 2", "line 7: star with center 1 repeats a leaf"),
    ("star 1 : 2 1", "line 7: star with center 1 lists the center as a leaf"),
], ids=["plus", "underscore", "center-plus", "negative", "arabic-indic", "out-of-range", "center-out-of-range",
        "late-out-of-range", "repeated-leaf", "center-as-leaf"])
def test_parse_errors_after_known_tokens(later, problem):
    # every vertex token but the bad one was read on lines 5 and 6
    with pytest.raises(ParseError) as exc:
        parse(f"decomposition v1\nn 4\nk 2\nforest\nstar 1 : 2 3\nstar 0 : 1 2\n{later}\n")
    assert str(exc.value) == problem


def test_parse_huge_header_builds_nothing_of_size_n():
    tracemalloc.start()
    try:
        f = parse("decomposition v1\nn 100000000000\nk 3\nforest\nstar 0 : 1 2\nstar 99999999999 : 3\n"
                  "forest\nstar 1 : 99999999999 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(fo.stars) for fo in f.decomposition.forests] == [2, 1]
    assert peak < 100_000


def test_serialize_huge_n_builds_nothing_of_size_n():
    # the vertex spelling table holds only the vertices that appear
    d = Decomposition(n=10**12, k=1, forests=(StarForest((Star(0, (1,)),)),))
    tracemalloc.start()
    try:
        text = serialize(DecompositionFile(d))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == "decomposition v1\nn 1000000000000\nk 1\nforest\nstar 0 : 1\n"
    assert peak < 100_000


@pytest.mark.parametrize("edges, read", [
    ("0-1 2-3", ((0, 1), (2, 3))),
    ("007-010 0-00001", ((7, 10), (0, 1))),
    ("", ()),
])
def test_parse_reads_duplicate_edges(edges, read):
    # the same edges whether the line comes after n or before it
    assert parse(f"decomposition v1\nn 12\nk 2\nduplicates {edges}\n").raw_duplicates == read
    assert parse(f"decomposition v1\nduplicates {edges}\nn 12\nk 2\n").raw_duplicates == read


@pytest.mark.parametrize("edges, problem", [
    ("0-1 12 1-2-3", "bad edge '12', expected u-v"),  # one dash in all, but not one per edge
    ("0--1", "bad edge '0--1', expected u-v"),
    ("-0-1", "bad edge '-0-1', expected u-v"),
    ("0-1 1-", "duplicate edge endpoint must be an integer, got ''"),
    ("0-1 +1-2", "duplicate edge endpoint must be an integer, got '+1'"),
    ("0-\u0663", "duplicate edge endpoint must be an integer, got '\u0663'"),
    ("0-1 2-2", "edge '2-2' must satisfy u < v"),
    ("0-1 0-99", "vertex 99 out of range for n=12"),
], ids=["dash-count", "double-dash", "minus-zero", "empty-end", "plus", "arabic-indic", "equal-ends", "out-of-range"])
def test_parse_duplicate_edge_errors(edges, problem):
    # the same message whether the line comes after n or before it
    for lineno, body in ((4, f"n 12\nk 2\nduplicates {edges}\n"), (2, f"duplicates {edges}\nn 12\nk 2\n")):
        with pytest.raises(ParseError) as exc:
            parse("decomposition v1\n" + body)
        assert str(exc.value) == f"line {lineno}: {problem}"


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


# sha256 of export_dot and of the concatenated export_dot_per_forest output
@pytest.mark.parametrize("golden, dot, per_forest", [
    ("bds_t4.sfd", "ec62f7eb78f38e159a910266ada6d8ccc0ac8eb94278daa10f3119237b725f00",
     "1cad8e3331c65f5d6b30d509e800d7caf332fb8cd76910b45d1be4baad55b7d2"),
    ("f2_n8.sfd", "3b127ab2ac7d1a5bea801146ac1d9c04401c7a3b9ee13f36e7c600cd260742f9",
     "814465c4efdbbaa587d40f1593191b2fc939e62daab53806f350fba4e07ff90b"),
    ("k16.sfd", "1f45e20b392356b31a799a004188e3a8c281886e2ebd450097ce91ec72043ba3",
     "1bd240ae7c5fb2e7f141f5fc8a7076c67ab73a0c4fb4ba6bac7bd7271f32a1a0"),
    ("k27.sfd", "3a8dcce70ec694ad5b91c1cef6614e2f08584c60d78fbb8af4d8b4c0651bc342",
     "d216569daee622598b1458610dd40beb912340bac0b8920ecd9db6b168c1eba7"),
    ("k4gen_m2.sfd", "d3527cf38d2a34c41543cb8b828bf6d6790e735b47837c859a9e66e42a500f87",
     "34427b8e59e6d64e261b1c7c7cb17385ba9c165e37e426dfe0f9cdec76bd6b93"),
])
def test_export_dot_bytes_pinned(golden, dot, per_forest):
    d = parse((GOLDEN / golden).read_text()).decomposition
    assert hashlib.sha256(export_dot(d).encode()).hexdigest() == dot
    assert hashlib.sha256("".join(export_dot_per_forest(d)).encode()).hexdigest() == per_forest


def test_export_dot_single_star_forest():
    d = parse("decomposition v1\nn 6\nk 1\nforest\nstar 2 : 0 5\n").decomposition
    graphs = export_dot_per_forest(d)
    assert len(graphs) == 1
    assert "0" in graphs[0] and "5 [" in graphs[0]
    assert "1 [" not in graphs[0]  # untouched vertices stay out of per-forest graphs


def test_export_dot_per_forest_k27():
    assert len(export_dot_per_forest(k27().decomposition)) == 15


def _small_file(**fields) -> DecompositionFile:
    d = parse("decomposition v1\nn 3\nk 1\nforest\nstar 0 : 1 2\nforest\nstar 1 : 2\n").decomposition
    return DecompositionFile(d, **fields)


# each of these once read back changed, or failed to parse at all
@pytest.mark.parametrize("fields", [
    dict(family="x "),
    dict(family=" x"),
    dict(family=" "),
    dict(family=""),
    dict(family="a\nb"),
    dict(family="a\x0cb"),
    dict(family="a\x85b"),
    dict(family="a\u2028b"),
    dict(provenance=("a\nb", None)),
    dict(provenance=("a\x0cb", None)),
    dict(provenance=("a\u2028b", None)),
    dict(provenance=("a\x85b", None)),
    dict(provenance=("", None)),
    dict(provenance=("x", "y\t")),
    dict(meta={"k y": "v"}),
    dict(meta={"k\ty": "v"}),
    dict(meta={"": "v"}),
    dict(meta={"k": ""}),
    dict(meta={"k": " v"}),
    dict(meta={"k": "v\rw"}),
], ids=["family-trailing-space", "family-leading-space", "family-blank", "family-empty", "family-newline",
        "family-formfeed", "family-nel", "family-line-separator", "forest-newline", "forest-formfeed",
        "forest-line-separator", "forest-nel", "forest-empty", "forest-trailing-tab", "meta-key-space",
        "meta-key-tab", "meta-key-empty", "meta-value-empty", "meta-value-leading-space", "meta-value-cr"])
def test_serialize_rejects_header_text_that_does_not_round_trip(fields):
    with pytest.raises(DecompositionError):
        serialize(_small_file(**fields))


def test_serialize_keeps_inner_whitespace_in_header_text():
    f = _small_file(family="a  b\tc", provenance=("X(0, 0)", None), meta={"k:\u00e9": "v  w\tz"})
    assert parse(serialize(f)) == f  # meta takes part in ==


# every family's builder output serializes and reads back as itself
SMALL_ARGS = {
    "bds": (4,), "f2": (8,), "k27": (), "f3": (27,), "k16": (), "k4gen": (2,), "conjecture": (12, 3),
    "blowup": (parse((GOLDEN / "f2_n8.sfd").read_text()), 2),
}


@pytest.mark.parametrize("family", sorted(SMALL_ARGS))
def test_every_builder_output_serializes(family):
    assert set(SMALL_ARGS) == set(construct.FAMILIES)
    out = getattr(construct, construct.FAMILIES[family].builder)(*SMALL_ARGS[family])
    roundtrip(out)


def test_serialize_rejects_mismatched_provenance():
    d = Decomposition(n=3, k=1, forests=())
    with pytest.raises(Exception):
        serialize(DecompositionFile(d, provenance=("too", "many")))

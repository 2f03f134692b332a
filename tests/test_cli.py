import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starforest import PreconditionError, check_degree1_placement, cli, is_broken_double_star, verify
from starforest.cli import main
from starforest.construct import FAMILIES
from starforest.fileio import ParseError, parse

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
README = Path(__file__).parent.parent / "README.md"


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_construct_then_verify_pipeline(capsys, monkeypatch):
    rc, out, _ = run(capsys, ["construct", "--family", "k27"])
    assert rc == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    rc, out2, _ = run(capsys, ["verify"])
    assert rc == 0
    assert "valid: yes" in out2


@pytest.mark.parametrize("golden, args", [
    ("bds_t4.sfd", ["bds", "--t", "4"]),
    ("f2_n8.sfd", ["f2", "--n", "8"]),
    ("k16.sfd", ["k16"]),
    ("k27.sfd", ["k27"]),
    ("k4gen_m2.sfd", ["k4gen", "--m", "2"]),
], ids=["bds", "f2", "k16", "k27", "k4gen"])
def test_construct_matches_golden(capsys, golden, args):
    rc, out, _ = run(capsys, ["construct", "--family", *args])
    assert rc == 0
    assert out == (GOLDEN / golden).read_text()


# sha256 of the construct output of families without a golden file; the
# dispatch in cmd_construct must reproduce them byte for byte
@pytest.mark.parametrize("args, digest", [
    (["conjecture", "--n", "16", "--k", "4"], "ada367eed3728bf17d6a9232a283c1e666c516168aa9ce17629bf7f7fd70980d"),
    (["f3", "--n", "54"], "ff01383a8b20bcfdb5e60184d00436937305f105c2c4c1731a5146045e71cbba"),
    (["blowup", "--in", str(GOLDEN / "k27.sfd"), "--t", "2"],
     "5b0b3330cec823db28f9f2b8758bb7505931bdde9ae76d0f1c1b151d596527bf"),
], ids=["conjecture", "f3", "blowup"])
def test_construct_output_pinned(capsys, args, digest):
    rc, out, _ = run(capsys, ["construct", "--family", *args])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_construct_blowup_anonymous_base(capsys, tmp_path):
    # unnamed forests fall back to f{j}, a missing family to "decomposition"
    _, out, _ = run(capsys, ["construct", "--family", "bds", "--t", "4"])
    lines = [ln for ln in out.splitlines() if ln.split(" ", 1)[0] not in ("family", "meta", "duplicates")]
    base = tmp_path / "anon.sfd"
    base.write_text("".join("forest\n" if ln.startswith("forest ") else ln + "\n" for ln in lines))
    rc, out, _ = run(capsys, ["construct", "--family", "blowup", "--in", str(base), "--t", "2"])
    assert rc == 0
    assert "family blowup(decomposition,2)\n" in out
    assert "forest f0@0\n" in out and "forest f4@1\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4604fe17a8f1577a3695b37bbfc84341cc417ad74a0c728101dbb3f3b7550eb9"
    )


def test_construct_blowup_invalid_base_exit_2(capsys, tmp_path):
    text = (GOLDEN / "k27.sfd").read_text()
    bad = tmp_path / "k27-minus-leaf.sfd"
    bad.write_text(text.replace("star 0 : 3 9 ", "star 0 : 9 ", 1))
    rc, out, err = run(capsys, ["construct", "--family", "blowup", "--in", str(bad), "--t", "2"])
    assert rc == 2
    assert out == ""
    assert err == "error: blowup needs a valid base decomposition\n"


# a precondition the arguments break exits 2 with one stderr line and no output
@pytest.mark.parametrize("argv, message", [
    (["construct", "--family", "f2", "--n", "5"], "needs an even n >= 4"),
    (["construct", "--family", "conjecture", "--n", "6", "--k", "1"], "needs k >= 2"),
    (["construct", "--family", "conjecture", "--n", "6", "--k", "4"],
     "needs n >= 2k so matching groups are well defined"),
    (["construct", "--family", "blowup", "--in", str(GOLDEN / "k27.sfd"), "--t", "0"], "blowup needs t >= 1"),
    (["bounds", "--n", "3", "--k", "5"], "needs n >= k >= 1"),
    (["export", "--in", str(GOLDEN / "k27.sfd"), "--format", "dot-per-forest"],
     "--out-dir is required for dot-per-forest"),
], ids=["f2-odd-n", "conjecture-k1", "conjecture-small-n", "blowup-t0", "bounds-n-below-k", "per-forest-no-out-dir"])
def test_precondition_exit_2(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


def test_construct_byte_determinism(capsys):
    rc1, out1, _ = run(capsys, ["construct", "--family", "k4gen", "--m", "2"])
    rc2, out2, _ = run(capsys, ["construct", "--family", "k4gen", "--m", "2"])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_detects_missing_edge(capsys, tmp_path):
    text = (GOLDEN / "k16.sfd").read_text()
    # delete the single-leaf star of the first forest: exactly one edge vanishes
    lines = [ln for ln in text.splitlines() if ln != "star 0 : 3"]
    bad = tmp_path / "bad.sfd"
    bad.write_text("\n".join(lines) + "\n")
    rc, out, _ = run(capsys, ["verify", "--in", str(bad)])
    assert rc == 1
    assert "missing (1): 0-3" in out


def test_verify_json(capsys):
    rc, out, _ = run(capsys, ["verify", "--in", str(GOLDEN / "k27.sfd"), "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["valid"] and payload["forests"] == 15


def test_verify_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "garbage.sfd"
    bad.write_text("not a decomposition\n")
    rc, _, err = run(capsys, ["verify", "--in", str(bad)])
    assert rc == 2
    assert "error" in err


def test_verify_repeated_family_exit_2(capsys, tmp_path):
    path = tmp_path / "twice.sfd"
    path.write_text("decomposition v1\nn 2\nk 1\nfamily a\nfamily b\nforest\nstar 0 : 1\n")
    assert run(capsys, ["verify", "--in", str(path)]) == (2, "", "error: line 5: family given twice\n")


@pytest.mark.parametrize("command", ["verify", "analyze"])
@pytest.mark.parametrize("kind", ["undecodable", "directory"])
def test_unreadable_input_exit_2(capsys, tmp_path, command, kind):
    path = tmp_path / "input.sfd"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"decomposition v1\nn 4\nk 2\n\xff\xfe\x80\n")
    rc, out, err = run(capsys, [command, "--in", str(path)])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# search writes its certificate before it prints, so a failed write leaves stdout empty
@pytest.mark.parametrize("command, kind", [
    (["construct", "--family", "k16", "--out"], "missing-dir"),
    (["construct", "--family", "k16", "--out"], "target-is-dir"),
    (["search", "--n", "7", "--k", "3", "--cert"], "missing-dir"),
    (["search", "--n", "7", "--k", "3", "--cert"], "target-is-dir"),
], ids=["missing-dir", "target-is-dir", "search-cert-missing-dir", "search-cert-target-is-dir"])
def test_out_write_failure_exit_2_leaves_no_stray_file(capsys, tmp_path, command, kind):
    target = tmp_path / "missing" / "x.sfd" if kind == "missing-dir" else tmp_path / "x.sfd"
    if kind == "target-is-dir":
        target.mkdir()  # the rename over it fails after the temporary file exists
    rc, out, err = run(capsys, [*command, str(target)])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.rstrip().endswith(repr(str(target)))
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == (
        [] if kind == "missing-dir" else [Path("x.sfd")]
    )


def test_out_writes_target_only(capsys, tmp_path):
    target = tmp_path / "k16.sfd"
    target.write_text("stale\n")
    rc, _, _ = run(capsys, ["construct", "--family", "k16", "--out", str(target)])
    assert rc == 0
    assert target.read_text() == (GOLDEN / "k16.sfd").read_text()
    assert list(tmp_path.iterdir()) == [target]


def test_analyze_k27(capsys):
    rc, out, _ = run(capsys, ["analyze", "--in", str(GOLDEN / "k27.sfd")])
    assert rc == 0
    assert "degree profile: m=15 r=0" in out
    assert "counting inequality: slack=0" in out
    assert "degree-1 placement: ok" in out
    assert "not applicable" in out  # odd n for the double-star recognizer


def test_analyze_bds_recognition(capsys):
    rc, out, _ = run(capsys, ["analyze", "--in", str(GOLDEN / "bds_t4.sfd")])
    assert rc == 0
    assert "broken double star: True" in out


def test_search_value(capsys):
    rc, out, _ = run(capsys, ["search", "--n", "4", "--k", "2"])
    assert rc == 0
    assert "F_2(4) = 3" in out


def test_search_exists_mode(capsys):
    rc, out, _ = run(capsys, ["search", "--n", "4", "--k", "2", "--max-forests", "2"])
    assert rc == 0
    assert "exhausted-not-found" in out


@pytest.mark.parametrize("command", ["search", "bounds"])
def test_nan_timeout_exit_2(capsys, command):
    extra = ["--with-search"] if command == "bounds" else []
    rc, out, err = run(capsys, [command, "--n", "5", "--k", "2", *extra, "--timeout", "nan"])
    assert rc == 2
    assert out == ""
    assert err == "error: budget fields must be positive\n"


def test_search_budget_exit_code(capsys):
    rc, out, _ = run(capsys, ["search", "--n", "7", "--k", "2", "--max-nodes", "5"])
    assert rc == 3


def test_search_deeper_than_the_recursion_limit_is_budget_exceeded(capsys):
    # K_50 has 1225 edges, more than Python's default recursion limit, but the
    # search recurses once per forest, so it ends on its budget: F_2(50) =
    # ceil(3 * 50 / 4) = 38, so 37 forests cannot be found
    rc, out, err = run(capsys, ["search", "--n", "50", "--k", "2", "--max-forests", "37",
                                "--max-nodes", "500"])
    assert (rc, out, err) == (3, "status: budget-exceeded (nodes=500)\n", "")


def test_search_that_hits_the_recursion_limit_is_budget_exceeded():
    # a limit below the 40 frames the search needs raises RecursionError
    # inside it, which ends the search as out of budget; the node count at
    # that point depends on the interpreter's base stack depth and on the
    # short-lived frames of the walk over the classes, which differ between
    # the library call and the CLI, so only its bound is pinned
    code = ("import sys\n"
            "from starforest import cli, exists_decomposition\n"
            "sys.setrecursionlimit(60)\n"
            "res = exists_decomposition(50, 2, 40)\n"
            "print(res.status.value, res.nodes_explored)\n"
            "sys.exit(cli.main(['search', '--n', '50', '--k', '2', '--max-forests', '40']))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-s", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    status, nodes = proc.stdout.splitlines()[0].split()
    assert (proc.returncode, proc.stderr, status) == (3, "", "budget-exceeded")
    assert int(nodes) < 40
    cli_line, = proc.stdout.splitlines()[1:]
    cli_nodes = re.fullmatch(r"status: budget-exceeded \(nodes=(\d+)\)", cli_line)
    assert cli_nodes and int(cli_nodes[1]) < 40


def test_bounds_with_search_deeper_than_the_recursion_limit_keeps_the_row(capsys):
    rc, plain, _ = run(capsys, ["bounds", "--n", "50", "--k", "2"])
    assert rc == 0
    assert run(capsys, ["bounds", "--n", "50", "--k", "2", "--with-search",
                        "--max-nodes", "3000"]) == (0, plain, "")


def test_search_timeout_stops_at_the_first_deadline_check(capsys):
    # the deadline is read every 4096 nodes, first at node 4096; (10, 2, 7)
    # needs 4170 center-set placements
    rc, out, _ = run(capsys, ["search", "--n", "10", "--k", "2", "--max-forests", "7",
                              "--timeout", "1e-9", "--json"])
    assert (rc, json.loads(out)) == (3, {"nodes": 4096, "status": "budget-exceeded"})


def test_search_star_count_refutes_at_the_root(capsys):
    # 4 < n-1 forests on 8 vertices: each vertex must center a star of two
    # leaves, and the 4*8 - 28 = 4 stars the edge count leaves fall short of 8
    assert run(capsys, ["search", "--json", "--n", "8", "--k", "2", "--max-forests", "4"]) == (
        0, '{"nodes": 0, "status": "exhausted-not-found"}\n', "")


def test_search_settles_n_minus_1_when_the_budget_ends_there(capsys):
    # 137 center-set placements exhaust m=5; F_2(7) = 6 then needs no search
    assert run(capsys, ["search", "--n", "7", "--k", "2", "--max-nodes", "137"]) == (
        0, "F_2(7) = 6 (nodes=137)\n", "")


def test_search_writes_certificate(capsys, tmp_path):
    cert = tmp_path / "cert.sfd"
    rc, _, _ = run(capsys, ["search", "--n", "5", "--k", "2", "--cert", str(cert)])
    assert rc == 0
    rc, out, _ = run(capsys, ["verify", "--in", str(cert)])
    assert rc == 0


def test_bounds_row(capsys):
    rc, out, _ = run(capsys, ["bounds", "--n", "27", "--k", "3"])
    assert rc == 0
    assert "lower=15[f3-counting]" in out
    assert "upper=15[construction:f3]" in out
    assert "conjecture=18" in out
    assert "REFUTED" in out


def test_bounds_json(capsys):
    rc, out, _ = run(capsys, ["bounds", "--n", "16", "--k", "4", "--json"])
    payload = json.loads(out)
    assert payload["lower"] == payload["upper"] == payload["conjecture"] == 10
    assert payload["refuted"] is False


def test_export_single_dot(capsys, tmp_path):
    target = tmp_path / "k16.dot"
    rc, _, _ = run(capsys, ["export", "--in", str(GOLDEN / "k16.sfd"),
                            "--format", "dot", "--out", str(target)])
    assert rc == 0
    assert target.read_text().count(" -- ") == 120


def test_export_per_forest_writes_15_files(capsys, tmp_path):
    outdir = tmp_path / "dots"
    rc, _, _ = run(capsys, ["export", "--in", str(GOLDEN / "k27.sfd"),
                            "--format", "dot-per-forest", "--out-dir", str(outdir)])
    assert rc == 0
    assert len(list(outdir.glob("forest_*.dot"))) == 15


def test_construct_blowup_from_file(capsys, tmp_path):
    lifted = tmp_path / "k27x2.sfd"
    rc, _, _ = run(capsys, ["construct", "--family", "blowup",
                            "--in", str(GOLDEN / "k27.sfd"), "--t", "2",
                            "--out", str(lifted)])
    assert rc == 0
    rc, out, _ = run(capsys, ["verify", "--in", str(lifted)])
    assert rc == 0
    assert "forests=30" in out


def test_analyze_json(capsys):
    rc, out, _ = run(capsys, ["analyze", "--in", str(GOLDEN / "k27.sfd"), "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["degree_profile"]["r"] == 0
    assert payload["degree_profile"]["p"] == {"1": 9, "2": 18}
    assert payload["counting"]["slack"] == 0


def pinned_input(name: str, tmp_path) -> Path:
    """A golden file, or one of three defective inputs derived from the goldens."""
    if name in ("bds_t4", "k27"):
        return GOLDEN / f"{name}.sfd"
    if name == "empty60":
        text = "decomposition v1\nn 60\nk 4\n"
    elif name == "k27_dropped":  # the last leaf (14) of the first star deleted
        lines = (GOLDEN / "k27.sfd").read_text().split("\n")
        first = next(i for i, ln in enumerate(lines) if ln.startswith("star "))
        lines[first] = lines[first].rsplit(" ", 1)[0]
        text = "\n".join(lines)
    else:  # bds_t4_extra: the first star repeated as a new last line
        text = (GOLDEN / "bds_t4.sfd").read_text() + "star 0 : 1 2 3\n"
    path = tmp_path / f"{name}.sfd"
    path.write_text(text)
    return path


# stdout sha256 and exit code of `starforest <command> --in <input>`, recorded
# before the validator's missing/duplicated scans and verify's JSON were rewritten
OUTPUT_PINS = [
    ("empty60", "verify --json", 1, "83797bda885bfc115ed7bd4cd0c31c0512be737e5a2a882f6c74d5aa55f9784e"),
    ("empty60", "verify", 1, "44f9f931576a9f55a6ae71e7e4563297832d778d03ee4a5d4eaf4590b33e9192"),
    ("empty60", "analyze --json", 0, "01ec5721dce4a6d9cb3f34b30436e4178502f4bd508359243560015bb8ca0f1c"),
    ("empty60", "analyze", 0, "0b57e22be760aedb6c74e6a6331a3108a719b7723b92167b8fa8039fee4735d9"),
    ("k27_dropped", "verify --json", 1, "a17e28d4f0e40477281fcaed4a82162177866edc320548c495395f59c10d6d7b"),
    ("k27_dropped", "verify", 1, "904c27cc95d8b944a161808874355f73653180e2319fd7cbd309084d6f0edc97"),
    ("k27_dropped", "analyze --json", 0, "59ba231431dfbaf27075935b8c9dec92b651fb41c0453973f1ff1cc9dfe1e88c"),
    ("k27_dropped", "analyze", 0, "95e729ac4986d12eda2e4c8a4cb1e6422123f1d2ebee13a6727d62f22b38a982"),
    ("bds_t4_extra", "verify --json", 1, "0d7b1f2ccdb4fcf19ab90551aeb60d3e25f12c54df430dde6d030aa564925c2a"),
    ("bds_t4_extra", "verify", 1, "4de8136f5f75912f8d694447331de56794ee4e562da670b42a5d34eb3ac7727a"),
    ("bds_t4_extra", "analyze --json", 0, "f1338ad43c8729360b75b4cd7db44f65b3480e875bf4b1228e07d6cfa7a10166"),
    ("bds_t4_extra", "analyze", 0, "88f0c7bd775ab307838f8999abcc287957fe52cd819f8028e871d31bbdecb378"),
    ("bds_t4", "analyze --json", 0, "81a9a210eba1dcafd1b9f7a850c8f2d4a907d91b7d6b5b6a54d52e0cc714bfa6"),
    ("k27", "analyze --json", 0, "21d28cccf3ccee89f346cd01b5c26c9fa0d1d1ee28f03f6c647f0b8e21f9a6c7"),
]


@pytest.mark.parametrize("name, command, rc, digest", OUTPUT_PINS,
                         ids=[f"{name}-{command.replace(' --', '-')}" for name, command, _, _ in OUTPUT_PINS])
def test_verify_analyze_output_pinned(capsys, tmp_path, name, command, rc, digest):
    code, out, err = run(capsys, [*command.split(), "--in", str(pinned_input(name, tmp_path))])
    assert (code, err) == (rc, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, placement, bds", [
    ("k27", {"ok": True, "pinched_degree2": [], "shared_degree1": []},
     "not applicable: only defined for even vertex counts"),
    ("bds_t4", {"ok": True, "pinched_degree2": [], "shared_degree1": []}, True),
    ("k27_dropped", {"not_applicable": "placement checks need a valid decomposition"},
     "not applicable: only defined for even vertex counts"),
    ("bds_t4_extra", {"not_applicable": "placement checks need a valid decomposition"}, False),
], ids=["k27", "bds_t4", "k27_dropped", "bds_t4_extra"])
def test_analyze_validates_once(capsys, monkeypatch, tmp_path, name, placement, bds):
    # the placement check and the (t+1)-forest double-star recognizer reuse
    # the report that analyze already has, valid or not
    calls = []

    def counted(d, _validate=verify.validate_decomposition):
        calls.append(d)
        return _validate(d)

    monkeypatch.setattr(cli, "validate_decomposition", counted)
    monkeypatch.setattr(verify, "validate_decomposition", counted)
    rc, out, _ = run(capsys, ["analyze", "--json", "--in", str(pinned_input(name, tmp_path))])
    assert rc == 0
    assert len(calls) == 1
    payload = json.loads(out)
    assert (payload["degree1_placement"], payload["broken_double_star"]) == (placement, bds)


def test_checks_validate_without_report(tmp_path):
    dropped = parse(pinned_input("k27_dropped", tmp_path).read_text()).decomposition
    with pytest.raises(PreconditionError, match="^placement checks need a valid decomposition$"):
        check_degree1_placement(verify.validate_decomposition(dropped))
    extra = parse(pinned_input("bds_t4_extra", tmp_path).read_text()).decomposition
    assert not is_broken_double_star(verify.validate_decomposition(extra))
    bds = parse((GOLDEN / "bds_t4.sfd").read_text()).decomposition
    assert is_broken_double_star(verify.validate_decomposition(bds))


def test_analyze_builds_the_root_hypergraph_once(capsys, monkeypatch):
    # analyze reads the validation report's hypergraph, and the placement
    # check, which takes the report alone, reads the same one
    built, placed = [], []

    def counted(d, _build=verify.root_hypergraph):
        built.append((d, _build(d)))
        return built[-1][1]

    def recorded(rh, _check=verify._degree1_placement):
        placed.append(rh)
        return _check(rh)

    monkeypatch.setattr(verify, "root_hypergraph", counted)
    monkeypatch.setattr(verify, "_degree1_placement", recorded)
    rc, out, _ = run(capsys, ["analyze", "--json", "--in", str(GOLDEN / "k27.sfd")])
    assert rc == 0
    assert json.loads(out)["degree1_placement"]["ok"] is True
    assert [d for d, _ in built] == [parse((GOLDEN / "k27.sfd").read_text()).decomposition]
    assert len(placed) == 1 and placed[0] is built[0][1]


def test_search_json(capsys):
    rc, out, _ = run(capsys, ["search", "--n", "5", "--k", "2", "--json"])
    assert rc == 0
    assert json.loads(out)["value"] == 4


def test_construct_remaining_families(capsys, tmp_path):
    for argv, forests in [
        (["construct", "--family", "conjecture", "--n", "16", "--k", "4"], 10),
        (["construct", "--family", "f3", "--n", "54"], 30),
        (["construct", "--family", "bds", "--t", "3"], 4),
    ]:
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        target = tmp_path / "out.sfd"
        target.write_text(out)
        rc, vout, _ = run(capsys, ["verify", "--in", str(target)])
        assert rc == 0
        assert f"forests={forests}" in vout


def test_invalid_family_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--family", "nosuch"])
    assert exc.value.code == 2


# blowup reads its base from stdin without --in, so "in" is never required
REQUIRED_FLAGS = {name: flags for name, fam in FAMILIES.items()
                  if (flags := tuple(f for f in fam.flags if f != "in"))}


# every required flag of every family, omitted while the others are given
@pytest.mark.parametrize("family, missing", [
    (family, flag) for family, flags in REQUIRED_FLAGS.items() for flag in flags
])
def test_usage_errors_exit_2(capsys, family, missing):
    given = [arg for flag in REQUIRED_FLAGS[family] if flag != missing for arg in (f"--{flag}", "4")]
    rc, out, err = run(capsys, ["construct", "--family", family, *given])
    assert rc == 2
    assert out == ""
    assert err == f"error: --{missing} is required for the {family} family\n"


# argv that each parser path must answer alike: help, usage errors of the top
# level and of every subcommand (bad type, bad choice, missing flag, leftover
# token), and accepted lines, the ones that read input given an empty stdin
PARSER_CORPUS = [
    [], ["-h"], ["--help"], ["bogus"], ["--"], ["--", "verify"], ["-h", "verify"],
    ["verify", "-h"], ["construct", "-h"], ["search", "--help"], ["analyze", "-h"], ["bounds", "-h"], ["export", "-h"],
    ["verify", "--bogus"], ["verify", "--js"], ["verify", "--in"], ["verify", "--json=x"], ["verify", "extra"],
    ["verify", "--", "--json"], ["verify", "--bogus", "-h"], ["verify", "verify"],
    ["construct"], ["construct", "--family", "nope"], ["construct", "--family", "k27", "--n", "x"],
    ["construct", "--family", "k27", "extra"], ["construct", "--family"], ["construct", "--fam", "k27"],
    ["analyze", "--in"], ["analyze", "--json", "extra"],
    ["search"], ["search", "--n", "4"], ["search", "--n", "x", "--k", "2"], ["search", "--n", "4", "--k", "2", "extra"],
    ["search", "--n", "4", "--k", "2", "--max", "3"], ["search", "--n", "4", "--k", "2", "--timeout", "soon"],
    ["bounds"], ["bounds", "--n", "7", "--k", "x"], ["bounds", "--n", "7", "--k", "2", "extra"],
    ["export"], ["export", "--format", "png"], ["export", "--format", "dot", "extra"],
    ["verify"], ["verify", "--json"], ["analyze"], ["export", "--format", "dot"],
    ["construct", "--family", "k16"], ["construct", "--fam", "f2", "--n", "4"], ["construct", "--family", "bds"],
    ["search", "--n", "4", "--k", "2", "--max-f", "3"], ["search", "--n", "4", "--k", "2", "--json"],
    ["bounds", "--n", "76", "--k", "4", "--json"],
    ["bounds", "--n", "5", "--k", "2", "--with-search", "--max-nodes", "1000"],
]


def _outcome(call):
    """(exit code or None, stdout, stderr, result) of ``call()``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code, result = None, call()
        except SystemExit as exc:
            code, result = exc.code, None
    return code, out.getvalue(), err.getvalue(), result


def _record_handlers(monkeypatch, seen, call_through):
    """Put a handler in every ``_COMMANDS`` row that appends its namespace to
    ``seen``, then runs the real handler or returns 0; both parser paths and
    the full tree read the handler from that row."""
    for name, (line, func, arguments) in cli._COMMANDS.items():
        def handler(args, _func=func):
            seen.append(args)
            return _func(args) if call_through else 0
        monkeypatch.setitem(cli._COMMANDS, name, (line, handler, arguments))


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_main_parses_like_the_full_tree(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to the terminal width
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    seen = []
    _record_handlers(monkeypatch, seen, call_through=True)
    tree_code, tree_out, tree_err, tree_args = _outcome(lambda: cli.build_parser().parse_args(argv))
    code, out, err, rc = _outcome(lambda: main(argv))
    if tree_args is None:  # rejected, or help printed: the same exit, word for word
        assert (code, out, err) == (tree_code, tree_out, tree_err)
        assert seen == []
    else:  # accepted: the command runs on the namespace the full tree gives
        assert (code, tree_out, tree_err) == (None, "", "")
        assert isinstance(rc, int)
        assert vars(seen[-1]) == vars(tree_args)
        assert list(vars(seen[-1])) == list(vars(tree_args))


_FLAGS = sorted({flag for _, _, arguments in cli._COMMANDS.values() for flag, _ in arguments})
_VALUES = ["4", "-1", "x", "", "nan", "dot", "png", *FAMILIES]


def _values(kw):
    """A value a flag accepts (a choice, a number or a path), or any of ``_VALUES``."""
    good = kw.get("choices") or {int: ["4"], float: ["4", "nan"]}.get(kw.get("type"), ["x", ""])
    return st.sampled_from(good) | st.sampled_from(_VALUES)


def _spellings(flags):
    """A flag, a prefix of one, or ``--flag=value``."""
    return st.sampled_from(flags) | st.sampled_from([f[:i] for f in flags for i in range(1, len(f))]) | (
        st.tuples(st.sampled_from(flags), st.sampled_from(_VALUES)).map("=".join))


@st.composite
def command_lines(draw):
    """A command, often with its required flags, then its own flags with a
    value each (a store_true flag takes none) and, in half the lines, stray
    tokens: any flag, a prefix, ``--flag=value``, help, ``--``, a command name
    or a bare value."""
    command = draw(st.sampled_from([*cli._COMMANDS, None]))
    rows = cli._COMMANDS[command][2] if command else ()
    own = st.sampled_from(rows).flatmap(lambda row: st.just([row[0]]) if "action" in row[1] else (
        st.tuples(st.just(row[0]), _values(row[1])).map(list))) if rows else st.nothing()
    stray = (_spellings([f for f, _ in rows] or _FLAGS) | _spellings(_FLAGS)
             | st.sampled_from([*cli._COMMANDS, "-h", "--help", "--", *_VALUES])).map(lambda t: [t])
    required = [[f, draw(_values(kw))] for f, kw in rows if kw.get("required") and draw(st.integers(0, 3))]
    extra = draw(st.lists(own | stray if not rows or draw(st.booleans()) else own, max_size=5))
    items = draw(st.permutations(required + extra))
    return [command] * (command is not None) + [t for item in items for t in item]


@settings(max_examples=500, derandomize=True, deadline=None)
@given(argv=command_lines())
def test_main_reads_argv_like_the_full_tree(argv):
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        _record_handlers(mp, seen, call_through=False)
        tree_code, tree_out, tree_err, tree_args = _outcome(lambda: cli.build_parser().parse_args(argv))
        code, out, err, rc = _outcome(lambda: main(argv))
    if tree_args is None:
        assert (code, out, err) == (tree_code, tree_out, tree_err)
        assert seen == []
    else:  # compared by repr, so a nan --timeout equals itself
        assert (code, out, err, rc, len(seen)) == (None, "", "", 0, 1)
        assert repr(list(vars(seen[0]).items())) == repr(list(vars(tree_args).items()))


def test_command_rows_use_only_what_the_reader_implements():
    # a flag the reader would misread (a short flag, nargs=, a custom type, a
    # str default that argparse passes through type) must fail here first
    for name, (_, _, arguments) in cli._COMMANDS.items():
        for flag, kw in arguments:
            assert flag.startswith("--") and len(flag) > 2, (name, flag)
            assert set(kw) <= {"dest", "default", "type", "choices", "required", "help", "action"}, (name, flag)
            assert kw.get("action", "store_true") == "store_true", (name, flag)
            assert kw.get("type", int) in (int, float), (name, flag)
            assert not isinstance(kw.get("default"), str), (name, flag)


# one accepted argv per command
ACCEPTED = {
    "construct": ["construct", "--family", "k16"],
    "verify": ["verify", "--in", str(GOLDEN / "k16.sfd"), "--json"],
    "analyze": ["analyze", "--in", str(GOLDEN / "k16.sfd")],
    "search": ["search", "--n", "6", "--k", "2", "--max-nodes", "1000", "--timeout", "60"],
    "bounds": ["bounds", "--n", "76", "--k", "4", "--json"],
    "export": ["export", "--in", str(GOLDEN / "k16.sfd"), "--format", "dot"],
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_accepted_argv_builds_no_parser(capsys, monkeypatch, command):
    calls, build = [], cli.build_parser

    def counted():
        calls.append(True)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    assert main(ACCEPTED[command]) == 0
    assert calls == []
    assert capsys.readouterr().out


def test_readme_lists_every_family():
    text = README.read_text()
    para = text[text.index("Families:"):].split("\n\n", 1)[0]
    entries = re.findall(r"`([^`]+)`", para)
    assert [e.split()[0] for e in entries] == list(FAMILIES)
    for entry, fam in zip(entries, FAMILIES.values()):
        assert set(re.findall(r"--(\w+)", entry)) >= set(fam.flags)


def test_readme_library_example_runs_as_written():
    section = README.read_text().split("## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


# stderr and exit code of `verify --in` on one malformed star; the Star cases
# as the parser reported them while it still repeated the Star checks itself,
# and a non-ASCII digit, which int() alone would read as center 3
@pytest.mark.parametrize("star, problem", [
    ("star 1 : 0 1", "star with center 1 lists the center as a leaf"),
    ("star 0 : 1 1", "star with center 0 repeats a leaf"),
    ("star 1 : 1 1", "star with center 1 lists the center as a leaf"),
    ("star 0 : 2 3 2", "star with center 0 repeats a leaf"),
    ("star 3 : 3", "star with center 3 lists the center as a leaf"),
    ("star \u0663 : 0", "star center must be an integer, got '\u0663'"),
])
def test_verify_malformed_star_stderr_pinned(capsys, tmp_path, star, problem):
    path = tmp_path / "bad.sfd"
    path.write_text(f"decomposition v1\nn 4\nk 2\nforest\n{star}\n", encoding="utf-8")
    assert run(capsys, ["verify", "--in", str(path)]) == (2, "", f"error: line 5: {problem}\n")


_INTS = [str(i) for i in range(-3, 13)]
_SOUP_TOKENS = st.sampled_from([
    "n", "k", "labels", "family", "meta", "duplicates", "forest", "star", ":",
    "plain", "f3cube", "block12m4", "#", "x", "1.5", "0x1", "+3", "-", "--",
    "0-1", "2-1", "3-3", "-1-2", "1-11", *_INTS,
])
# free soup, or a star line with random vertex ids so the star checks are reached
_SOUP_LINES = st.one_of(
    st.lists(_SOUP_TOKENS, max_size=6),
    st.lists(st.sampled_from(_INTS), min_size=1, max_size=6).map(lambda t: ["star", t[0], ":", *t[1:]]),
).map(" ".join)


@st.composite
def token_soups(draw):
    """A valid header, sometimes with n, k and a forest, then lines of random tokens."""
    head = "decomposition v1\n" + ("n 8\nk 3\nforest\n" if draw(st.booleans()) else "")
    return head + "\n".join(draw(st.lists(_SOUP_LINES, max_size=8))) + "\n"


# commands that turn the file they read into another one; they judge no claim, so never exit 1
_SOUP_WRITERS = [["export", "--format", "dot"], ["construct", "--family", "blowup", "--t", "2"]]


@settings(max_examples=300, deadline=None)
@given(text=token_soups())
def test_parse_and_verify_survive_token_soup(tmp_path_factory, text):
    # parse returns or raises ParseError; verify exits 0, 1 or 2, export and
    # blowup 0 or 2, and each reports a parse error as exactly one stderr line;
    # verify --json and analyze --json print JSON whenever they do not exit 2
    try:
        parse(text)
        parse_error = None
    except ParseError as exc:
        parse_error = f"error: {exc}\n"
    path = tmp_path_factory.getbasetemp() / "soup.sfd"
    path.write_text(text)
    for command in (["verify"], ["verify", "--json"], ["analyze", "--json"], *_SOUP_WRITERS):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main([*command, "--in", str(path)])
        assert rc in ((0, 2) if command in _SOUP_WRITERS else (0, 1, 2))
        if parse_error is not None:
            assert (rc, out.getvalue(), err.getvalue()) == (2, "", parse_error)
        elif command[0] == "analyze" and rc == 0:
            assert "valid" in json.loads(out.getvalue())
        elif command[1:] == ["--json"] and rc in (0, 1):
            payload = json.loads(out.getvalue())
            assert payload["covered_once"] + len(payload["missing"]) == payload["total_edges"]
            assert payload["valid"] == (rc == 0)


_BYTE_COMMANDS = [["verify"], ["verify", "--json"], ["analyze"], ["analyze", "--json"],
                  ["export", "--format", "dot"], ["construct", "--family", "blowup", "--t", "2"]]


@settings(max_examples=100, deadline=None)
@given(head=st.sampled_from(["decomposition v1\n", "decomposition v1\nn 8\nk 3\nforest\nstar 0 : 1 2\n"]),
       data=st.binary(max_size=40), cut=st.integers(0, 40))
def test_undecodable_bytes_after_header_exit_2(tmp_path_factory, head, data, cut):
    # 0xff never occurs in UTF-8, so whatever bytes surround it the input is
    # unreadable: one stderr line and exit 2, from every command that reads it
    path = tmp_path_factory.getbasetemp() / "bytes.sfd"
    path.write_bytes(head.encode() + data[:cut] + b"\xff" + data[cut:])
    for command in _BYTE_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main([*command, "--in", str(path)])
        assert (rc, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_module_entry_point_construct(run_module):
    proc = run_module("construct", "--family", "k16")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / "k16.sfd").read_text()


def test_module_entry_point_verify_directory_exit_2(run_module, tmp_path):
    proc = run_module("verify", "--in", str(tmp_path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_module_entry_point_verify_invalid_exit_1(run_module, tmp_path):
    proc = run_module("verify", "--in", str(pinned_input("k27_dropped", tmp_path)))
    assert (proc.returncode, proc.stderr) == (1, "")
    assert "valid: no" in proc.stdout


def test_verify_huge_header_counts_missing_edges(run_module, tmp_path):
    # an empty claim on 10^11 vertices misses ~5e21 edges; text verify counts
    # them by arithmetic and lists 20, so it fits a 256 MB address space
    path = tmp_path / "huge.sfd"
    path.write_text("decomposition v1\nn 100000000000\nk 2\n")
    proc = run_module("verify", "--in", str(path), address_space=256 << 20)
    edges = " ".join(f"0-{v}" for v in range(1, 21))
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == (
        "valid: no\n"
        "n=100000000000 k=2 forests=0 edges=4999999999950000000000\n"
        f"missing (4999999999950000000000): {edges} ...\n"
        "duplicated (0): -\n"
    )


def test_analyze_huge_header_text(run_module, tmp_path):
    # the degree table holds centers only and the isolated vertices are
    # counted, not listed, so text analyze on 10^11 vertices fits 256 MB
    path = tmp_path / "huge.sfd"
    path.write_text("decomposition v1\nn 100000000000\nk 2\n")
    proc = run_module("analyze", "--in", str(path), address_space=256 << 20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "valid: no\n"
        "degree profile: m=0 r=0 degree_sum=0 isolated=100000000000 p: \n"
        "no isolated vertex: VIOLATED\n"
        "counting inequality: slack=0 aggregate_slack=-500000000000 VIOLATED\n"
        "degree-1 placement: not applicable (placement checks need a valid decomposition)\n"
        "broken double star: False\n"
    )


_LONG = "1" * 5000  # more digits than CPython's int() reads by default


@pytest.mark.parametrize("text, where", [
    (f"n {_LONG}\nk 2\n", "line 2: n"),
    (f"n 4\nk {_LONG}\n", "line 3: k"),
    (f"n 4\nk 2\nlabels block12m4 {_LONG}\n", "line 4: labels parameter"),
    (f"n 4\nk 2\nduplicates 0-1 2-{_LONG}\n", "line 4: duplicate edge endpoint"),
    (f"n 4\nk 2\nforest\nstar {_LONG} : 1\n", "line 5: star center"),
    (f"n 4\nk 2\nforest\nstar 0 : 1\nstar 2 : 3 {_LONG}\n", "line 6: leaf"),
], ids=["n", "k", "labels", "duplicates", "center", "leaf"])
def test_oversized_integer_is_a_parse_error(capsys, tmp_path, text, where):
    path = tmp_path / "long.sfd"
    path.write_text("decomposition v1\n" + text)
    assert run(capsys, ["verify", "--in", str(path)]) == (
        2, "", f"error: {where} has 5000 characters, more than 640\n")


@pytest.mark.parametrize("command", [["analyze", "--json"], ["verify", "--json"], ["export", "--format", "dot"]])
def test_huge_header_out_of_memory_exits_2(run_module, tmp_path, command):
    # these list every vertex (analyze --json its isolated ones); on 10^11
    # vertices that fails in a 256 MB address space with one stderr line, and
    # before any output
    path = tmp_path / "huge.sfd"
    path.write_text("decomposition v1\nn 100000000000\nk 2\n")
    proc = run_module(*command, "--in", str(path), address_space=256 << 20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")


def test_search_refuted_at_the_root_allocates_nothing(run_module):
    # 3 forests hold at most 3(n-1) < n(n-1)/2 edges, so the answer needs no
    # K_n edge list, which on 10^6 vertices would not fit 256 MB
    proc = run_module("search", "--n", "1000000", "--k", "2", "--max-forests", "3", "--json",
                      address_space=256 << 20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, '{"nodes": 0, "status": "exhausted-not-found"}\n', "")


@pytest.mark.parametrize("argv", [
    ("--n", "20000", "--k", "2"),
    ("--n", "100000", "--k", "2", "--max-forests", "60000"),
], ids=["f_exact-n20000", "max-forests-n100000"])
def test_budgeted_search_lists_no_edge_before_its_first_node(run_module, argv):
    # the budget stops the search at its second placement, long before a
    # complete tuple of center sets, so K_n's n(n-1)/2 edges are never listed
    # and the run fits 256 MB
    proc = run_module("search", *argv, "--max-nodes", "1", "--json", address_space=256 << 20)
    assert (proc.returncode, proc.stderr) == (3, "")
    payload = json.loads(proc.stdout)
    assert (payload["status"], payload["nodes"]) == ("budget-exceeded", 1)

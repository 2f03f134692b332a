import io
import json
from pathlib import Path

import pytest

from starforest.cli import main

GOLDEN = Path(__file__).parent / "golden"


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


def test_search_budget_exit_code(capsys):
    rc, out, _ = run(capsys, ["search", "--n", "6", "--k", "2", "--max-nodes", "5"])
    assert rc == 3


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


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--family", "nosuch"])
    assert exc.value.code == 2
    rc, _, err = run(capsys, ["construct", "--family", "f2"])  # missing --n
    assert rc == 2

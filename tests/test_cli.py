import json
import subprocess
import sys

import pytest

from conftest import D4_MATRIX, family3, unit_matrix
from tropiso import Semiring, save_matrix
from tropiso.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def unit3(tmp_path):
    p = tmp_path / "unit3.json"
    save_matrix(p, unit_matrix(3, Semiring.MAX))
    return str(p)


@pytest.fixture
def b1(tmp_path):
    p = tmp_path / "b1.json"
    save_matrix(p, family3(1))
    return str(p)


def test_tvol_unit(unit3, capsys):
    code, out, _ = run_cli(["tvol", unit3], capsys)
    assert code == 0 and out.strip() == "2"


def test_tvol_with_matching_semiring_flag(unit3, capsys):
    code, out, _ = run_cli(["tvol", "--semiring", "max", unit3], capsys)
    assert code == 0 and out.strip() == "2"


def test_tdiam_and_tdet(unit3, capsys):
    code, out, _ = run_cli(["tdiam", unit3], capsys)
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(["tdet", unit3], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj == {"value": "3", "witness": [0, 1, 2]}


def test_tdist(tmp_path, capsys):
    p = tmp_path / "v.json"
    p.write_text('{"semiring": "max", "data": [[3, 1], [1, 2]]}')
    code, out, _ = run_cli(["tdist", str(p)], capsys)
    assert code == 0 and out.strip() == "3"


def test_polytrope_report_and_svg(b1, tmp_path, capsys):
    report = tmp_path / "out.json"
    svg = tmp_path / "out.svg"
    code, _, _ = run_cli(
        ["polytrope", b1, "--report", str(report), "--svg", str(svg)], capsys
    )
    assert code == 0
    obj = json.loads(report.read_text())
    assert len(obj["facets"]) == 6
    assert len(obj["vertices"]) == 6
    text = svg.read_text()
    assert text.count('fill="red"') == 3 and text.count('fill="white"') == 3


def test_polytrope_svg_rejects_non_planar_before_output(tmp_path, capsys):
    d4 = tmp_path / "d4.json"
    save_matrix(d4, D4_MATRIX)
    svg = tmp_path / "out.svg"
    code, out, err = run_cli(["polytrope", str(d4), "--svg", str(svg)], capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("ERROR:domain:")
    assert not svg.exists()


def test_qvol_paper_values(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"semiring": "max", "data": [[0, 0, 0], [0, 0, 0]]}')
    b.write_text('{"semiring": "max", "data": [[0, -1, -2], [0, -2, -4]]}')
    code, out, _ = run_cli(["qvol", str(a), str(b)], capsys)
    assert code == 0
    assert out.split() == ["0", "-1"]


def test_qvol_methods_agree(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text('{"semiring": "max", "data": [[0, 1, 0], [0, 0, 1]]}')
    _, out1, _ = run_cli(["qvol", str(a)], capsys)
    _, out2, _ = run_cli(["qvol", "--method", "transport-lp", str(a)], capsys)
    assert out1 == out2 == "2\n"


def test_sign_generic_verdict(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text('{"semiring": "max", "data": [[0, 0], [0, 0]]}')
    code, out, _ = run_cli(["sign-generic", str(a)], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "mixed-parity"


def test_iso_sample_deterministic(capsys):
    code, out1, _ = run_cli(["iso-sample", "-d", "4", "--seed", "11"], capsys)
    assert code == 0
    code, out2, _ = run_cli(["iso-sample", "-d", "4", "--seed", "11"], capsys)
    assert out1 == out2
    code, out3, _ = run_cli(["iso-sample", "-d", "4", "--seed", "12"], capsys)
    assert out1 != out3


def test_iso_check_on_sample(tmp_path, capsys):
    mat = tmp_path / "m.json"
    code, _, _ = run_cli(["iso-sample", "-d", "4", "--seed", "3", "-o", str(mat)], capsys)
    assert code == 0
    code, out, _ = run_cli(["iso-check", str(mat)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["classification"] == "isodiametric"
    assert obj["tdiam"] == "2" and obj["tvol"] == "2"


def test_standardize_roundtrip(tmp_path, capsys):
    mat = tmp_path / "m.json"
    mat.write_text('{"semiring": "max", "data": [[5, 1], [0, 3]]}')
    code, out, _ = run_cli(["standardize", mat.as_posix(), "--variant", "max"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["matrix"]["data"][0] == [1, 0]


def test_kleene(tmp_path, capsys):
    mat = tmp_path / "m.json"
    mat.write_text('{"semiring": "min", "data": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}')
    code, out, _ = run_cli(["kleene", str(mat)], capsys)
    assert code == 0
    assert json.loads(out)["data"] == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def test_dequant_slope_csv(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text('{"semiring": "max", "data": [[0, 1, 0], [0, 0, 1]]}')
    csv = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        ["dequant-slope", str(a), "--t-grid", "100,1000,10000", "--csv", str(csv)],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["slope"] - 2) < 0.05
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,volume,log_ratio"
    assert len(lines) == 4


def test_bound_check(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text("[[1, 3, 1], [1, 1, 3]]")
    code, out, _ = run_cli(["bound-check", str(a)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["holds"] is True and obj["volume"] == "2" and obj["alpha"] == 1


def test_domain_error_exit_code(tmp_path, capsys):
    mat = tmp_path / "m.json"
    mat.write_text('{"semiring": "min", "data": [[0, 1], [-2, 0]]}')
    code, out, err = run_cli(["kleene", str(mat)], capsys)
    assert code == 1
    assert err.startswith("ERROR:negative-cycle:")


def test_unreadable_file(capsys):
    code, _, err = run_cli(["tvol", "/nonexistent/m.json"], capsys)
    assert code == 1
    assert err.startswith("ERROR:format:")


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "tropiso.cli", "no-such-command"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_byte_identical_runs(tmp_path):
    env_cmd = [sys.executable, "-m", "tropiso.cli", "iso-sample", "-d", "5",
               "--seed", "7", "--strict"]
    a = subprocess.run(env_cmd, capture_output=True)
    b = subprocess.run(env_cmd, capture_output=True)
    assert a.stdout == b.stdout and a.returncode == 0


def test_cap_env_override(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.json"
    a.write_text('{"semiring": "max", "data": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}')
    monkeypatch.setenv("TROPISO_CAP", "2")
    code, out, _ = run_cli(["sign-generic", str(a), "--no-bar"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "mixed-parity"


def test_paper_suite(capsys):
    code, out, _ = run_cli(["paper-suite"], capsys)
    assert code == 0
    assert "14/14 checks passed" in out

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import D4_MATRIX, box_with_filling, family3, unit_matrix
from tropiso import Semiring, dequant, save_matrix
from tropiso.cli import build_parser, main

DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"
SRC = str(Path(__file__).resolve().parents[1] / "src")


def cli_process(*args):
    """``python -m tropiso.cli`` in a child process that imports this checkout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "tropiso.cli", *args],
                          capture_output=True, env={**os.environ, "PYTHONPATH": path})


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


@pytest.mark.parametrize("flags, scans", [([], 0), (["--json"], 2)])
def test_qvol_scans_the_bar_matrix_only_for_json(flags, scans, capsys, monkeypatch):
    # the bare value never reads the verdict, so only --json pays for the scan
    calls = []
    scan = dequant._scan
    monkeypatch.setattr(dequant, "_scan", lambda *a, **k: calls.append(1) or scan(*a, **k))
    inputs = [str(DEMO_DATA / "wide_A.json"), str(DEMO_DATA / "wide_B.json")]
    for method in ("brute-force", "transport-lp"):
        calls.clear()
        code, _, _ = run_cli(["qvol", "--method", method, *flags, *inputs], capsys)
        assert code == 0 and len(calls) == scans


@pytest.mark.parametrize("name, flags, code, out, err", [
    ("wide_B.json", [], 0, "-1\n", ""),
    ("wide_A.json", [], 1, "", "ERROR:not-sign-generic:"),
    ("wide_A.json", ["--cap", "1"], 1, "", "ERROR:parity-unknown:"),
])
def test_qvol_require_generic(name, flags, code, out, err, capsys):
    got = run_cli(["qvol", "--require-generic", *flags, str(DEMO_DATA / name)], capsys)
    assert got[:2] == (code, out)
    assert len(got[2].splitlines()) == (1 if err else 0) and got[2].startswith(err)


def test_qvol_help_says_where_cap_acts(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["qvol", "--help"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("--cap CAP enumeration cap (or env TROPISO_CAP); it acts only with --json "
            "or --require-generic") in text


def test_qvol_method_choices_are_the_library_names():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a.choices, dict)).choices
    method = next(a for a in subparsers["qvol"]._actions if a.dest == "method")
    assert tuple(method.choices) == (dequant.BRUTE_FORCE, dequant.TRANSPORT_LP)
    assert method.default == dequant.BRUTE_FORCE


_LOADED = """
import contextlib, io, sys
import tropiso.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        tropiso.cli.main(sys.argv[1:])
    except SystemExit:
        pass
print(*sorted(m[8:] for m in sys.modules if m.startswith("tropiso.")))
"""


def _loaded(*argv):
    """The tropiso submodules a child process holds after ``main(argv)``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    return set(proc.stdout.split())


def test_each_subcommand_loads_only_what_it_runs():
    unit3, generic = str(DEMO_DATA / "unit3.json"), str(DEMO_DATA / "generic_4x4.json")
    front = {"cli", "core", "errors", "matio"}
    compute = {"assignment", "dequant", "geometry", "isodiametric", "polytrope"}
    assert _loaded("tvol", unit3) == front | {"assignment"}
    assert _loaded("tdiam", unit3) == front
    assert not _loaded("--help") & compute
    assert not _loaded("qvol", "--help") & compute
    assert not _loaded("kleene", generic) & (compute - {"polytrope"})
    assert not _loaded("qvol", str(DEMO_DATA / "wide_A.json")) & {
        "geometry", "isodiametric", "polytrope"}


def test_sign_generic_verdict(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text('{"semiring": "max", "data": [[0, 0], [0, 0]]}')
    code, out, _ = run_cli(["sign-generic", str(a)], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "mixed-parity"


def test_parser_built_once_and_cap_not_carried_over(tmp_path, capsys, monkeypatch):
    # the identity and one 3-cycle are the only optima: two even permutations
    a = tmp_path / "a.json"
    a.write_text('{"semiring": "max", "data": [[0, 0, -9], [-9, 0, 0], [0, -9, 0]]}')
    assert build_parser() is build_parser()
    monkeypatch.delenv("TROPISO_CAP", raising=False)
    runs = [["--cap", "2"], [], ["--cap", "2"]]
    verdicts = [json.loads(run_cli(["sign-generic", "--no-bar", *flags, str(a)], capsys)[1])
                for flags in runs]
    assert [(v["verdict"], v["enumerated"]) for v in verdicts] == \
        [("unknown", 2), ("same-parity", 2), ("unknown", 2)]
    monkeypatch.setenv("TROPISO_CAP", "1")
    _, out, _ = run_cli(["sign-generic", "--no-bar", str(a)], capsys)
    assert (json.loads(out)["verdict"], json.loads(out)["enumerated"]) == ("unknown", 1)


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


def test_iso_check_solves_a_standard_input_once(tmp_path, capsys, solve_counter):
    mat = tmp_path / "m.json"
    assert run_cli(["iso-sample", "-d", "6", "--seed", "3", "-o", str(mat)], capsys)[0] == 0
    solve_counter.clear()
    code, out, _ = run_cli(["iso-check", str(mat)], capsys)
    assert code == 0 and json.loads(out)["standardized_first"] is False
    assert solve_counter == [6]


def test_iso_check_standardizes_first(tmp_path, capsys):
    mat, std = tmp_path / "m.json", tmp_path / "s.json"
    mat.write_text('{"semiring": "min", "data": [[3, 0, 2], [1, 4, 0], [0, 2, 5]]}')
    code, out, _ = run_cli(["iso-check", str(mat)], capsys)
    assert code == 0
    first = json.loads(out)
    code, out, _ = run_cli(["standardize", str(mat)], capsys)
    assert code == 0
    std.write_text(json.dumps(json.loads(out)["matrix"]))
    code, out, _ = run_cli(["iso-check", str(std)], capsys)
    assert code == 0
    second = json.loads(out)
    assert first.pop("standardized_first") is True
    assert second.pop("standardized_first") is False
    assert first == second


def test_polytrope_dimension_guard(tmp_path, capsys):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"semiring": "min",
                               "data": [[0 if i == j else 1 for j in range(7)]
                                        for i in range(7)]}))
    code, out, err = run_cli(["polytrope", str(mat)], capsys)
    assert (code, out) == (1, "")
    assert err == "ERROR:domain: vertex enumeration guarded at dimension 6 (got d=7)\n"


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


def test_bound_check_on_a_filled_box(tmp_path, capsys):
    # 80 columns: the corners of a box and points inside it, on its faces and
    # on its edges; a hull that tried every point triple would take minutes
    pts = box_with_filling(random.Random(80), (1, 2, 3), (9, 7, 12), 72)
    a = tmp_path / "box.json"
    a.write_text(json.dumps([[p[i] for p in pts] for i in range(3)]))
    code, out, _ = run_cli(["bound-check", str(a)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["volume"] == str(8 * 5 * 9) and obj["alpha"] == 6 and obj["holds"] is True


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
    assert cli_process("no-such-command").returncode == 2


def test_byte_identical_runs(tmp_path):
    cmd = ["iso-sample", "-d", "5", "--seed", "7", "--strict"]
    a = cli_process(*cmd)
    b = cli_process(*cmd)
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


def _cap_probe(tmp_path):
    a = tmp_path / "a.json"
    a.write_text('{"semiring": "max", "data": [[0, 0, 0], [0, 0, 0]]}')
    return str(a)


def test_cap_zero_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TROPISO_CAP", "5")  # an explicit 0 must not fall back to it
    code, out, err = run_cli(["sign-generic", "--cap", "0", _cap_probe(tmp_path)], capsys)
    assert code == 1 and out == ""
    assert err == "ERROR:domain: cap must be positive\n"


@pytest.mark.parametrize("env", ["abc", "0", "-3", "2.5"])
def test_bad_cap_env_rejected(env, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TROPISO_CAP", env)
    code, out, err = run_cli(["sign-generic", _cap_probe(tmp_path)], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("ERROR:domain:")


@pytest.mark.parametrize("data, argv", [
    pytest.param(b'{"semiring": "max", "data": [[' + b"7" * 5000 + b"]]}", ["tvol"],
                 id="long-int"),
    pytest.param(b'{"semiring": "max", "data": [[1e999999]]}', ["tdet"], id="huge-exponent"),
    pytest.param(b'{"semiring": "max", "data": [["9e4300"]]}', ["tdet"], id="long-decimal"),
    pytest.param(b'{"semiring": "max", "data": [[\xff\xfe]]}', ["tvol"], id="not-utf8"),
    pytest.param(b"[" * 100_000, ["tvol"], id="deep-nesting"),
    pytest.param(b"[1, 2]", ["bound-check"], id="row-not-a-list"),
])
def test_unreadable_cells_are_format_errors(data, argv, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_bytes(data)
    code, out, err = run_cli([*argv, str(path)], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("ERROR:format:")


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_qvol_output_file_holds_every_result(flags, tmp_path, capsys):
    inputs = [str(DEMO_DATA / "wide_A.json"), str(DEMO_DATA / "wide_B.json")]
    code, stdout, _ = run_cli(["qvol", *flags, *inputs], capsys)
    assert code == 0
    target = tmp_path / "out"
    code, out, _ = run_cli(["qvol", *flags, "-o", str(target), *inputs], capsys)
    assert code == 0 and out == ""
    assert target.read_text() == stdout
    if not flags:
        assert stdout == "0\n-1\n"


def test_tdet_csv_goes_to_output_file(unit3, tmp_path, capsys):
    target = tmp_path / "out"
    code, out, _ = run_cli(["tdet", "--format", "csv", "-o", str(target), unit3], capsys)
    assert code == 0 and out == ""
    assert target.read_text() == "3\n"


# The shared flags each subcommand takes: only those its handler reads.
FLAG_SETS = {
    "tdist": {"--semiring"},
    "tdiam": {"--semiring"},
    "tdet": {"--semiring", "--format", "--output"},
    "tvol": {"--semiring"},
    "standardize": {"--semiring", "--output"},
    "iso-check": {"--semiring", "--output"},
    "iso-sample": {"--format", "--output", "--seed"},
    "kleene": {"--semiring", "--format", "--output"},
    "polytrope": {"--semiring"},
    "render": {"--semiring"},
    "qvol": {"--semiring", "--output", "--cap"},
    "sign-generic": {"--semiring", "--output", "--cap"},
    "dequant-slope": {"--semiring", "--output", "--cap"},
    "bound-check": {"--output"},
    "paper-suite": set(),
}
SHARED = {"--semiring", "--format", "--output", "--cap", "--seed"}


def test_each_subcommand_takes_only_the_flags_it_reads():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a.choices, dict)).choices
    got = {name: {opt for act in p._actions for opt in act.option_strings} & SHARED
           for name, p in subparsers.items()}
    assert got == FLAG_SETS
    assert sum(map(len, FLAG_SETS.values())) == 28


@pytest.mark.parametrize("argv", [
    ["tdiam", "--seed", "5"],
    ["tvol", "-o", "OUT"],
    ["tdiam", "--cap", "3"],
    ["polytrope", "--format", "csv"],
    ["bound-check", "--semiring", "max"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, tmp_path):
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(DEMO_DATA / "unit3.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


# values for the shared flags; "OUT" stands for a file in the test's temporary directory
FLAG_VALUES = {
    "--semiring": st.sampled_from(["min", "max"]),
    "--format": st.sampled_from(["json", "csv"]),
    "--output": st.just("OUT"),
    "--cap": st.integers(-1, 4).map(str),
    "--seed": st.integers(0, 50).map(str),
}
_TOKENS = ["0", "1", "2", "3", "-1"] * 4 + ["1/2", "0.5", "inf", "-inf", "x"]


@st.composite
def _input_file(draw):
    """(suffix, up to 200 bytes): arbitrary bytes, or a small matrix file, maybe malformed."""
    if draw(st.booleans()):
        return draw(st.sampled_from([".json", ".csv"])), draw(st.binary(max_size=200))
    rows = draw(st.lists(st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=5),
                         min_size=1, max_size=4))
    kind = draw(st.sampled_from(["csv", "array", "min", "max"]))
    if kind == "csv":
        return ".csv", "\n".join(",".join(row) for row in rows).encode()
    data = [[int(t) if t.lstrip("-").isdigit() else t for t in row] for row in rows]
    text = json.dumps(data if kind == "array" else {"semiring": kind, "data": data})
    return ".json", text.encode()[:200]


@st.composite
def _cli_case(draw):
    """(argv without the input file, input suffix or None, input bytes)."""
    command = draw(st.sampled_from(sorted(set(FLAG_SETS) - {"paper-suite"})))
    flags = sorted(draw(st.sets(st.sampled_from(sorted(FLAG_SETS[command])))))
    argv = [command]
    for flag in flags:
        argv += [flag, draw(FLAG_VALUES[flag])]
    if command == "iso-sample":
        return argv + ["--dim", str(draw(st.integers(-1, 5)))], None, b""
    return (argv, *draw(_input_file()))


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cli_case())
def test_cli_contract_on_arbitrary_files(case):
    argv, suffix, data = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [f"{tmp}/out" if a == "OUT" else a for a in argv]
        if suffix is not None:
            Path(tmp, "input" + suffix).write_bytes(data)
            argv.append(f"{tmp}/input{suffix}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage error
                code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        assert re.fullmatch(r"ERROR:[a-z-]+: [^\n]*\n", err.getvalue())

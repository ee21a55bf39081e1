"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tropiso  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.fixture(autouse=True)
def deadline_handler():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def untraced(name, seed=3):
    return run.report(name, seed, 0, run.measure(name, seed, 0.05, "tiny", min_cycles=1, min_ops=1))


def traced(name, seed=3):
    return run.report(name, seed, 1, run.measure_traced(name, seed, scale="tiny"))


def test_workloads_match_the_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name):
    res = untraced(name)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == metric_names("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(name):
    res = traced(name)
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == metric_names("per_layer")


def test_counts_repeat_exactly():
    runs = [traced("dequant-wide", seed=5)["metrics"] for _ in range(2)]
    counts = [k for k, m in runs[0].items() if m["unit"] == "count"]
    assert runs[0]["dequant.subsets_scanned"]["value"] > 0
    assert [runs[0][k]["value"] for k in counts] == [runs[1][k]["value"] for k in counts]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_the_same_inputs(name):
    digest = [workloads.build(name, seed, "tiny").input_digest() for seed in (7, 7, 8)]
    assert digest[0] == digest[1] != digest[2]


def test_planted_wrong_result_raises_fail_ratio(monkeypatch):
    real = tropiso.tvol
    monkeypatch.setattr(tropiso, "tvol", lambda A: real(A) + 1)
    res = untraced("assign-square")
    assert res["failed"] > 0 and not res["correct"]


def test_fails_without_the_library():
    bare = ROOT / workloads.WORK_DIR / "bare"  # only BENCHMARK.json and bench/
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "assign-square",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""

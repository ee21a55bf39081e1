"""tropiso benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` and nothing needs installing.  The load is a closed loop with one
caller (one process, one operation at a time, ``jobs=1``); ``cli-process``
runs one child process at a time.

``--trace 0`` runs whole cycles of the workload (see ``workloads.py``)
until ``--seconds`` have passed, every operation has run ``MIN_CYCLES``
times and ``MIN_OPS`` executions are done, then checks every distinct
result against an independent route and prints the end-to-end metrics.
Each operation's latency is the median of its executions, and the
quantiles are taken over the cycle's distinct operations, so that every
operation weighs the same in every run (see README.md for the
measurements behind this choice).  ``--trace 1`` runs one cycle untraced
and one traced (``tracer.py``) and prints the per-layer metrics; its work
is fixed, so its counts repeat exactly for a seed, and ``--seconds`` is not
used.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_CYCLES = 3          # repetitions of each operation per run
MIN_OPS = 100           # executions per run, at the least
OP_DEADLINE_S = 30      # an operation running longer counts as failed
HARD_LIMIT_S = 120      # stop mid-cycle past this, to end well within 180 s
SETUP_REPEATS = 7
IMPORT_REPEATS = 5

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import tropiso
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - start)
"""


class DeadlineMissed(BaseException):
    """Raised by SIGALRM inside an operation that outran OP_DEADLINE_S."""


def _on_alarm(signum, frame):
    raise DeadlineMissed()


def render(result) -> str:
    if isinstance(result, BaseException):
        return f"{type(result).__name__}: {result}"
    return repr(result)


class Tally:
    """Outcomes of the executions of one workload's operations."""

    def __init__(self, wl):
        self.wl = wl
        self.durations: list[float] = []
        self.by_op: dict[int, list[float]] = {}  # op index -> its execution times
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, tuple] = {}   # op index -> (args, result, rendered)
        self.passed: dict[int, int] = {}    # op index -> executions awaiting the check
        self.problems: list[str] = []

    def fail(self, label: str, why: str, n: int = 1) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {why}")

    def record(self, k, args, result, seconds, status) -> None:
        op = self.wl.ops[k]
        self.attempted += 1
        self.durations.append(seconds)
        self.by_op.setdefault(k, []).append(seconds)
        if status != "ok":
            self.fail(op.label, status if status == "deadline" else render(result)[:300])
            return
        text = render(result)
        if k not in self.first:
            self.first[k] = (args, result, text)
        elif text != self.first[k][2]:
            self.fail(op.label, "output differs between executions")
            return
        self.passed[k] = self.passed.get(k, 0) + 1

    def check(self) -> None:
        """Run each distinct result's check once, outside the timed region."""
        from routes import CheckFailed

        for k, (args, result, _) in self.first.items():
            op = self.wl.ops[k]
            try:
                op.check(args, result)
            except CheckFailed as exc:
                self.fail(op.label, f"wrong result: {exc}", self.passed[k])
            except Exception as exc:  # a malformed result breaks its check
                self.fail(op.label, f"check raised {render(exc)[:300]}", self.passed[k])

    def digest(self) -> str:
        h = hashlib.sha256()
        for k, op in enumerate(self.wl.ops):
            text = self.first[k][2] if k in self.first else "<failed>"
            h.update(f"{op.label}|{text}\n".encode())
        return h.hexdigest()


def _resolve(args, latest):
    from tropiso import TropMatrix
    from workloads import Ref

    out = []
    for a in args:
        if isinstance(a, Ref):
            a = latest.get(a.index)
        elif isinstance(a, TropMatrix):
            a = TropMatrix(a.semiring, a.entries)  # fresh object: no per-object cache survives
        out.append(a)
    return tuple(out)


def execute(op, latest, tracer=None, inprocess=False):
    args = _resolve(op.args, latest)
    fn = op.inprocess if inprocess else op.run
    status = "ok"
    signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
    start = time.perf_counter()
    try:
        if tracer is None:
            result = fn(*args)
        else:
            with tracer.root(f"op.{op.kind}"):
                result = fn(*args)
    except DeadlineMissed:
        result, status = None, "deadline"
    except op.allowed as exc:  # typed outcomes the API documents
        result = exc
    except Exception as exc:
        result, status = exc, "error"
    finally:
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    if seconds > OP_DEADLINE_S:
        status = "deadline"
    return args, result, seconds, status


def run_cycle(wl, tally, tracer=None, inprocess=False, stop_at=float("inf")) -> bool:
    """Execute every operation once in order; False if cut short at ``stop_at``."""
    latest: dict[int, object] = {}
    for k, op in enumerate(wl.ops):
        if time.perf_counter() > stop_at:
            return False
        args, result, seconds, status = execute(op, latest, tracer, inprocess)
        latest[k] = result
        tally.record(k, args, result, seconds, status)
    return True


def _child(argv) -> tuple[float, str]:
    """Run one fresh interpreter to completion: (wall seconds, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60,
                          check=True)
    return time.perf_counter() - start, proc.stdout


def setup_seconds(name, seed, scale) -> float:
    """import tropiso plus building the workload's inputs, timed inside a fresh interpreter."""
    argv = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(ROOT / "bench"),
            name, str(seed), scale]
    return float(_child(argv)[1])


def import_ms() -> float:
    """Median wall time of a child process that only imports tropiso.cli."""
    argv = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import tropiso.cli"]
    return 1000 * statistics.median(_child(argv)[0] for _ in range(IMPORT_REPEATS))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kilobytes on Linux


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def measure(name, seed, seconds, scale="full", min_cycles=MIN_CYCLES, min_ops=MIN_OPS) -> dict:
    """Untraced run: whole cycles until ``seconds``, ``min_cycles`` and ``min_ops`` are reached.

    An operation's latency is the median of its executions; the quantiles
    are taken over the cycle's distinct operations, and ``ops_per_s`` is the
    rate of one caller running the cycle at those latencies.  Set-up
    samples are taken between cycles, so that they spread over the run like
    the operations do.
    """
    from workloads import build, write_files

    wl = build(name, seed, scale)
    write_files(wl)
    tally = Tally(wl)
    setups: list[float] = []
    cycles = 0
    start = time.perf_counter()
    while True:
        whole = run_cycle(wl, tally, stop_at=start + HARD_LIMIT_S)
        cycles += whole
        if len(setups) < SETUP_REPEATS:
            setups.append(setup_seconds(name, seed, scale))
        elapsed = time.perf_counter() - start
        if not whole or (elapsed >= seconds and cycles >= min_cycles
                         and tally.attempted >= min_ops):
            break
    peak = wl.runner.peak_kb / 1024 if wl.runner else peak_rss_mb()
    tally.check()
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_seconds(name, seed, scale))
    typical = [statistics.median(times) for times in tally.by_op.values()]
    ms = [1000 * s for s in typical]
    metrics = {
        "ops_per_s": (1 - tally.failed / tally.attempted) * len(typical) / sum(typical),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": p90(ms),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
    }
    timed = f"{len(ms)} ops x >= {min(map(len, tally.by_op.values()))} executions"
    samples = {"ops_per_s": timed, "op_p50_ms": timed, "op_p90_ms": timed,
               "setup_s": f"{len(setups)} set-ups",
               "peak_rss_mb": "children" if wl.runner else "1 process"}
    return {"workload": wl, "tally": tally, "cycles": cycles, "metrics": metrics,
            "units": END_TO_END_UNITS, "samples": samples}


def per_layer_metrics(tracer, ops: int, plain, traced, proc) -> dict:
    self_s = tracer.self_times()

    def ms(*names):
        return 1000 * sum(self_s.get(n, 0.0) for n in names)

    def module_ms(prefix):
        return 1000 * sum((v for n, v in self_s.items() if n.startswith(prefix + ".")), 0.0)

    c = tracer.counts
    solves = tracer.calls("assignment.solve_optimal")
    scans = tracer.calls("dequant.sign_generic")
    systems = c["systems_tried"]
    m = {
        "assignment.solve_optimal.calls": (solves, "count"),
        "assignment.solves_per_op": (solves / ops, "solves/op"),
        "assignment.solve_optimal.self_ms": (ms("assignment.solve_optimal"), "ms"),
        "assignment.tvol.self_ms": (ms("assignment.tvol"), "ms"),
        "assignment.second_best.self_ms": (ms("assignment.second_best"), "ms"),
        "assignment.lex_optimal_permutation.self_ms":
            (ms("assignment.lex_optimal_permutation"), "ms"),
        "assignment.parity_report.self_ms": (ms("assignment.parity_report"), "ms"),
        "assignment.enumerate_optima.self_ms": (ms("assignment.enumerate_optima"), "ms"),
        "assignment.optima_enumerated": (c["optima_enumerated"], "count"),
        "assignment.capped": (c["capped"], "count"),
        "dequant.qvol_plus.self_ms": (ms("dequant.qvol_plus"), "ms"),
        "dequant.sign_generic.self_ms": (ms("dequant.sign_generic"), "ms"),
        "dequant.subsets_scanned": (c["subsets_scanned"], "count"),
        "dequant.parity_reports_per_scan":
            (tracer.calls("assignment.parity_report", parent="dequant.sign_generic")
             / scans if scans else 0.0, "reports/scan"),
        "geometry.hull_volume.calls": (tracer.calls("geometry.hull_volume"), "count"),
        "geometry.hull_volume.self_ms": (ms("geometry.hull_volume"), "ms"),
        "geometry.cells": (c["hull_cells"], "count"),
        "polytrope.enumerate_vertices.self_ms": (ms("polytrope.enumerate_vertices"), "ms"),
        "polytrope.vertices": (c["vertices"], "count"),
        "polytrope.systems_tried": (systems, "count"),
        "polytrope.vertex_yield": (c["vertices"] / systems if systems else 0.0, "ratio"),
        "polytrope.kleene_star.self_ms": (ms("polytrope.kleene_star"), "ms"),
        "polytrope.irredundant_facets.self_ms": (ms("polytrope.irredundant_facets"), "ms"),
        "isodiametric.sample_isodiametric.self_ms":
            (ms("isodiametric.sample_isodiametric"), "ms"),
        "isodiametric.check_conditions.self_ms": (ms("isodiametric.check_conditions"), "ms"),
        "isodiametric.to_standard.self_ms": (ms("isodiametric.to_standard"), "ms"),
        "matio.load_matrix.self_ms": (ms("matio.load_matrix"), "ms"),
        "matio.dumps_matrix_json.self_ms": (ms("matio.dumps_matrix_json"), "ms"),
        "cli.import_ms": (import_ms(), "ms"),
        "cli.main_ms": (1000 * statistics.median(plain.durations) if proc else 0.0, "ms"),
        "cli.process_ms": (1000 * statistics.median(proc.durations) if proc else 0.0, "ms"),
        "trace.overhead_ratio": (sum(traced.durations) / sum(plain.durations), "ratio"),
        "trace.wall_ms": (1000 * tracer.root_seconds(), "ms"),
        "trace.spans": (len(tracer.spans), "count"),
        "bench.self_ms": (module_ms("op"), "ms"),
    }
    for mod in ("core", "assignment", "isodiametric", "polytrope", "dequant", "geometry",
                "matio", "cli"):
        m[f"{mod}.self_ms"] = (module_ms(mod), "ms")
    return m


def measure_traced(name, seed, scale="full") -> dict:
    """One cycle untraced, one traced; for cli-process both run main() in-process."""
    from tracer import Tracer
    from workloads import build, write_files

    wl = build(name, seed, scale)
    write_files(wl)
    cli = name == "cli-process"
    proc = None
    if cli:
        proc = Tally(wl)
        run_cycle(wl, proc)
    plain, traced = Tally(wl), Tally(wl)
    run_cycle(wl, plain, inprocess=cli)
    tracer = Tracer()
    tracer.install()
    try:
        run_cycle(wl, traced, tracer=tracer, inprocess=cli)
    finally:
        tracer.remove()
    reference = proc or plain
    reference.check()
    for other in (plain, traced) if cli else (traced,):
        for k, (_, _, text) in other.first.items():
            if k in reference.first and text != reference.first[k][2]:
                other.fail(wl.ops[k].label, "output differs from the untraced run")
    tallies = [t for t in (proc, plain, traced) if t is not None]
    self_sum = sum(tracer.self_times().values())
    wall = tracer.root_seconds()
    for t in tallies[1:]:
        reference.problems += t.problems
    if abs(self_sum - wall) > 1e-6 * wall:
        reference.fail("trace", f"self times sum to {self_sum} s, root spans to {wall} s")
    tracer.dump(ROOT / ".bench_out" / f"trace-{name}-{seed}.json.gz")
    metrics = per_layer_metrics(tracer, len(wl.ops), plain, traced, proc)
    reference.attempted = sum(t.attempted for t in tallies)
    reference.failed = sum(t.failed for t in tallies)
    return {"workload": wl, "tally": reference, "cycles": 1,
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "units": {k: u for k, (_, u) in metrics.items()},
            "samples": {k: len(traced.durations) for k in metrics}}


def environment() -> str:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "not installed"
    commit = "n/a (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tropiso").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return (f"nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={numpy} "
            f"commit={commit} src_sha256={src.hexdigest()[:16]}")


def report(name, seed, trace, out) -> dict:
    wl, tally = out["workload"], out["tally"]
    print(f"tropiso benchmark: workload={name} seed={seed} trace={trace}")
    print(f"env: {environment()}")
    print(f"load: closed loop, 1 caller, jobs=1; cycle of {len(wl.ops)} operations, "
          f"{out['cycles']} cycle(s)")
    print(f"inputs_sha256: {wl.input_digest()}")
    print(f"outputs_sha256: {tally.digest()}")
    for metric, value in out["metrics"].items():
        print(f"  {metric:44s} {value:14.6f} {out['units'][metric]:<12s} n={out['samples'][metric]}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'fail_ratio':44s} {ratio:14.6f} {'ratio':<12s} "
          f"failed={tally.failed} attempted={tally.attempted}")
    for problem in tally.problems:
        print(f"  FAIL {problem}")
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": out["units"][k]}
                    for k, v in out["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tropiso").is_dir() or not (ROOT / "tests" / "conftest.py").is_file():
        print("error: run from a tropiso source checkout (src/tropiso and tests/ missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, WORK_DIR

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if args.trace:
            out = measure_traced(args.workload, args.seed)
        else:
            out = measure(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(ROOT / WORK_DIR / f"cli-{args.seed}", ignore_errors=True)
    print(json.dumps(report(args.workload, args.seed, args.trace, out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

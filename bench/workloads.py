"""The four benchmark workloads: seeded inputs, operations and their checks.

``build(name, seed, scale)`` turns a workload seed into one *cycle*: a fixed
list of operations, each a library call (or a whole CLI process) on
generated matrices, plus the check that compares its result with an
independent route from ``routes``.  The library only ever sees the
generated matrices; the seed stays in the benchmark.

Sizes are fixed per workload and scale, only the entries come from the
seed, so every seed has the same mix of operation kinds and sizes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import signal
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from typing import Callable

import tropiso as T
from tropiso import Semiring, StandardVariant, TropMatrix

from routes import (
    ROOT,
    assignment_values,
    best_value,
    brute_ok,
    dijkstra,
    expect,
    hull_area,
    in_minplus_span,
    maxplus_product,
    optima,
    oracles,
    parity,
    solves_bellman,
    submatrix,
    weight,
)

MAX, MIN = Semiring.MAX, Semiring.MIN
DENOMS = (1, 2, 3, 4, 5, 6)
WORK_DIR = ".bench_out"

# Sizes are (shape, instances).  A library cycle has over 100 operations
# whose cost is spread over many instances, so that no single seed-drawn
# matrix decides the run.
SCALES = {
    "assign-square": {
        # The counts put op_p50_ms inside the d=16 tvol/second_best group
        # and op_p90_ms inside the d=32 one, so a quantile never sits on the
        # edge between two groups.  tvol stops at d=32 and certificate runs
        # once per size: one d=64 tvol (0.4-0.6 s) would decide ops_per_s.
        "full": {"tdet": ((8, 2), (16, 2), (32, 2), (48, 2), (64, 2)),
                 "tvol": ((8, 4), (16, 24), (32, 10)), "certificate": (8, 16, 32),
                 # above these sizes the optima search is heavy-tailed: over
                 # 12 matrices enumerate_optima at d=12 took 2-390 ms, and at
                 # d=16 up to 6 s; parity_report at d=16 up to 0.9 s
                 "parity": range(8, 13), "enumerate": range(8, 11), "tied_instances": 2},
        "tiny": {"tdet": ((4, 2),), "tvol": ((4, 2), (6, 1)), "certificate": (4,),
                 "parity": (5,), "enumerate": (5,), "tied_instances": 1},
    },
    "dequant-wide": {
        # op_p50_ms falls among the generic 2x6 scans (about 3 ms) and
        # op_p90_ms among the generic 3x8 ones (about 15 ms); each group is
        # wide enough that slow outliers of cheaper calls cannot push the
        # quantile to its edge
        "full": {"generic": (((2, 6), 8), ((3, 8), 6)),
                 "tied": (((2, 6), 1), ((3, 8), 1), ((4, 10), 2)),
                 # the ROADMAP baseline shape, scanned once per cycle: a tied
                 # 6x18 bar matrix exits early; a generic one scans all 31824
                 # subsets (about 6 s), and qvol_plus by brute force takes
                 # about 2 s either way, too few repetitions per run
                 "baseline": (6, 18),
                 "pair_max_rows": 4, "slope": (2, 2, 3, 3), "bound": (2, 2, 3, 3)},
        "tiny": {"generic": (((2, 4), 1),), "tied": (((2, 4), 1),), "baseline": (2, 5),
                 "pair_max_rows": 2, "slope": (2,), "bound": (2,)},
    },
    "polytrope-build": {
        # The d=5 build (about 0.5 s, 4845 linear systems) takes the most
        # time.  The sub-millisecond queries vary with the seed, so two
        # groups of cost fixed by size outnumber them: Kleene stars at d=40
        # (about 5 ms each) hold op_p50_ms and d=4 builds (about 16 ms
        # each, always 220 systems) hold op_p90_ms.  Both are cheap, so the
        # cycle is short and each operation runs many times.
        "full": {"sampled": ((3, 2), (4, 1), (5, 1)), "random": ((4, 1),),
                 "builds": ((4, 28),), "stars": ((40, 60),), "kleene": (32, 48, 64),
                 "facets": (32, 48), "paper": True},
        "tiny": {"sampled": ((3, 1),), "random": ((3, 1),), "builds": ((3, 1),),
                 "stars": ((5, 1),),
                 "kleene": (6,), "facets": (6,), "paper": False},
    },
    "cli-process": {
        "full": {"full_set": True},
        "tiny": {"full_set": False},
    },
}
WORKLOADS = tuple(SCALES)


@dataclass(frozen=True)
class Ref:
    """An argument that is the latest result of an earlier operation in the cycle."""

    index: int


@dataclass
class Op:
    kind: str                       # library call or CLI subcommand
    label: str                      # unique within the cycle
    run: Callable                   # called with the resolved args
    args: tuple
    check: Callable[[tuple, object], None]
    allowed: tuple = ()             # typed errors the API documents for this call
    inprocess: Callable | None = None  # CLI only: the same argv through main()


@dataclass
class Workload:
    name: str
    ops: list[Op]
    files: dict[str, str] = field(default_factory=dict)  # generated CLI inputs
    runner: CliRunner | None = None

    def input_digest(self) -> str:
        h = hashlib.sha256()
        for op in self.ops:
            h.update(f"{op.label}|{op.args!r}\n".encode())
        for path in sorted(self.files):
            h.update(f"{path}|{self.files[path]}\n".encode())
        return h.hexdigest()


def library(fn: str, **kwargs) -> Callable:
    """Call ``tropiso.<fn>``, looked up on every call so tracing can wrap it."""
    def call(*args):
        return getattr(T, fn)(*args, **kwargs)
    return call


def lib_op(ops: list, kind: str, tag: str, args: tuple, check, allowed: tuple = (),
           **kwargs) -> int:
    """Append a call of ``tropiso.<kind>``; returns its index for ``Ref``."""
    ops.append(Op(kind, f"{kind}/{tag}", library(kind, **kwargs), args, check, allowed))
    return len(ops) - 1


# ---------------------------------------------------------------------------
# generators

def rational(rng, rows, cols, sr, bottom=0.0, lo=-20, hi=20) -> TropMatrix:
    """Entries p/q in [lo, hi] with q from DENOMS; Bottom with probability ``bottom``."""
    def cell():
        if bottom and rng.random() < bottom:
            return None
        den = rng.choice(DENOMS)
        return Fraction(rng.randint(lo * den, hi * den), den)
    return TropMatrix(sr, tuple(tuple(cell() for _ in range(cols)) for _ in range(rows)))


def integers(rng, rows, cols, lo, hi, sr=MAX) -> TropMatrix:
    return TropMatrix(sr, tuple(tuple(Fraction(rng.randint(lo, hi)) for _ in range(cols))
                                for _ in range(rows)))


def positive_minplus(rng, d, hi=40) -> TropMatrix:
    """Zero diagonal, positive rational off-diagonal arcs: a bounded polytrope."""
    def cell(i, j):
        if i == j:
            return Fraction(0)
        den = rng.choice(DENOMS)
        return Fraction(rng.randint(den, hi * den), den)
    return TropMatrix(MIN, tuple(tuple(cell(i, j) for j in range(d)) for i in range(d)))


def columns(A: TropMatrix, cols) -> TropMatrix:
    return submatrix(A, range(A.rows), cols)


def bar(A: TropMatrix) -> TropMatrix:
    return TropMatrix(MAX, (tuple(Fraction(0) for _ in range(A.cols)),) + A.entries)


# ---------------------------------------------------------------------------
# assign-square

@lru_cache(maxsize=64)
def _values(A: TropMatrix):
    return assignment_values(A)


def _route_pair(A: TropMatrix):
    """(best, second) from an independent route, or None where that is too slow.

    The LP route for the second best makes d transportation solves (about
    1 s at d=32, 17 s at d=64), so above d=16 the checks use transposition.
    """
    return _values(A) if A.rows <= 16 else None


def check_tdet(args, res):
    A = args[0]
    best = best_value(A)
    value, perm = res
    expect(value == best, f"tdet {value} != route {best}")
    if best is None:
        expect(perm is None, "witness given for a Bottom determinant")
    else:
        expect(weight(A, perm.images) == value, "witness weight differs from tdet")


def check_tvol(args, res):
    A = args[0]
    pair = _route_pair(A)
    if pair is None:
        expect(res == T.tvol(A.transpose()), "tvol not invariant under transposition")
    else:
        expect(res == abs(pair[0] - pair[1]), f"tvol {res} != route")


def check_second_best(args, res):
    A = args[0]
    pair = _route_pair(A)
    if pair is None:
        expect(res == T.second_best(A.transpose()), "second best not transposition invariant")
    else:
        expect(res == pair[1], f"second best {res} != route {pair[1]}")


def check_certificate(args, cert):
    A = args[0]
    best, second = _values(A)  # d <= 32: one certificate per size
    expect(cert.best_value == best, "certificate best value")
    expect(weight(A, cert.best_perm.images) == best, "certificate witness weight")
    if brute_ok(A.rows):
        expect(cert.best_perm.images == min(optima(A)), "witness is not lex-minimal")
    expect(cert.second_value == second, "certificate second value")
    expect(cert.tvol == abs(best - second), "certificate tvol")
    expect(cert.optimum_unique == (cert.tvol > 0), "certificate uniqueness flag")


def _check_mixed_witness(M: TropMatrix, rep):
    best = best_value(M)
    a, b = rep.witness
    expect(weight(M, a.images) == best and weight(M, b.images) == best,
           "parity witness is not optimal")
    expect(parity(a.images) != parity(b.images), "parity witness has one parity")


def check_parity(args, rep):
    A = args[0]
    verdict = rep.verdict.value
    if brute_ok(A.rows):
        opts = optima(A)
        mixed = len({parity(p) for p in opts}) == 2
        expect(verdict == ("mixed-parity" if mixed else "same-parity"),
               f"parity verdict {verdict} disagrees with brute force")
        if not mixed:
            expect(rep.enumerated_count == len(opts), "enumerated count")
    if verdict == "mixed-parity":
        _check_mixed_witness(A, rep)
    elif verdict == "unknown":
        expect(rep.method.value == "capped", "unknown verdict without a cap")


def check_enumerate(args, res):
    A = args[0]
    perms, truncated = res
    got = [p.images for p in perms]
    cap = 10_000
    if brute_ok(A.rows):
        full = optima(A)
        expect(got == full[:cap] and truncated == (len(full) > cap),
               "optima differ from brute force")
        return
    best = best_value(A)
    expect(all(weight(A, p) == best for p in got), "enumerated a non-optimal permutation")
    expect(all(a < b for a, b in zip(got, got[1:])), "optima not in strict lex order")
    expect(len(got) <= cap and truncated == (len(got) == cap), "cap bookkeeping")


def assign_square(rng, sizes, seed):
    ops: list[Op] = []
    semirings = (MAX, MIN)
    for d, count in sizes["tdet"]:
        for k in range(count):
            sr = semirings[k % 2]
            lib_op(ops, "tdet", f"{sr.value}/d{d}/{k}", (rational(rng, d, d, sr),), check_tdet)
            lib_op(ops, "tdet", f"{sr.value}-bottom/d{d}/{k}", (rational(rng, d, d, sr, 0.2),),
                   check_tdet)
    for d, count in sizes["tvol"]:
        for k in range(count):
            sr = semirings[k % 2]
            A = rational(rng, d, d, sr)
            lib_op(ops, "tvol", f"{sr.value}/d{d}/{k}", (A,), check_tvol)
            lib_op(ops, "second_best", f"{sr.value}/d{d}/{k}", (A,), check_second_best)
    for d in sizes["certificate"]:
        lib_op(ops, "certificate", f"max/d{d}", (rational(rng, d, d, MAX),), check_certificate)
    for k in range(sizes["tied_instances"]):
        for d in sizes["parity"]:
            lib_op(ops, "parity_report", f"tied/d{d}/{k}", (integers(rng, d, d, 0, 2),),
                   check_parity)
        for d in sizes["enumerate"]:
            lib_op(ops, "enumerate_optima", f"tied/d{d}/{k}", (integers(rng, d, d, 0, 2),),
                   check_enumerate)
    return Workload("assign-square", ops)


# ---------------------------------------------------------------------------
# dequant-wide

def _bar_scan_by_brute(A: TropMatrix):
    """(verdict, first mixed selection) of the bar matrix by brute force, or None."""
    M = bar(A)
    r, c = M.rows, M.cols
    k = min(r, c)
    if not brute_ok(k, math.comb(max(r, c), k)):
        return None
    for sel in combinations(range(max(r, c)), k):
        sub = columns(M, sel) if r <= c else submatrix(M, sel, range(c))
        if len({parity(p) for p in optima(sub)}) == 2:
            return "mixed-parity", sel
    return "same-parity", None


def _bar_selection(A: TropMatrix, sel) -> TropMatrix:
    M = bar(A)
    return columns(M, sel) if M.rows <= M.cols else submatrix(M, sel, range(M.cols))


def _check_scan(A: TropMatrix, rep, label: str):
    brute = _bar_scan_by_brute(A)
    verdict = rep.verdict.value
    if brute is not None:
        expect((verdict, rep.selection if verdict == "mixed-parity" else None) == brute,
               f"bar scan {verdict} disagrees with brute force {brute[0]}")
    if verdict == "mixed-parity":
        _check_mixed_witness(_bar_selection(A, rep.selection), rep)
    elif verdict == "unknown":
        expect(rep.method.value == "capped", "unknown verdict without a cap")
    elif brute is None:
        M = bar(A)
        pick = random.Random(label)
        for _ in range(8):  # spot-check subsets too many to enumerate
            sel = sorted(pick.sample(range(M.cols), M.rows))
            expect(len({parity(p) for p in optima(columns(M, sel))}) == 1,
                   f"subset {sel} has optima of both parities")


def _qvol_route(A: TropMatrix, method: str):
    other = "transport-lp" if method == "brute-force" else "brute-force"
    value = T.qvol_plus(A, method=other, compute_parity=False).value
    if brute_ok(A.rows, math.comb(A.cols, A.rows)):
        expect(value == oracles().brute_qvol_plus(A), "qvol+ routes disagree with oracle")
    return value


def check_qvol_plus(method, args, res):
    A = args[0]
    expect(res.value == _qvol_route(A, method), f"qvol+ {res.value} != other method")
    if res.value is not None:
        sub = columns(A, res.witness_columns)
        expect(weight(sub, res.witness_perm.images) == res.value, "witness weight != qvol+")
    brute = _bar_scan_by_brute(A)
    if brute is not None:
        expect(res.sign_generic_bar.value == brute[0], "sign_generic_bar verdict")


def check_sign_generic(label, args, rep):
    _check_scan(args[0], rep, label)


def check_qvol(label, args, res):
    A = args[0]
    if isinstance(res, T.NotSignGenericError):
        expect(res.report.verdict.value == "mixed-parity", "error without a mixed verdict")
        _check_scan(A, res.report, label)
    elif not isinstance(res, T.ParityUnknownError):
        expect(res == _qvol_route(A, "brute-force"), "qvol differs from qvol+")
        brute = _bar_scan_by_brute(A)
        expect(brute is None or brute[0] == "same-parity", "qvol on a mixed bar matrix")


def check_idempotent(args, res):
    A, B = args
    C = TropMatrix(MAX, tuple(a + b for a, b in zip(A.entries, B.entries)))
    scan = _bar_scan_by_brute(C)
    expect(scan is not None, "idempotent check input too large for the oracle")
    if scan[0] != "same-parity":
        expect(res is None, "idempotent check ran on a non-generic union")
        return
    qv = oracles().brute_qvol_plus  # None for fewer columns than rows
    expect(res == (qv(C) == MAX.combine(qv(A), qv(B))), "idempotent measure verdict")


def check_cauchy_binet(args, res):
    B, C, I = args
    tper = oracles().brute_tper
    d = B.rows
    lhs = tper(columns(maxplus_product(B, C), I))
    rhs = None
    for K in combinations(range(B.cols), d):
        left, right = tper(columns(B, K)), tper(submatrix(C, K, I))
        if left is not None and right is not None:
            rhs = MAX.combine(rhs, left + right)
    expect(res == (lhs == rhs), "Cauchy-Binet verdict")


def check_slope(label, args, res):
    A = args[0]
    if isinstance(res, T.NotSignGenericError):
        _check_scan(A, res.report, label)
        return
    if isinstance(res, T.DegenerateHullError):
        return
    expect(res.qvol_value == oracles().brute_qvol_plus(A), "slope experiment qvol")
    expect(abs(res.slope - float(res.qvol_value)) <= 0.05,
           f"slope {res.slope} far from qvol {res.qvol_value}")


def check_bound(args, rep):
    rows = args[0]
    expect(rep.holds and rep.volume <= rep.bound * (1 + 1e-9), "volume bound fails")
    if len(rows) == 2:
        pts = [(rows[0][j], rows[1][j]) for j in range(len(rows[0]))]
        expect(rep.volume == hull_area(pts), "hull area differs from monotone chain")


def _wide_ops(ops, rng, A: TropMatrix, tag: str, pair_max_rows: int):
    d, m = A.rows, A.cols
    for method in ("brute-force", "transport-lp"):
        lib_op(ops, "qvol_plus", f"{method}/{tag}", (A,), partial(check_qvol_plus, method),
               method=method)
    lib_op(ops, "sign_generic", tag, (A,), partial(check_sign_generic, tag), bar=True)
    lib_op(ops, "qvol", tag, (A,), partial(check_qvol, tag),
           allowed=(T.NotSignGenericError, T.ParityUnknownError))
    if d <= pair_max_rows:
        half = m // 2
        lib_op(ops, "idempotent_measure_check", tag,
               (columns(A, range(half)), columns(A, range(half, m))), check_idempotent)
        C = integers(rng, d + 2, d + 1, 0, 2) if tag.startswith("tied") \
            else rational(rng, d + 2, d + 1, MAX)
        lib_op(ops, "cauchy_binet_check", tag, (columns(A, range(d + 2)), C, tuple(range(d))),
               check_cauchy_binet)


def dequant_wide(rng, sizes, seed):
    ops: list[Op] = []
    for slice_ in ("generic", "tied"):
        for (d, m), count in sizes[slice_]:
            for k in range(count):
                A = rational(rng, d, m, MAX) if slice_ == "generic" \
                    else integers(rng, d, m, 0, 2)
                _wide_ops(ops, rng, A, f"{slice_}/{d}x{m}/{k}", sizes["pair_max_rows"])
    d, m = sizes["baseline"]
    A = integers(rng, d, m, 0, 2)
    tag = f"tied/{d}x{m}/baseline"
    lib_op(ops, "sign_generic", tag, (A,), partial(check_sign_generic, tag), bar=True)
    for k, d in enumerate(sizes["slope"]):
        tag = f"{d}x{d + 2}/{k}"
        lib_op(ops, "dequant_slope", tag, (integers(rng, d, d + 2, 0, 6),),
               partial(check_slope, tag),
               allowed=(T.NotSignGenericError, T.DegenerateHullError))
    for k, d in enumerate(sizes["bound"]):
        rows = tuple(tuple(Fraction(rng.randint(0, 9)) for _ in range(d + 3)) for _ in range(d))
        lib_op(ops, "volume_bound_check", f"{d}x{d + 3}/{k}", (rows,), check_bound)
    return Workload("dequant-wide", ops)


# ---------------------------------------------------------------------------
# polytrope-build

def _point(pt):
    return (Fraction(0),) + tuple(pt)


def _tight(pt, hrep) -> int:
    x = _point(pt)
    return sum(1 for i, j, b in hrep if x[i] - x[j] == b)


def check_polytrope(args, P):
    B = args[0]
    d = B.rows
    star = dijkstra(B)
    expect([list(r) for r in P.star.entries] == star, "star differs from Dijkstra")
    expect(P.hrep == tuple((i, j, star[i][j]) for i in range(d) for j in range(d) if i != j),
           "H-representation")
    verts = P.vertices
    expect(len(set(verts)) == len(verts), "duplicate vertices")
    expect(len(verts) <= math.comb(2 * d - 2, d - 1), "more vertices than binom(2d-2, d-1)")
    for pt in verts:
        x = _point(pt)
        expect(all(x[i] - x[j] <= b for i, j, b in P.hrep), f"vertex {pt} infeasible")
        expect(_tight(pt, P.hrep) >= d - 1, f"vertex {pt} tight on fewer than d-1")
    irr = set(P.irredundant)
    for i in range(d):
        for j in range(d):
            if i != j:
                detour = dijkstra(B, skip=(i, j), sources=(i,))[0][j]
                expect(((i, j) in irr) == (detour > star[i][j]), f"facet ({i},{j})")
    for (i, j), n in P.facet_profile.items():
        on = sum(1 for pt in verts if _point(pt)[i] - _point(pt)[j] == star[i][j])
        expect(n == on, f"profile of facet ({i},{j})")


def _simple(P) -> bool:
    return all(_tight(pt, P.hrep) == P.dim - 1 for pt in P.vertices)


def check_genericity(args, res):
    expect(res == _simple(args[0]), "genericity verdict")


def check_report(args, rep):
    P = args[0]
    expect(rep["dim"] == P.dim and rep["facets"] == [list(f) for f in P.irredundant],
           "report header")
    expect([tuple(Fraction(c) for c in pt) for pt in rep["vertices"]] == list(P.vertices),
           "report vertices")
    expect(rep["simple"] == _simple(P), "report simplicity")


def check_svg(args, svg):
    P = args[0]
    poly = svg.split('points="', 1)[1].split('"', 1)[0]
    expect(svg.startswith("<?xml") and svg.endswith("</svg>\n"), "SVG framing")
    expect(len(poly.split()) == len(P.vertices), "SVG polygon size")


def check_membership(args, res):
    B, x = args
    expect(res == in_minplus_span(B, x), "membership differs from residuation")


def _near_isodiametric_shape(B: TropMatrix, strict: bool) -> bool:
    d, e = B.rows, B.entries
    if any(e[i][i] != 0 for i in range(d)) or any(c < 0 for r in e for c in r):
        return False
    if any(e[i][j] + e[j][i] != 2 for i in range(d) for j in range(d) if i != j):
        return False
    for i, j, k in combinations(range(d), 3):
        for a, b, c in ((i, j, k), (i, k, j)):
            s = e[a][b] + e[b][c] + e[c][a]
            if not (2 < s < 4 if strict else 2 <= s <= 4):
                return False
    return True


def check_sample(expected, strict, args, B):
    expect(B == expected, "sampler is not deterministic under its seed")
    expect(_near_isodiametric_shape(B, strict), "sample violates the conditions")
    expect(all(B.entries[0][k] == 1 == B.entries[k][0] for k in range(1, B.rows)),
           "sample border")


def check_conditions(strict, args, rep):
    B = args[0]
    expect(rep.classification.value == "isodiametric", "sample not classified isodiametric")
    expect(rep.tvol == 2 == oracles().brute_tvol(B), "tvol of a sample is not 2")
    expect(rep.tdiam == 2, "tdiam of a sample is not 2")
    expect(not strict or rep.strict_iv, "strict sample reported non-strict")


def check_standard(args, form):
    B, variant = args
    S = form.matrix
    d = S.rows
    expect(S.entries[0][0] == variant.corner, "standard corner")
    expect(all(S.entries[0][k] == variant.border == S.entries[k][0] for k in range(1, d)),
           "standard border")
    best, _ = oracles().brute_assignment_values(S)
    expect(sum(S.entries[i][i] for i in range(d)) == best, "identity not optimal")
    expect(oracles().brute_tvol(S) == oracles().brute_tvol(B), "tvol not preserved")


def check_star(args, S):
    expect([list(r) for r in S.entries] == dijkstra(args[0]), "star differs from Dijkstra")


def check_star_bellman(args, S):
    B = args[0]
    expect(all(c > 0 for i, r in enumerate(B.entries) for j, c in enumerate(r) if i != j),
           "Bellman route needs positive arcs")
    expect(solves_bellman(B, S), "star does not solve Bellman's equations")


def check_irredundant(B, label, args, facets):
    star = args[0]
    got = set(facets)
    pick = random.Random(label)
    d = star.rows
    for _ in range(12):  # spot-check pairs: one Dijkstra each, arc (i, j) removed
        i, j = pick.sample(range(d), 2)
        detour = dijkstra(B, skip=(i, j), sources=(i,))[0][j]
        expect(((i, j) in got) == (detour > star.entries[i][j]), f"facet ({i},{j})")


def _polytrope_ops(ops, rng, B: TropMatrix, tag: str, near_iso: bool):
    d = B.rows
    k = lib_op(ops, "build_polytrope", tag, (B,), check_polytrope)
    lib_op(ops, "genericity_check", tag, (Ref(k),), check_genericity)
    lib_op(ops, "polytrope_report", tag, (Ref(k),), check_report)
    if d == 3:
        lib_op(ops, "render_svg", tag, (Ref(k),), check_svg)
    if near_iso:  # one query: a column of B (a member) or a random probe
        inside = B.col(rng.randrange(d))
        probe = tuple(Fraction(rng.randint(0, 8), 4) for _ in range(d))
        n = rng.randrange(2)
        lib_op(ops, "tconv_membership", f"{tag}/{n}", (B, (inside, probe)[n]), check_membership)


def polytrope_build(rng, sizes, seed):
    ops: list[Op] = []
    for d, count in sizes["sampled"]:
        for k in range(count):
            strict = k % 2 == 1
            s = rng.randrange(2 ** 31)
            B = T.sample_isodiametric(d, s, require_strict=strict)
            tag = f"sampled/d{d}/{k}{'/strict' if strict else ''}"
            lib_op(ops, "sample_isodiametric", tag, (d, s), partial(check_sample, B, strict),
                   require_strict=strict)
            lib_op(ops, "check_conditions", tag, (B, StandardVariant.MIN),
                   partial(check_conditions, strict))
            lib_op(ops, "to_standard", tag, (B, StandardVariant.MIN), check_standard)
            _polytrope_ops(ops, rng, B, tag, near_iso=True)
    if sizes["paper"]:
        paper = {"D4": [[0, 1, 1, 1], [1, 0, "5/4", "3/4"], [1, "3/4", 0, "5/4"],
                        [1, "5/4", "3/4", 0]]}
        for lam in (0, 2):
            paper[f"family{lam}"] = [[0, 1, 1], [1, 0, lam], [1, 2 - lam, 0]]
        for name, rows in paper.items():
            _polytrope_ops(ops, rng, TropMatrix.from_rows(rows, MIN), f"paper/{name}", True)
    for d, count in sizes["random"]:
        for k in range(count):
            _polytrope_ops(ops, rng, positive_minplus(rng, d), f"random/d{d}/{k}", False)
    for d, count in sizes["builds"]:
        for k in range(count):
            lib_op(ops, "build_polytrope", f"builds/d{d}/{k}", (positive_minplus(rng, d),),
                   check_polytrope)
    for d, count in sizes["stars"]:
        for k in range(count):
            lib_op(ops, "kleene_star", f"stars/d{d}/{k}", (positive_minplus(rng, d, hi=400),),
                   check_star_bellman)
    for d in sizes["kleene"]:
        B = positive_minplus(rng, d, hi=400)
        k = lib_op(ops, "kleene_star", f"large/d{d}", (B,), check_star)
        if d in sizes["facets"]:
            lib_op(ops, "irredundant_facets", f"large/d{d}", (Ref(k),),
                   partial(check_irredundant, B, f"large/d{d}"))
    return Workload("polytrope-build", ops)


# ---------------------------------------------------------------------------
# cli-process

def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliRunner:
    """Runs whole ``python -m tropiso.cli`` processes and keeps their peak RSS.

    Children are reaped with ``os.wait4`` so each one's own peak is known;
    ``RUSAGE_CHILDREN`` would mix in every other child of the benchmark.
    """

    def __init__(self):
        self.peak_kb = 0
        self.env = cli_env()

    def __call__(self, argv):
        """(exit code, stdout, stderr) of one process, run from the checkout root."""
        work = ROOT / WORK_DIR
        work.mkdir(exist_ok=True)
        with open(work / "cli.stdout", "w+") as out, open(work / "cli.stderr", "w+") as err:
            cwd = os.getcwd()
            os.chdir(ROOT)  # argv paths are relative to the root, so outputs are too
            try:
                pid = os.posix_spawn(
                    sys.executable, [sys.executable, "-m", "tropiso.cli", *argv], self.env,
                    file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                  (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
            finally:
                os.chdir(cwd)
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:  # the deadline fired: end the child, then re-raise
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return os.waitstatus_to_exitcode(status), out.read(), err.read()


def run_inprocess(argv):
    """The same argv through ``tropiso.cli.main`` with stdout and stderr captured."""
    import tropiso.cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tropiso.cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def check_cli(typed_ok, args, res):
    code, out, err = res
    expect(res == run_inprocess(args[0]), "process output differs from in-process main()")
    if typed_ok and code == 1:
        expect(err.startswith("ERROR:") and err.count("\n") == 1, "typed error format")
    else:
        expect(code == 0 and not err, f"exit {code}: {err.strip()[:200]}")


def cli_process(rng, sizes, seed):
    gen = f"{WORK_DIR}/cli-{seed}"
    data = "demos/data"
    dumps = T.dumps_matrix_json
    files = {
        f"{gen}/max8.json": dumps(rational(rng, 8, 8, MAX)),
        f"{gen}/min8_bottom.json": dumps(rational(rng, 8, 8, MIN, 0.2)),
        f"{gen}/max6.json": dumps(rational(rng, 6, 6, MAX)),
        f"{gen}/wide_generic.json": dumps(rational(rng, 3, 7, MAX)),
        f"{gen}/wide_tied.json": dumps(integers(rng, 3, 7, 0, 2)),
        f"{gen}/iso3.json": dumps(T.sample_isodiametric(3, rng.randrange(2 ** 31))),
        f"{gen}/iso4.json": dumps(T.sample_isodiametric(4, rng.randrange(2 ** 31))),
        f"{gen}/min8_positive.json": dumps(positive_minplus(rng, 8)),
        f"{gen}/slope.json": dumps(integers(rng, 2, 4, 0, 6)),
        f"{gen}/plain.json": "[" + ", ".join(
            "[" + ", ".join(str(rng.randint(0, 9)) for _ in range(5)) + "]"
            for _ in range(3)) + "]",
    }
    files = {path: text + "\n" for path, text in files.items()}
    argvs = [
        ["tvol", f"{data}/unit3.json"], ["tvol", f"{gen}/max8.json"],
        ["tdet", "--format", "json", f"{data}/generic_4x4.json"],
        ["tdet", "--format", "json", f"{gen}/min8_bottom.json"],
        ["qvol", "--json", f"{data}/wide_A.json"], ["qvol", "--json", f"{gen}/wide_generic.json"],
        ["sign-generic", f"{data}/wide_B.json"], ["sign-generic", f"{gen}/wide_tied.json"],
        ["polytrope", f"{data}/family_1.json"], ["polytrope", f"{gen}/iso4.json"],
        ["polytrope", f"{gen}/iso3.json"],
        ["iso-check", f"{data}/family_0.json"], ["iso-check", f"{gen}/iso4.json"],
        ["standardize", f"{data}/unit3.json"], ["standardize", f"{gen}/max6.json"],
        ["kleene", f"{data}/generic_4x4.json"], ["kleene", f"{gen}/min8_positive.json"],
        ["iso-sample", "--dim", "4", "--seed", str(rng.randrange(10 ** 6))],
        ["iso-sample", "--dim", "5", "--strict", "--seed", str(rng.randrange(10 ** 6))],
        ["bound-check", f"{data}/ordinary_triangle.json"], ["bound-check", f"{gen}/plain.json"],
        ["dequant-slope", f"{data}/slope_demo.json"], ["dequant-slope", f"{gen}/slope.json"],
        ["qvol", "--json", f"{gen}/wide_tied.json"],
        ["paper-suite"],
    ]
    if not sizes["full_set"]:
        argvs = [argvs[0], argvs[2], argvs[13]]
    runner = CliRunner()
    ops = []
    for k, argv in enumerate(argvs):
        typed_ok = argv[0] == "dequant-slope"  # may exit 1 with ERROR:not-sign-generic
        ops.append(Op(argv[0], f"cli/{k}/{argv[0]}", runner, (tuple(argv),),
                      partial(check_cli, typed_ok), inprocess=run_inprocess))
    return Workload("cli-process", ops, files, runner)


BUILDERS = {
    "assign-square": assign_square,
    "dequant-wide": dequant_wide,
    "polytrope-build": polytrope_build,
    "cli-process": cli_process,
}


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """The cycle of workload ``name``; the same seed gives the same inputs."""
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, SCALES[name][scale], seed)


def write_files(wl: Workload) -> None:
    for path, text in wl.files.items():
        target = ROOT / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)

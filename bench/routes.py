"""Independent routes that the benchmark checks library results against.

None of these share code with the routine they check: assignment values
come from the brute-force oracles in ``tests/conftest.py`` or from the
library's transportation LP (a Bellman-Ford min-cost flow, not the Hungarian
solver), shortest paths from Dijkstra instead of Floyd-Warshall, span
membership from residuation instead of the difference-constraint test,
Kleene stars also from Bellman's equations (cheaper than Dijkstra), and
planar areas from a monotone-chain hull.
"""

from __future__ import annotations

import heapq
import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import tropiso as T
from tropiso import Semiring, TropMatrix

ROOT = Path(__file__).resolve().parent.parent
_ORACLES = None


class CheckFailed(Exception):
    """A result disagreed with its independent route."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def oracles():
    """The brute-force oracles of the test suite, loaded by path."""
    global _ORACLES
    if _ORACLES is None:
        spec = importlib.util.spec_from_file_location(
            "tropiso_test_oracles", ROOT / "tests" / "conftest.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        _ORACLES = mod
    return _ORACLES


def brute_ok(d: int, subsets: int = 1) -> bool:
    """Whether permutation enumeration over ``subsets`` d x d blocks is cheap."""
    return subsets * math.factorial(d) <= 200_000


def weight(A: TropMatrix, images) -> Fraction | None:
    total = Fraction(0)
    for i, j in enumerate(images):
        cell = A.entries[i][j]
        if cell is None:
            return None
        total += cell
    return total


def parity(images) -> int:
    inversions = sum(1 for a in range(len(images)) for b in range(a + 1, len(images))
                     if images[a] > images[b])
    return -1 if inversions % 2 else 1


def submatrix(A: TropMatrix, rows, cols) -> TropMatrix:
    return TropMatrix(A.semiring, tuple(tuple(A.entries[r][c] for c in cols) for r in rows))


def _as_max(A: TropMatrix) -> tuple[TropMatrix, int]:
    if A.semiring is Semiring.MAX:
        return A, 1
    neg = tuple(tuple(None if c is None else -c for c in row) for row in A.entries)
    return TropMatrix(Semiring.MAX, neg), -1


def lp_best(A: TropMatrix):
    """Optimal assignment value and witness of a square matrix via the LP route."""
    M, sign = _as_max(A)
    res = T.qvol_plus(M, method="transport-lp", compute_parity=False)
    if res.value is None:
        return None, None
    return sign * res.value, res.witness_perm.images


def lp_second(A: TropMatrix, best_images) -> Fraction | None:
    """Best value over permutations other than ``best_images`` (LP route)."""
    second = None
    rows = [list(r) for r in A.entries]
    for i, j in enumerate(best_images):
        saved, rows[i][j] = rows[i][j], None
        value, _ = lp_best(TropMatrix(A.semiring, tuple(map(tuple, rows))))
        rows[i][j] = saved
        second = A.semiring.combine(second, value)
    return second


def best_value(A: TropMatrix) -> Fraction | None:
    """Optimal assignment value by brute force when cheap, else by the LP route."""
    if brute_ok(A.rows):
        return oracles().brute_assignment_values(A)[0]
    return lp_best(A)[0]


def assignment_values(A: TropMatrix):
    """(best, second best) by brute force when cheap, else by the LP route."""
    if brute_ok(A.rows):
        return oracles().brute_assignment_values(A)
    best, images = lp_best(A)
    return best, lp_second(A, images)


def optima(A: TropMatrix) -> list[tuple[int, ...]]:
    return oracles().brute_optima(A)


def dijkstra(B: TropMatrix, skip: tuple[int, int] | None = None,
             sources=None) -> list[list[Fraction]]:
    """Shortest paths from each source of a min-plus matrix with nonnegative arcs.

    ``skip`` removes one arc.  Rows follow ``sources`` (default: all nodes).
    """
    d = B.rows
    out = []
    for s in range(d) if sources is None else sources:
        dist: list = [None] * d
        dist[s] = Fraction(0)
        done = [False] * d
        heap = [(Fraction(0), s)]
        while heap:
            du, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for v in range(d):
                w = B.entries[u][v]
                if v == u or w is None or (u, v) == skip:
                    continue
                if dist[v] is None or du + w < dist[v]:
                    dist[v] = du + w
                    heapq.heappush(heap, (dist[v], v))
        out.append(dist)
    return out


def solves_bellman(B: TropMatrix, S: TropMatrix) -> bool:
    """Whether ``S`` solves Bellman's equations of the min-plus matrix ``B``.

    That is S[j][j] = 0 and S[i][j] = min over k != i of B[i][k] + S[k][j].
    When every arc off the diagonal is positive, every cycle is, and the
    shortest-path matrix is the only solution.  Runs on integers scaled by
    the common denominator, so it costs about one min-plus product.
    """
    d = B.rows
    scale = math.lcm(*(c.denominator for r in B.entries for c in r if c is not None))

    def ints(M):
        return [[None if c is None else c * scale for c in r] for r in M.entries]

    b, s = ints(B), ints(S)
    if any(c is not None and c.denominator != 1 for r in s for c in r):
        return False
    b, s = ([[None if c is None else int(c) for c in r] for r in M] for M in (b, s))
    for j in range(d):
        if s[j][j] != 0:
            return False
        col = [s[k][j] for k in range(d)]
        for i in range(d):
            if i == j:
                continue
            terms = [b[i][k] + col[k] for k in range(d)
                     if k != i and b[i][k] is not None and col[k] is not None]
            if s[i][j] != (min(terms) if terms else None):
                return False
    return True


def in_minplus_span(B: TropMatrix, x) -> bool:
    """Membership in the min-plus column span by residuation."""
    d = B.rows
    coeffs = [max(x[i] - B.entries[i][k] for i in range(d)) for k in range(B.cols)]
    return all(min(B.entries[i][k] + coeffs[k] for k in range(B.cols)) == x[i]
               for i in range(d))


def maxplus_product(B: TropMatrix, C: TropMatrix) -> TropMatrix:
    rows = []
    for i in range(B.rows):
        row = []
        for j in range(C.cols):
            terms = [B.entries[i][k] + C.entries[k][j] for k in range(B.cols)
                     if B.entries[i][k] is not None and C.entries[k][j] is not None]
            row.append(max(terms) if terms else None)
        rows.append(tuple(row))
    return TropMatrix(Semiring.MAX, tuple(rows))


def hull_area(points) -> Fraction:
    """Area of the convex hull of planar points (Andrew's monotone chain)."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = chain(pts) + chain(pts[::-1])
    twice = sum(hull[k][0] * hull[(k + 1) % len(hull)][1]
                - hull[(k + 1) % len(hull)][0] * hull[k][1] for k in range(len(hull)))
    return abs(Fraction(twice)) / 2

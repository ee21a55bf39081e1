"""Shared brute-force oracles and random generators.

Everything here is deliberately independent of the library's solver paths:
assignment values come from full permutation enumeration, qvol from full
column-subset enumeration, polytrope vertices from rational elimination over
every square subsystem of the inequalities, hull volumes from every point
triple that spans a supporting plane.  Rational entries are scaled to
integers first, which keeps the enumeration exact and fast.  Kleene-star
checks, facets and incidences stay on ``Fraction`` entries, the arithmetic the
library no longer uses for them.  Four oracles lean on library pieces:
``brute_tdiam`` is the ``Fraction`` loop over the public ``tdist`` that
``tdiam`` ran before it read the integer grid; ``brute_sign_generic`` checks
the scan around the public ``parity_report`` (which ``TestParityReport``
checks against ``brute_optima``), not the report itself;
``brute_cheapest_cycle`` reads one solve's duals (which
``TestOneSolveAgainstOracles`` certifies) and closes them by all-pairs paths;
and ``dfs_optima``, the optima walk the library used before it pruned dead
ends, reads the same solve's tight columns and tries every unused one at each
row, so it is the reference for the library's walk at d >= 8, where
``brute_optima`` is too slow.  ``reference_hungarian_min`` is the assignment
kernel the library used before it settled duals lazily: it updates every
dual and every ``minv`` at each step, and must agree with the library's
kernel on the whole 4-tuple, duals included.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from tropiso import (
    ParityMethod,
    ParityReport,
    ParityVerdict,
    Semiring,
    TropMatrix,
    assignment,
    parity_report,
    tdist,
)


def reference_hungarian_min(grid):
    """Min-cost perfect matching on an integer grid; None cells are forbidden.

    Returns (total cost, images, u, v) or None when no perfect matching exists.
    Shortest augmenting paths that subtract each step from every ``minv`` and
    add it to every tree dual, over all columns; exact integers throughout.
    """
    n = len(grid)
    u = [0] * n
    v = [0] * (n + 1)  # column n is the virtual start column
    match = [-1] * (n + 1)
    for i in range(n):
        match[n] = i
        j0 = n
        minv = [None] * (n + 1)
        way = [n] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = None
            j1 = -1
            for j in range(n):
                if used[j]:
                    continue
                cell = grid[i0][j]
                if cell is not None:
                    cur = cell - u[i0] - v[j]
                    if minv[j] is None or cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                if minv[j] is not None and (delta is None or minv[j] < delta):
                    delta = minv[j]
                    j1 = j
            if delta is None:
                return None  # some row set cannot be matched
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                elif minv[j] is not None:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == -1:
                break
        while j0 != n:
            j2 = way[j0]
            match[j0] = match[j2]
            j0 = j2
    images = [-1] * n
    for j in range(n):
        if match[j] >= 0:
            images[match[j]] = j
    total = sum(grid[r][images[r]] for r in range(n))
    return total, tuple(images), u, v[:n]


@pytest.fixture
def solve_counter(monkeypatch) -> list[int]:
    """The dimension of each assignment solve made while the test runs."""
    calls: list[int] = []
    solve = assignment._hungarian_min

    def counting(grid):
        calls.append(len(grid))
        return solve(grid)

    monkeypatch.setattr(assignment, "_hungarian_min", counting)
    return calls


def check_dual_certificate(grid, res) -> None:
    """Assert that the duals of a kernel result (total, images, u, v) on an
    integer grid (negated for max-plus, None cells forbidden) certify it:
    g_ij - u_i - v_j >= 0 on every allowed cell, with equality on the
    witness, and sum(u) + sum(v) equal to the total."""
    total, images, u, v = res
    for i, row in enumerate(grid):
        for j, g in enumerate(row):
            assert g is None or g - u[i] - v[j] >= 0, (grid, i, j)
    assert all(grid[i][j] - u[i] - v[j] == 0 for i, j in enumerate(images)), grid
    assert sum(u) + sum(v) == total == sum(grid[i][j] for i, j in enumerate(images)), grid


@pytest.fixture
def certified_solves(monkeypatch) -> list:
    """Every assignment solve made while the test runs, as (grid, result);
    each feasible result is checked with ``check_dual_certificate``."""
    calls: list = []
    solve = assignment._hungarian_min

    def certified(grid):
        res = solve(grid)
        if res is not None:
            check_dual_certificate(grid, res)
        calls.append((grid, res))
        return res

    monkeypatch.setattr(assignment, "_hungarian_min", certified)
    return calls


def scaled_grid(A: TropMatrix):
    dens = {c.denominator for row in A.entries for c in row if c is not None}
    scale = math.lcm(*dens) if dens else 1
    grid = [
        [None if c is None else c.numerator * (scale // c.denominator) for c in row]
        for row in A.entries
    ]
    return grid, scale


def brute_tdiam(A: TropMatrix) -> Fraction:
    """Largest ``tdist`` over pairs of rows, in ``Fraction`` arithmetic."""
    best = Fraction(0)
    for i in range(A.rows):
        for j in range(i + 1, A.rows):
            best = max(best, tdist(A.row(i), A.row(j)))
    return best


def brute_assignment_values(A: TropMatrix):
    """(best, second best) over all permutations; None encodes Bottom.

    ``second`` is the best value over permutations other than one fixed
    optimum, so ties make it equal to ``best``.
    """
    grid, scale = scaled_grid(A)
    d = len(grid)
    sign = -1 if A.semiring is Semiring.MAX else 1
    best = second = None
    for p in permutations(range(d)):
        tot = 0
        ok = True
        for i, j in enumerate(p):
            cell = grid[i][j]
            if cell is None:
                ok = False
                break
            tot += sign * cell
        if not ok:
            continue
        if best is None or tot < best:
            best, second = tot, best
        elif second is None or tot < second:
            second = tot
    unscale = lambda v: None if v is None else Fraction(sign * v, scale)
    return unscale(best), unscale(second)


def brute_tvol(A: TropMatrix) -> Fraction:
    best, second = brute_assignment_values(A)
    return abs(best - second)


def brute_cheapest_cycle(sol) -> int:
    """Cheapest cycle of the reduced-cost digraph of one solve (rows, arcs
    i -> k != i of weight r[i][images[k]]), by one Floyd-Warshall pass.

    The diagonal starts at one more than the sum of all arc weights, which
    no simple cycle reaches; exact integers throughout.
    """
    g, u, v, img = sol.grid, sol.u, sol.v, sol.images
    d = len(img)
    dist = [[g[i][img[k]] - u[i] - v[img[k]] for k in range(d)] for i in range(d)]
    unreached = 1 + sum(map(sum, dist))  # the diagonal of dist is 0 here
    for i in range(d):
        dist[i][i] = unreached
    for k in range(d):
        dk = dist[k]
        for i in range(d):
            dik = dist[i][k]
            dist[i] = [a if a <= dik + b else dik + b for a, b in zip(dist[i], dk)]
    return min(dist[i][i] for i in range(d))


def brute_optima(A: TropMatrix):
    """Image tuples of all optimal permutations, in lexicographic order."""
    grid, scale = scaled_grid(A)
    d = len(grid)
    sign = -1 if A.semiring is Semiring.MAX else 1
    scored = []
    for p in permutations(range(d)):
        tot = 0
        ok = True
        for i, j in enumerate(p):
            cell = grid[i][j]
            if cell is None:
                ok = False
                break
            tot += sign * cell
        if ok:
            scored.append((tot, p))
    if not scored:
        return []
    best = min(t for t, _ in scored)
    return [p for t, p in scored if t == best]


def dfs_optima(sol, visit) -> bool:
    """Depth-first walk over the optima of one solve in lexicographic order.

    Every unused tight (zero reduced-cost) column is tried at each row, so
    partial assignments that cannot be completed are explored too.  ``visit``
    gets each image tuple and returns False to stop early.  Returns True iff
    the walk ran to completion; a None solve has no optima.
    """
    if sol is None:
        return True
    tight = sol.tight_columns()
    d = len(tight)
    stopped = False

    def rec(i: int, mask: int, images: list) -> None:
        nonlocal stopped
        if i == d:
            if not visit(tuple(images)):
                stopped = True
            return
        for c in tight[i]:
            if mask >> c & 1:
                continue
            images.append(c)
            rec(i + 1, mask | (1 << c), images)
            images.pop()
            if stopped:
                return

    rec(0, 0, [])
    return not stopped


def brute_tper(A: TropMatrix):
    grid, scale = scaled_grid(A)
    d = len(grid)
    best = None
    for p in permutations(range(d)):
        tot = 0
        ok = True
        for i, j in enumerate(p):
            cell = grid[i][j]
            if cell is None:
                ok = False
                break
            tot += cell
        if ok and (best is None or tot > best):
            best = tot
    return None if best is None else Fraction(best, scale)


def brute_qvol_plus(A: TropMatrix):
    best = None
    for cols in combinations(range(A.cols), A.rows):
        sub = TropMatrix(
            A.semiring, tuple(tuple(row[c] for c in cols) for row in A.entries)
        )
        v = brute_tper(sub)
        if v is not None and (best is None or v > best):
            best = v
    return best


def brute_sign_generic(A: TropMatrix, bar: bool = False, cap: int = 10_000):
    """The sign-genericity scan built eagerly from public pieces: every
    maximal square submatrix (column subsets, or row subsets of a tall
    matrix) is its own TropMatrix with its own ``parity_report``."""
    M = A
    if bar:
        M = TropMatrix(A.semiring, (tuple(Fraction(0) for _ in range(A.cols)),) + A.entries)
    if M.rows <= M.cols:
        subs = [(cols, TropMatrix(M.semiring, tuple(tuple(row[c] for c in cols)
                                                    for row in M.entries)))
                for cols in combinations(range(M.cols), M.rows)]
    else:
        subs = [(rows, TropMatrix(M.semiring, tuple(M.entries[r] for r in rows)))
                for rows in combinations(range(M.rows), M.cols)]
    total = 0
    capped = None
    for sel, sub in subs:
        rep = parity_report(sub, cap=cap)
        total += rep.enumerated_count
        if rep.verdict is ParityVerdict.MIXED:
            return ParityReport(ParityVerdict.MIXED, total, rep.method,
                                witness=rep.witness, selection=sel)
        if rep.verdict is ParityVerdict.UNKNOWN and capped is None:
            capped = sel
    if capped is not None:
        return ParityReport(ParityVerdict.UNKNOWN, total, ParityMethod.CAPPED,
                            selection=capped)
    return ParityReport(ParityVerdict.SAME, total, ParityMethod.FULL_ENUMERATION)


def brute_affine_rank(pts) -> int:
    """Affine rank of rational points by Gauss-Jordan elimination in Fractions."""
    vecs = [[Fraction(c) - Fraction(b) for c, b in zip(p, pts[0])] for p in pts[1:]]
    rank = 0
    for col in range(len(pts[0])):
        piv = next((r for r in range(rank, len(vecs)) if vecs[r][col] != 0), None)
        if piv is None:
            continue
        vecs[rank], vecs[piv] = vecs[piv], vecs[rank]
        pv = vecs[rank][col]
        vecs[rank] = [x / pv for x in vecs[rank]]
        for r in range(len(vecs)):
            if r != rank and vecs[r][col] != 0:
                f = vecs[r][col]
                vecs[r] = [a - f * b for a, b in zip(vecs[r], vecs[rank])]
        rank += 1
    return rank


def _brute_ring(pts):
    """Strict convex hull of sorted distinct 2-D points, counterclockwise,
    from every ordered pair: (p, q) is an edge when no point lies right of
    it and every point on its line lies between p and q."""
    nxt = {}
    for p, q in permutations(pts, 2):
        turns = [(q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]) for r in pts]
        if min(turns) >= 0 and all(min(p, q) <= r <= max(p, q)
                                   for r, t in zip(pts, turns) if t == 0):
            nxt[p] = q
    ring = [pts[0]]
    while nxt.get(ring[-1], ring[0]) != ring[0]:
        ring.append(nxt[ring[-1]])
    return ring


def brute_hull_volume(points):
    """(volume, cells) of the hull of points in R^1, R^2 or R^3, with the
    fan from the least point that ``hull_volume`` reports.  In R^3 every
    point triple spanning a plane with all points on one side, and some
    off it, is a facet; each facet's polygon and the 2-D hull come from
    ``_brute_ring``.  The points are scaled to integers first."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    scale = math.lcm(*(c.denominator for p in pts for c in p))
    pts = sorted({tuple(int(c * scale) for c in p) for p in pts})
    k = len(pts[0])
    if k == 1:
        return Fraction(pts[-1][0] - pts[0][0], scale), int(len(pts) > 1)
    if k == 2:
        ring = _brute_ring(pts)
        if len(ring) < 3:
            return Fraction(0), 0
        area = sum((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
                   for a, b, c in zip([ring[0]] * len(ring), ring[1:], ring[2:]))
        return Fraction(area, 2 * scale ** 2), len(ring) - 2

    def sub(p, q):
        return p[0] - q[0], p[1] - q[1], p[2] - q[2]

    def cross(u, v):
        return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    planes = {}
    for a, b, c in combinations(pts, 3):
        n = cross(sub(b, a), sub(c, a))
        off = dot(n, a)
        sides = [dot(n, p) - off for p in pts]
        if max(sides) > 0 and min(sides) < 0 or not any(sides):
            continue
        if max(sides) > 0:
            n, off = tuple(-x for x in n), -off
        g = math.gcd(*n)
        key = tuple(x // g for x in n), off // g
        if key not in planes:
            planes[key] = [p for p in pts if dot(n, p) == off]
    apex = pts[0]
    vol = cells = 0
    for (n, off), face in planes.items():
        if dot(n, apex) == off:
            continue
        axis = max(range(3), key=lambda t: abs(n[t]))
        keep = [t for t in range(3) if t != axis]
        proj = {(p[keep[0]], p[keep[1]]): p for p in face}
        ring = [proj[q] for q in _brute_ring(sorted(proj))]
        for t in range(1, len(ring) - 1):
            vol += abs(dot(sub(ring[0], apex), cross(sub(ring[t], apex), sub(ring[t + 1], apex))))
            cells += 1
    return Fraction(vol, 6 * scale ** 3), cells


def _solve_square(rows, rhs):
    """Unique solution of a square rational system, or None if singular."""
    n = len(rhs)
    M = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [x / pv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return tuple(M[i][n] for i in range(n))


def brute_vertices(hrep, d):
    """Sorted chart vertices of ``x_i - x_j <= b`` for every (i, j, b) in hrep.

    Every (d-1)-subset of the inequalities is solved as an equality system in
    the chart ``y_k = x_{k+1} - x_0``; feasible unique solutions are vertices.
    """
    coeffs = []
    for i, j, _ in hrep:
        row = [Fraction(0)] * (d - 1)
        if i > 0:
            row[i - 1] += 1
        if j > 0:
            row[j - 1] -= 1
        coeffs.append(row)
    bounds = [Fraction(b) for _, _, b in hrep]
    found = set()
    for idx in combinations(range(len(hrep)), d - 1):
        pt = _solve_square([coeffs[k] for k in idx], [bounds[k] for k in idx])
        if pt is not None and all(
            sum(a * x for a, x in zip(row, pt)) <= b
            for row, b in zip(coeffs, bounds)
        ):
            found.add(pt)
    return sorted(found)


def brute_is_kleene_star(S: TropMatrix) -> bool:
    """Zero diagonal and every triangle s_ij <= s_ik + s_kj, in Fractions."""
    if not S.is_square or S.semiring is not Semiring.MIN:
        return False
    d, e = S.rows, S.entries
    if any(e[i][i] != 0 for i in range(d)):
        return False
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if e[i][k] is not None and e[k][j] is not None and (
                        e[i][j] is None or e[i][j] > e[i][k] + e[k][j]):
                    return False
    return True


def brute_irredundant_facets(star: TropMatrix):
    """Row-major (i, j) with s_ij < s_ik + s_kj for every third k, in Fractions."""
    d, e = star.rows, star.entries
    return [
        (i, j) for i in range(d) for j in range(d)
        if i != j and e[i][j] is not None and all(
            e[i][k] is None or e[k][j] is None or e[i][j] < e[i][k] + e[k][j]
            for k in range(d) if k not in (i, j))
    ]


def _point(pt):
    return (Fraction(0),) + tuple(pt)


def brute_facet_profile(P):
    """Vertices on each irredundant facet, counted in Fractions, in facet order."""
    bound = {(i, j): b for i, j, b in P.hrep}
    return {(i, j): sum(1 for pt in P.vertices if _point(pt)[i] - _point(pt)[j] == bound[i, j])
            for i, j in P.irredundant}


def brute_genericity_check(P) -> bool:
    """Every vertex tight on exactly d-1 rows of the full H-representation."""
    return all(
        sum(1 for i, j, b in P.hrep if _point(pt)[i] - _point(pt)[j] == b) == P.dim - 1
        for pt in P.vertices
    )


def brute_is_near_isodiametric(B: TropMatrix) -> bool:
    """Finite, nonnegative, zero diagonal, opposite pairs summing to 2 and
    every cyclic triple sum in [2, 4], each checked by its own loop."""
    if not B.is_finite:
        return False
    d, ent = B.rows, B.entries
    if any(c < 0 for row in ent for c in row):
        return False
    if any(ent[i][i] != 0 for i in range(d)):
        return False
    for i in range(d):
        for j in range(i + 1, d):
            if ent[i][j] + ent[j][i] != 2:
                return False
    for i, j, k in combinations(range(d), 3):
        for a, b, c in ((i, j, k), (i, k, j)):
            if not 2 <= ent[a][b] + ent[b][c] + ent[c][a] <= 4:
                return False
    return True


def box_with_filling(rng, lo, hi, count):
    """The 8 corners of the integer box [lo, hi], then ``count`` points in
    it, shuffled: each point's coordinates are drawn in the box, and zero,
    one or two of them are pinned to a bound, which puts it inside the box,
    on a face or on an edge."""
    pts = [(x, y, z) for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
    for _ in range(count):
        pins = rng.randint(0, 2)
        p = [rng.randint(a, b) for a, b in zip(lo, hi)]
        for t in rng.sample(range(3), pins):
            p[t] = rng.choice((lo[t], hi[t]))
        pts.append(tuple(p))
    rng.shuffle(pts)
    return pts


def random_finite(rng: random.Random, rows: int, cols: int, semiring: Semiring,
                  lo: int = -4, hi: int = 4, den: int = 4) -> TropMatrix:
    ent = tuple(
        tuple(Fraction(rng.randint(lo * den, hi * den), den) for _ in range(cols))
        for _ in range(rows)
    )
    return TropMatrix(semiring, ent)


def random_with_bottom(rng: random.Random, rows: int, cols: int,
                       semiring: Semiring, p_bottom: float = 0.25,
                       lo: int = -4, hi: int = 4) -> TropMatrix:
    ent = tuple(
        tuple(
            None if rng.random() < p_bottom else Fraction(rng.randint(lo, hi))
            for _ in range(cols)
        )
        for _ in range(rows)
    )
    return TropMatrix(semiring, ent)


def unit_matrix(d: int, semiring: Semiring) -> TropMatrix:
    """Ordinary unit matrix: ones on the diagonal, zeros elsewhere."""
    return TropMatrix.from_rows(
        [[1 if i == j else 0 for j in range(d)] for i in range(d)], semiring
    )


def family3(lam) -> TropMatrix:
    """One-parameter family of 3x3 isodiametric min-standard matrices."""
    lam = Fraction(lam)
    return TropMatrix.from_rows(
        [[0, 1, 1], [1, 0, lam], [1, 2 - lam, 0]], Semiring.MIN
    )


D4_MATRIX = TropMatrix.from_rows(
    [[0, 1, 1, 1],
     [1, 0, Fraction(5, 4), Fraction(3, 4)],
     [1, Fraction(3, 4), 0, Fraction(5, 4)],
     [1, Fraction(5, 4), Fraction(3, 4), 0]],
    Semiring.MIN,
)

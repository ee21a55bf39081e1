"""Exact convex-hull measures in ambient dimension 1, 2 and 3.

The points are scaled once to the integer grid ``core`` builds (floats
embed exactly), every test runs on those integers, and one division at the
end gives an exact ``Fraction``.  In dimension 3 the facets come from gift
wrapping (Chand & Kapur, "An algorithm for convex polytopes", JACM 1970):
each edge of each facet polygon is pivoted to the adjacent facet plane in
one pass over the points, O(m * E) integer operations for E hull edges.
Each call also reports the number of maximal cells of the triangulation it
used: a fan from one hull vertex over the hull faces not containing it,
which triangulates a segment into 1 cell, a convex h-gon into h - 2
triangles, and a tetrahedron into a single cell.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .core import _scaled, as_rational
from .errors import DimensionError, DomainError

Point = tuple[Fraction, ...]


class HullMeasure(NamedTuple):
    volume: Fraction
    cells: int  # maximal cells of the triangulation used


def _coerce_points(points: Sequence[Sequence]) -> list[Point]:
    pts = [tuple(as_rational(c) for c in p) for p in points]
    if not pts:
        raise DimensionError("need at least one point")
    k = len(pts[0])
    if any(len(p) != k for p in pts):
        raise DimensionError("points have mixed dimensions")
    if k not in (1, 2, 3):
        raise DomainError(f"hull volume implemented for dimension <= 3, got {k}")
    return pts


def _sub(p, q) -> tuple:
    return p[0] - q[0], p[1] - q[1], p[2] - q[2]


def _cross3(u, v) -> tuple:
    return u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _affine_rank(pts) -> int:
    """Affine rank of points in R^k, k <= 3, from cross and triple products
    of their differences: exact on integers and rationals, with no division."""
    vecs = [tuple(c - b for c, b in zip(p, pts[0])) + (0,) * (3 - len(p)) for p in pts[1:]]
    u = next((v for v in vecs if any(v)), None)
    if u is None:
        return 0
    n = next((w for w in (_cross3(u, v) for v in vecs) if any(w)), None)
    if n is None:
        return 1
    return 3 if any(_dot(n, v) for v in vecs) else 2


def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _chain(pts: list) -> list:
    """Strict convex hull of sorted distinct 2-D points, counterclockwise."""
    if len(pts) <= 2:
        return pts
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and _cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def convex_hull_2d(points: Sequence[Sequence]) -> list[Point]:
    """Strict convex hull in counterclockwise order (monotone chain)."""
    return _chain(sorted(set(tuple(as_rational(c) for c in p) for p in points)))


def _pivot(pts: list, a: tuple, e: tuple) -> tuple:
    """Turn a supporting plane (outward normal n) about the line a + t*e in
    it, whose points lie on the line or in direction n x e from it, to the
    point q with det(e, q - a, p - a) >= 0 for every point p; the plane
    through the line and q has outward normal (q - a) x e."""
    q = c = None
    for p in pts:
        r = _sub(p, a)
        if c is None or _dot(c, r) < 0:
            w = _cross3(e, r)
            if any(w):
                q, c = p, w
    return q


def _plane(n: tuple, p: tuple) -> tuple:
    """(normal over its gcd, offset) of the plane through p."""
    g = math.gcd(*n)
    n = (n[0] // g, n[1] // g, n[2] // g)
    return n, _dot(n, p)


def _volume_3d(pts: list) -> tuple[int, int]:
    """(6 * volume, cells) of full-dimensional sorted distinct integer points.

    The plane x = x_min through the least point, turned about the z axis
    through it and then about the edge found, until its points span a plane,
    is the first facet.  Each facet polygon runs counterclockwise seen from
    outside, so the facet across its edge a -> b runs it as b -> a."""
    apex = pts[0]
    n, e = (-1, 0, 0), (0, 0, 1)
    face = [p for p in pts if p[0] == apex[0]]
    while _affine_rank(face) < 2:
        q = _pivot(pts, apex, e)
        n, e = _cross3(_sub(q, apex), e), _sub(q, apex)
        face = [p for p in pts if _dot(n, _sub(p, apex)) == 0]
    todo = [_plane(n, apex)]
    facets, crossed = set(todo), set()
    vol = cells = 0
    while todo:
        n, off = todo.pop()
        axis = max(range(3), key=lambda t: abs(n[t]))
        u, v = (axis + 1) % 3, (axis + 2) % 3
        proj = {(p[u], p[v]): p for p in pts if _dot(n, p) == off}
        ring = [proj[q] for q in _chain(sorted(proj))]
        if n[axis] < 0:
            ring.reverse()
        if _dot(n, apex) != off:  # else the facet contains the apex of the fan
            for t in range(1, len(ring) - 1):
                vol += abs(_dot(_sub(ring[0], apex),
                                _cross3(_sub(ring[t], apex), _sub(ring[t + 1], apex))))
                cells += 1
        for a, b in zip(ring, ring[1:] + ring[:1]):
            if (a, b) in crossed:
                continue
            crossed.add((b, a))
            e = _sub(b, a)
            key = _plane(_cross3(_sub(_pivot(pts, a, e), a), e), a)
            if key not in facets:
                facets.add(key)
                todo.append(key)
    return vol, cells


def hull_volume(points: Sequence[Sequence]) -> HullMeasure:
    """Exact measure of the convex hull of points in R^k, k in {1, 2, 3}.

    Returns (volume, cells) where cells counts the maximal simplices of the
    fan triangulation used.  Configurations of affine dimension below the
    ambient dimension yield (0, 0).
    """
    grid, scale = _scaled(_coerce_points(points))
    pts = sorted(set(map(tuple, grid)))
    k = len(pts[0])
    if len(pts) <= k or _affine_rank(pts) < k:
        return HullMeasure(Fraction(0), 0)
    if k == 1:
        return HullMeasure(Fraction(pts[-1][0] - pts[0][0], scale), 1)
    if k == 2:
        hull = _chain(pts)
        area = sum(_cross2(hull[0], hull[t], hull[t + 1]) for t in range(1, len(hull) - 1))
        return HullMeasure(Fraction(abs(area), 2 * scale ** 2), len(hull) - 2)
    vol, cells = _volume_3d(pts)
    return HullMeasure(Fraction(vol, 6 * scale ** 3), cells)

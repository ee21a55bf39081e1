"""Kleene stars and the geometry of weighted digraph polyhedra.

A min-plus square matrix B defines the polyhedron of difference constraints
``x_i - x_j <= b_ij`` (i != j).  Its quotient modulo the all-ones line is
studied in the chart ``y_k = x_{k+1} - x_1``, where it is a bounded ordinary
polytope (a polytrope) whenever the Kleene star of B is finite.  This module
computes the star, the irredundant facets, the exact vertex set, facet/vertex
incidences, membership tests, and an SVG rendering of the planar case.

All geometry is exact and runs on the integer grid ``core`` builds (cells
times a common denominator): the star check, the facets and the vertex walk
along 0/1 edge vectors.  The walk records which inequalities are tight at
each vertex, and facet incidences and simplicity are read off those records.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from operator import eq, sub
from typing import Optional, Sequence

from .core import Semiring, TropMatrix, _scaled, _scaled_grid, as_vector, require_square
from .errors import (
    DimensionError,
    DomainError,
    NegativeCycleError,
    UnboundedPolytopeError,
)
from .matio import format_scalar

# facet identifier (i, j) = inequality x_i - x_j <= star[i][j], indices 0-based
Facet = tuple[int, int]

MAX_DIM = 6  # vertex enumeration refuses larger dimensions


def _find_negative_cycle(grid: list, scale: int) -> tuple[list[int], Fraction]:
    """Locate one simple negative cycle via Bellman-Ford from a supersource.

    Arcs of the unclosed integer grid run i -> j with weight g_ij for i != j;
    negative diagonal entries are handled by the caller as one-node cycles.
    """
    d = len(grid)
    dist = [0] * d
    pred: list[Optional[int]] = [None] * d
    marked: Optional[int] = None
    for step in range(d):
        improved = False
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                w = grid[i][j]
                if w is None:
                    continue
                if dist[i] + w < dist[j]:
                    dist[j] = dist[i] + w
                    pred[j] = i
                    improved = True
                    if step == d - 1:
                        marked = j
        if not improved:
            break
    if marked is None:  # pragma: no cover - caller detects the cycle first
        raise AssertionError("negative cycle reported but not found")
    node = marked
    for _ in range(d):
        node = pred[node]
    cycle = [node]
    cur = pred[node]
    while cur != node:
        cycle.append(cur)
        cur = pred[cur]
    cycle.reverse()
    weight = sum(grid[a][b] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    return cycle, Fraction(weight, scale)


def _close(dist: list[list[Optional[int]]]) -> bool:
    """Floyd-Warshall closure in place on a scaled-integer grid.

    ``None`` marks a missing arc.  Returns False, leaving the grid partly
    closed, as soon as a diagonal entry turns negative (a negative cycle).
    """
    d = len(dist)
    for k in range(d):
        dk = dist[k]
        for i in range(d):
            dik = dist[i][k]
            if dik is None:
                continue
            di = dist[i]
            for j in range(d):
                dkj = dk[j]
                if dkj is None:
                    continue
                cand = dik + dkj
                if di[j] is None or cand < di[j]:
                    di[j] = cand
        for i in range(d):
            if dist[i][i] < 0:
                return False
    return True


def _closed_grid(B: TropMatrix) -> tuple[list[list[Optional[int]]], int]:
    """(grid, scale): the Kleene star of B on the integer grid of B."""
    require_square(B)
    if B.semiring is not Semiring.MIN:
        raise DomainError("kleene star is defined for min-plus matrices")
    grid, scale, _ = _scaled_grid(B)
    for i, row in enumerate(grid):
        if row[i] is not None and row[i] < 0:
            raise NegativeCycleError([i], Fraction(row[i], scale))
        row[i] = 0
    dist = [row[:] for row in grid]
    if not _close(dist):
        raise NegativeCycleError(*_find_negative_cycle(grid, scale))
    return dist, scale


def _grid_matrix(grid: list[list[Optional[int]]], scale: int) -> TropMatrix:
    return TropMatrix(Semiring.MIN, tuple(
        tuple(None if w is None else Fraction(w, scale) for w in row) for row in grid
    ))


def kleene_star(B: TropMatrix) -> TropMatrix:
    """All-pairs shortest-path closure with zeroed diagonal (Floyd-Warshall).

    Raises :class:`NegativeCycleError` when the digraph weighted by B has a
    negative cycle (a diagonal entry of the closure would become negative).
    The result S is idempotent: S (x) S = S.
    """
    return _grid_matrix(*_closed_grid(B))


def _padded(s: list) -> tuple[list[list[int]], list[list[int]]]:
    """s with missing arcs as 2m and as 3m, m > every |s_ij|: both act as +infinity
    (finite two-arc sums stay below 2m, 3m plus a finite entry stays above it)."""
    m = 1 + max(abs(w) for row in s for w in row if w is not None)
    return tuple([[big if w is None else w for w in row] for row in s]
                 for big in (2 * m, 3 * m))


def _facets(s: list[list[Optional[int]]]) -> Optional[list[Facet]]:
    """Row-major facets of a zero-diagonal integer grid; None unless it is closed.

    The grid is closed iff no s_ij - s_kj exceeds s_ik; the arc (i, j) is
    a facet unless some k outside {i, j} ties, s_ik + s_kj = s_ij.
    """
    lo, hi = _padded(s)
    cols = range(len(s))
    out: list[Facet] = []
    for i, (si, li) in enumerate(zip(s, lo)):
        redundant = {i}
        for k, (sik, hk) in enumerate(zip(si, hi)):
            if k == i or sik is None:
                continue
            diff = list(map(sub, li, hk))
            if max(diff) > sik:
                return None
            if diff.count(sik) > 1:
                ties = compress(cols, map(eq, diff, repeat(sik)))
                redundant.update(j for j in ties if j != k)
        out.extend((i, j) for j, sij in enumerate(si)
                   if sij is not None and j not in redundant)
    return out


def _star_facets(S: TropMatrix) -> Optional[list[Facet]]:
    """Facets of S on its integer grid if S is a min-plus Kleene star, else None."""
    if not S.is_square or S.semiring is not Semiring.MIN:
        return None
    s = _scaled_grid(S)[0]
    if any(row[i] != 0 for i, row in enumerate(s)):
        return None
    return _facets(s)


def is_kleene_star(S: TropMatrix) -> bool:
    """Zero diagonal and closed under the triangle inequality."""
    return _star_facets(S) is not None


def irredundant_facets(star: TropMatrix) -> list[Facet]:
    """Facet-defining inequalities of the difference-constraint system.

    For a Kleene star S, the inequality (i, j) is irredundant exactly when
    ``s_ij < s_ik + s_kj`` for every third index k (strict, exact).
    """
    out = _star_facets(star)
    if out is None:
        raise DomainError("input must be a Kleene star (zero diagonal, closed)")
    return out


def _connected(mask: int, adj: Sequence[int]) -> bool:
    """Is the node set ``mask`` connected in the undirected graph ``adj``?

    Node sets and adjacency rows are bitmasks over node indices.
    """
    reach = mask & -mask
    while True:
        grown = reach
        for i, row in enumerate(adj):
            if reach >> i & 1:
                grown |= row & mask
        if grown == reach:
            return reach == mask
        reach = grown


def _require_dim(d: int) -> None:
    if d > MAX_DIM:
        raise DomainError(f"vertex enumeration guarded at dimension {MAX_DIM} (got d={d})")


def _walk(s: list[list[Optional[int]]]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Sorted vertices (x_0 = 0 leading) of a closed integer system, if bounded,
    each with its tight masks: row i has bit j iff x_i - x_j = s_ij."""
    for i, row in enumerate(s):
        if None in row:
            j = row.index(None)
            raise UnboundedPolytopeError(f"difference x_{i} - x_{j} is unbounded above")
    d = len(s)
    full = (1 << d) - 1
    seen = {tuple(s[i][k] - s[0][k] for i in range(d)) for k in range(d)}
    queue = list(seen)
    tight = {}
    while queue:
        x = queue.pop()
        out = [
            sum(1 << j for j in range(d) if j != i and x[i] - x[j] == s[i][j])
            for i in range(d)
        ]
        tight[x] = tuple(out)
        adj = [
            out[i] | sum(1 << j for j in range(d) if out[j] >> i & 1)
            for i in range(d)
        ]
        for S in range(1, full):
            inside = [i for i in range(d) if S >> i & 1]
            if any(out[i] & ~S for i in inside):
                continue
            if not (_connected(S, adj) and _connected(full ^ S, adj)):
                continue
            outside = [j for j in range(d) if not S >> j & 1]
            t = min(s[i][j] - x[i] + x[j] for i in inside for j in outside)
            shift = t if S & 1 else 0
            y = tuple(v + (t if S >> i & 1 else 0) - shift for i, v in enumerate(x))
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return sorted(tight.items())


def enumerate_vertices(hrep: Sequence[tuple[int, int, Fraction]],
                       d: int) -> list[tuple[Fraction, ...]]:
    """Exact vertex enumeration of the chart polytope from its inequalities.

    Polytropes are alcoved polytopes, so every edge runs along a 0/1 vector
    1_S modulo the all-ones line.  The bounds are scaled to integers, the
    system is closed by Floyd-Warshall (an infeasible system has no
    vertices), and the vertex graph is walked from the star columns, which
    are vertices.  At a vertex x the tight arcs (x_i - x_j = s_ij) span a
    connected graph; an edge leaves x along 1_S exactly when no tight arc
    leaves S and the tight graph stays connected inside S and inside its
    complement, and it ends at x + t 1_S, where t is the least slack over
    the arcs leaving S.  The polyhedron must be bounded: every ordered pair
    (i, j) is bounded once the system is closed.  Vertices come out sorted.
    """
    _require_dim(d)
    bounds, scale = _scaled([[b] for _, _, b in hrep])
    s: list[list[Optional[int]]] = [
        [0 if i == j else None for j in range(d)] for i in range(d)
    ]
    for (i, j, _), (w,) in zip(hrep, bounds):
        if s[i][j] is None or w < s[i][j]:
            s[i][j] = w
    if not _close(s):
        return []
    return [tuple(Fraction(v, scale) for v in x[1:]) for x, _ in _walk(s)]


@dataclass(frozen=True)
class Polytrope:
    """Exact description of the chart polytope of a min-plus matrix."""

    source: TropMatrix
    star: TropMatrix
    hrep: tuple[tuple[int, int, Fraction], ...]
    irredundant: tuple[Facet, ...]
    vertices: tuple[tuple[Fraction, ...], ...]
    facet_profile: dict[Facet, int]
    # the walk's masks: tight[v][i] has bit j iff vertex v lies on x_i - x_j = s_ij
    tight: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.star.rows


def facet_incidence(P: Polytrope) -> dict[Facet, frozenset[int]]:
    """Indices into ``P.vertices`` of the vertices on each irredundant facet,
    read off the tight masks of the vertex walk."""
    return {(i, j): frozenset(v for v, rows in enumerate(P.tight) if rows[i] >> j & 1)
            for i, j in P.irredundant}


def facet_profile(P: Polytrope) -> dict[Facet, int]:
    """Number of vertices on each irredundant facet: a copy of ``P.facet_profile``."""
    return dict(P.facet_profile)


def build_polytrope(B: TropMatrix) -> Polytrope:
    """Star, H-representation, facets, vertices and incidences from one closed grid."""
    s, scale = _closed_grid(B)
    star = _grid_matrix(s, scale)
    hrep = tuple((i, j, b) for i, row in enumerate(star.entries)
                 for j, b in enumerate(row) if i != j and b is not None)
    irr = tuple(_facets(s))
    _require_dim(len(s))
    walk = _walk(s)
    verts = tuple(tuple(Fraction(v, scale) for v in x[1:]) for x, _ in walk)
    tight = tuple(rows for _, rows in walk)
    profile = {(i, j): sum(rows[i] >> j & 1 for rows in tight) for i, j in irr}
    return Polytrope(B, star, hrep, irr, verts, profile, tight)


def genericity_check(P: Polytrope) -> bool:
    """True iff every vertex is tight on exactly d-1 of the inequalities.

    Tightness is counted over the full H-representation (every off-diagonal
    pair, as the polytrope is bounded) by the bits of the walk's tight
    masks, so a redundant inequality touching a vertex flags a degeneracy
    even though it defines no facet; this is what detects the boundary
    members of the isodiametric family, whose polygons lose vertices to
    coincidences.
    """
    return all(sum(map(int.bit_count, rows)) == P.dim - 1 for rows in P.tight)


def project_to_cone(M: TropMatrix, x: Sequence) -> tuple[Fraction, ...]:
    """Canonical projection of x onto the min-plus column span of M.

    Two-step residuation: u_k = max_i (x_i - m_ik), then entrywise
    min_k (m_ik + u_k).  The projection fixes x exactly when x lies in
    the span.
    """
    if M.semiring is not Semiring.MIN:
        raise DomainError("projection implemented for min-plus matrices")
    xv = as_vector(x)
    if len(xv) != M.rows:
        raise DimensionError("point length does not match matrix rows")
    u = []
    for k in range(M.cols):
        col = M.col(k)
        if any(c is None for c in col):
            raise DomainError("projection requires finite generators")
        u.append(max(xi - c for xi, c in zip(xv, col)))
    return tuple(
        min(M.entries[i][k] + u[k] for k in range(M.cols)) for i in range(M.rows)
    )


def tconv_membership(B: TropMatrix, x: Sequence) -> bool:
    """Is x in the tropical span of the columns of a near-isodiametric B?

    For near-isodiametric matrices the span equals the difference-constraint
    polyhedron of B, so membership reduces to checking every inequality
    (modulo the all-ones line, which the differences quotient out).
    """
    from .isodiametric import is_near_isodiametric
    if not is_near_isodiametric(B):
        raise DomainError("membership test requires a near-isodiametric matrix")
    xv = as_vector(x)
    if len(xv) != B.rows:
        raise DimensionError("point length does not match matrix dimension")
    d = B.rows
    for i in range(d):
        for j in range(d):
            if i != j and xv[i] - xv[j] > B.entries[i][j]:
                return False
    return True


def nonredundant_generator_mask(B: TropMatrix) -> list[bool]:
    """Which columns of a finite min-plus matrix are not spanned by the others."""
    if B.semiring is not Semiring.MIN:
        raise DomainError("generator analysis implemented for min-plus matrices")
    out = []
    for j in range(B.cols):
        rest_cols = [k for k in range(B.cols) if k != j]
        rest = TropMatrix(
            Semiring.MIN,
            tuple(tuple(row[k] for k in rest_cols) for row in B.entries),
        )
        col = B.col(j)
        out.append(project_to_cone(rest, col) != tuple(col))
    return out


def polytrope_report(P: Polytrope) -> dict:
    """JSON-ready report with exact rational coordinate strings."""
    sr = Semiring.MIN
    return {
        "dim": P.dim,
        "facets": [list(f) for f in P.irredundant],
        "vertices": [[format_scalar(c, sr) for c in pt] for pt in P.vertices],
        "profile": {f"{i},{j}": n for (i, j), n in sorted(P.facet_profile.items())},
        "simple": genericity_check(P),
    }


def _ccw_order(points: Sequence[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """Counterclockwise cyclic order around the centroid, exact comparisons."""
    n = len(points)
    cx = sum(p[0] for p in points) / n
    cy = sum(p[1] for p in points) / n

    def half(p):  # 0 = upper half plane (incl. positive x-axis), 1 = lower
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cross(p, q):
        return (p[0] - cx) * (q[1] - cy) - (p[1] - cy) * (q[0] - cx)

    def cmp(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        c = cross(p, q)
        return 0 if c == 0 else (-1 if c > 0 else 1)

    return sorted(points, key=functools.cmp_to_key(cmp))


def render_svg(P: Polytrope) -> str:
    """SVG picture of a planar polytrope (3x3 matrices only).

    The filled polygon runs through the exact vertices in cyclic order;
    red markers sit on the columns of the source matrix that are
    non-redundant generators, white markers on the remaining vertices.
    Output is deterministic for a fixed input.
    """
    if P.dim != 3:
        raise DomainError("SVG rendering is implemented for 3x3 matrices")
    verts = list(P.vertices)
    gens = nonredundant_generator_mask(P.source)
    red = []
    for j, keep in enumerate(gens):
        if keep:
            col = P.source.col(j)
            red.append((col[1] - col[0], col[2] - col[0]))
    red_set = set(red)
    white = [pt for pt in verts if tuple(pt) not in red_set]

    scale = Fraction(60)
    xs = [p[0] for p in verts] + [p[0] for p in red]
    ys = [p[1] for p in verts] + [p[1] for p in red]
    pad = Fraction(1, 2)
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad

    def sx(v: Fraction) -> float:
        return float((v - x0) * scale)

    def sy(v: Fraction) -> float:
        return float((y1 - v) * scale)  # flip: SVG y grows downward

    def fmt(v: float) -> str:
        return f"{v:.3f}"

    width, height = fmt(float((x1 - x0) * scale)), fmt(float((y1 - y0) * scale))
    ordered = _ccw_order(verts) if len(verts) >= 3 else verts
    pts = " ".join(f"{fmt(sx(p[0]))},{fmt(sy(p[1]))}" for p in ordered)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'  <polygon points="{pts}" fill="#8bb8d8" stroke="black" stroke-width="1.5"/>',
    ]
    for p in sorted(white):
        lines.append(
            f'  <circle cx="{fmt(sx(p[0]))}" cy="{fmt(sy(p[1]))}" r="3.2" '
            f'fill="white" stroke="black" stroke-width="1"/>'
        )
    for p in red:
        lines.append(
            f'  <circle cx="{fmt(sx(p[0]))}" cy="{fmt(sy(p[1]))}" r="4.2" '
            f'fill="red" stroke="black" stroke-width="1"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

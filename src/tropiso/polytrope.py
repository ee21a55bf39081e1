"""Kleene stars and the geometry of weighted digraph polyhedra.

A min-plus square matrix B defines the polyhedron of difference constraints
``x_i - x_j <= b_ij`` (i != j).  Its quotient modulo the all-ones line is
studied in the chart ``y_k = x_{k+1} - x_1``, where it is a bounded ordinary
polytope (a polytrope) whenever the Kleene star of B is finite.  This module
computes the star, the irredundant facets, the exact vertex set, facet/vertex
incidences, membership tests, and an SVG rendering of the planar case.

All geometry is exact: vertices are found by walking the vertex graph,
whose edges run along 0/1 vectors, on scaled integers, and every incidence
test is an exact comparison.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import Semiring, TropMatrix, as_vector, require_square
from .errors import (
    DimensionError,
    DomainError,
    NegativeCycleError,
    UnboundedPolytopeError,
)
from .isodiametric import is_near_isodiametric
from .matio import format_scalar

# facet identifier (i, j) = inequality x_i - x_j <= star[i][j], indices 0-based
Facet = tuple[int, int]


def _find_negative_cycle(B: TropMatrix) -> tuple[list[int], Fraction]:
    """Locate one simple negative cycle via Bellman-Ford from a supersource.

    Arcs run i -> j with weight b_ij for i != j; negative diagonal entries
    are handled by the caller as one-node cycles.
    """
    d = B.rows
    dist = [Fraction(0)] * d
    pred: list[Optional[int]] = [None] * d
    marked: Optional[int] = None
    for step in range(d):
        improved = False
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                w = B.entries[i][j]
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
    weight = sum(
        B.entries[a][b] for a, b in zip(cycle, cycle[1:] + cycle[:1])
    )
    return cycle, weight


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


def kleene_star(B: TropMatrix) -> TropMatrix:
    """All-pairs shortest-path closure with zeroed diagonal (Floyd-Warshall).

    Raises :class:`NegativeCycleError` when the digraph weighted by B has a
    negative cycle (a diagonal entry of the closure would become negative).
    The result S is idempotent: S (x) S = S.
    """
    require_square(B)
    if B.semiring is not Semiring.MIN:
        raise DomainError("kleene star is defined for min-plus matrices")
    d = B.rows
    dens = {c.denominator for row in B.entries for c in row if c is not None}
    scale = math.lcm(*dens) if dens else 1
    dist: list[list[Optional[int]]] = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            c = B.entries[i][j]
            w = None if c is None else c.numerator * (scale // c.denominator)
            dist[i][j] = min(0, w) if i == j and w is not None else (0 if i == j else w)
    for i in range(d):
        if dist[i][i] < 0:
            raise NegativeCycleError([i], Fraction(dist[i][i], scale))
    if not _close(dist):
        raise NegativeCycleError(*_find_negative_cycle(B))
    ent = tuple(
        tuple(None if w is None else Fraction(w, scale) for w in row)
        for row in dist
    )
    return TropMatrix(Semiring.MIN, ent)


def is_kleene_star(S: TropMatrix) -> bool:
    """Zero diagonal and closed under the triangle inequality."""
    if not S.is_square or S.semiring is not Semiring.MIN:
        return False
    d = S.rows
    if any(S.entries[i][i] != 0 for i in range(d)):
        return False
    for i in range(d):
        for j in range(d):
            for k in range(d):
                a, b, c = S.entries[i][j], S.entries[i][k], S.entries[k][j]
                if b is None or c is None:
                    continue
                if a is None or a > b + c:
                    return False
    return True


def irredundant_facets(star: TropMatrix) -> list[Facet]:
    """Facet-defining inequalities of the difference-constraint system.

    For a Kleene star S, the inequality (i, j) is irredundant exactly when
    ``s_ij < s_ik + s_kj`` for every third index k (strict, exact).
    """
    if not is_kleene_star(star):
        raise DomainError("input must be a Kleene star (zero diagonal, closed)")
    d = star.rows
    out: list[Facet] = []
    for i in range(d):
        for j in range(d):
            if i == j or star.entries[i][j] is None:
                continue
            keep = True
            for k in range(d):
                if k in (i, j):
                    continue
                a, b = star.entries[i][k], star.entries[k][j]
                if a is None or b is None:
                    continue
                if star.entries[i][j] >= a + b:
                    keep = False
                    break
            if keep:
                out.append((i, j))
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


def enumerate_vertices(hrep: Sequence[tuple[int, int, Fraction]], d: int,
                       max_dim: int = 6) -> list[tuple[Fraction, ...]]:
    """Exact vertex enumeration of the chart polytope from its inequalities.

    Polytropes are alcoved polytopes, so every edge runs along a 0/1 vector
    1_S modulo the all-ones line.  The bounds are scaled to integers, the
    system is closed by Floyd-Warshall (an infeasible system has no
    vertices), and the vertex graph is walked from the star columns, which
    are vertices.  At a vertex x the tight arcs (x_i - x_j = s_ij) span a
    connected graph; an edge leaves x along 1_S exactly when no tight arc
    leaves S and the tight graph stays connected inside S and inside its
    complement, and it ends at x + t 1_S, where t is the least slack over
    the arcs leaving S.  The polyhedron
    must be bounded, which for a Kleene-star system means every ordered pair
    (i, j) contributes a finite inequality.  Vertices are returned sorted.
    """
    if d > max_dim:
        raise DomainError(
            f"vertex enumeration guarded at dimension {max_dim} (got d={d})"
        )
    pairs = {(i, j) for i, j, _ in hrep}
    for i in range(d):
        for j in range(d):
            if i != j and (i, j) not in pairs:
                raise UnboundedPolytopeError(
                    f"difference x_{i} - x_{j} is unbounded above"
                )
    scale = math.lcm(*(b.denominator for _, _, b in hrep))
    s: list[list[Optional[int]]] = [
        [0 if i == j else None for j in range(d)] for i in range(d)
    ]
    for i, j, b in hrep:
        w = b.numerator * (scale // b.denominator)
        if s[i][j] is None or w < s[i][j]:
            s[i][j] = w
    if not _close(s):
        return []
    full = (1 << d) - 1
    seen = {tuple(s[i][k] - s[0][k] for i in range(d)) for k in range(d)}
    queue = list(seen)
    while queue:
        x = queue.pop()
        out = [
            sum(1 << j for j in range(d) if j != i and x[i] - x[j] == s[i][j])
            for i in range(d)
        ]
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
    return [tuple(Fraction(v, scale) for v in x[1:]) for x in sorted(seen)]


@dataclass(frozen=True)
class Polytrope:
    """Exact description of the chart polytope of a min-plus matrix."""

    source: TropMatrix
    star: TropMatrix
    hrep: tuple[tuple[int, int, Fraction], ...]
    irredundant: tuple[Facet, ...]
    vertices: tuple[tuple[Fraction, ...], ...]
    facet_profile: dict[Facet, int]

    @property
    def dim(self) -> int:
        return self.star.rows


def _on_facet(pt: tuple[Fraction, ...], facet: Facet, bound: Fraction) -> bool:
    i, j = facet
    xi = pt[i - 1] if i > 0 else Fraction(0)
    xj = pt[j - 1] if j > 0 else Fraction(0)
    return xi - xj == bound


def _profile(hrep, irredundant, vertices) -> dict[Facet, int]:
    bound = {(i, j): b for i, j, b in hrep}
    return {
        f: sum(1 for pt in vertices if _on_facet(pt, f, bound[f]))
        for f in irredundant
    }


def facet_profile(P: "Polytrope") -> dict[Facet, int]:
    """Number of vertices incident to each irredundant facet (exact)."""
    return _profile(P.hrep, P.irredundant, P.vertices)


def build_polytrope(B: TropMatrix, max_dim: int = 6) -> Polytrope:
    """Assemble star, H-representation, facets, vertices and incidences."""
    star = kleene_star(B)
    d = star.rows
    hrep = tuple(
        (i, j, star.entries[i][j])
        for i in range(d)
        for j in range(d)
        if i != j and star.entries[i][j] is not None
    )
    irr = tuple(irredundant_facets(star))
    verts = tuple(enumerate_vertices(hrep, d, max_dim=max_dim))
    return Polytrope(B, star, hrep, irr, verts, _profile(hrep, irr, verts))


def genericity_check(P: Polytrope) -> bool:
    """True iff every vertex is tight on exactly d-1 of the inequalities.

    Tightness is counted over the full H-representation, so a redundant
    inequality touching a vertex flags a degeneracy even though it defines
    no facet; this is what detects the boundary members of the isodiametric
    family, whose polygons lose vertices to coincidences.
    """
    want = P.dim - 1
    for pt in P.vertices:
        tight = sum(1 for i, j, b in P.hrep if _on_facet(pt, (i, j), b))
        if tight != want:
            return False
    return True


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

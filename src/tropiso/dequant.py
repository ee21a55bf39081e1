"""Dequantized tropical volume and its numerical semantics.

For a max-plus d x m matrix A (m >= d) the upper dequantized volume is

    qvol+ A = max over d-element column subsets I of tper A[I],

where tper is the max-plus assignment value of the square submatrix.  Two
independent routes compute it: exhaustive subset enumeration, and an exact
integral transportation linear program solved by successive shortest paths.

The subset scans read tper of each subset, and its numbers of even and odd
optima, off one lazily memoized cofactor expansion per scaled grid; for the
bar matrix of a d x m matrix it keeps at most sum over r <= d of C(m, r)
entries, and its d-subsets are A's, so qvol+ reads the same table.  A
Hungarian solve is made only for a qvol+ witness and for a subset whose
optima have both signs.

When the matrix obtained by stacking a zero row on top of A is *sign
generic* -- every maximal square submatrix has all its optimal permutations
of one parity -- the upper and lower dequantized volumes coincide and the
common value is the log-limit of the ordinary volumes of monomial lifts
``c * t**a_ij``; :func:`dequant_slope` measures that limit numerically and
:func:`volume_bound_check` tests the resulting upper bound on ordinary
polytope volumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from typing import Optional, Sequence

from .assignment import (
    DEFAULT_CAP,
    ParityMethod,
    ParityReport,
    ParityVerdict,
    Permutation,
    _hungarian_min,
    _optima,
    _parity,
    _solve_grid,
    solve_optimal,
)
from .core import Entry, Semiring, TropMatrix, _scaled, _scaled_grid, as_rational, require_square
from .errors import (
    DegenerateHullError,
    DimensionError,
    DomainError,
    NotSignGenericError,
    ParityUnknownError,
)

DEFAULT_T_GRID = (100, 1_000, 10_000, 100_000, 1_000_000)

BRUTE_FORCE = "brute-force"
TRANSPORT_LP = "transport-lp"


def _require_max(A: TropMatrix) -> None:
    if A.semiring is not Semiring.MAX:
        raise DomainError("dequantization operates on max-plus matrices")


def tper(C: TropMatrix) -> Entry:
    """Tropical permanent: max-plus assignment value; Bottom cells forbidden."""
    require_square(C)
    _require_max(C)
    value, _ = solve_optimal(C)
    return value


def bar_matrix(A: TropMatrix) -> TropMatrix:
    """A with an identically zero row stacked on top."""
    _require_max(A)
    zero_row = tuple(Fraction(0) for _ in range(A.cols))
    return TropMatrix(Semiring.MAX, (zero_row,) + A.entries)


def _expand(grid, memo: dict, cols: tuple[int, ...], mask: int):
    """The entry of ``cols`` (bitmask ``mask``) in ``_cofactors(grid)``."""
    r = len(cols) - 1
    row, best = grid[r], None
    for p, j in enumerate(cols):
        if row[j] is None:
            continue
        minor = mask ^ 1 << j
        sub = memo[minor] if minor in memo else _expand(grid, memo, cols[:p] + cols[p + 1:], minor)
        if sub is None:
            continue
        t = sub[0] + row[j]
        if best is None or t < best:
            best, even, odd = t, 0, 0
        if t == best:
            flip = (r + p) & 1
            even += sub[1 + flip]
            odd += sub[2 - flip]
    res = None if best is None else (best, even, odd)
    if r + 1 < len(grid):
        memo[mask] = res
    return res


def _cofactors(grid: Sequence[Sequence[Optional[int]]]):
    """Lazily memoized tropical Laplace expansion of an integer grid.

    ``entry(S)``, S an ascending column tuple, is (least total of rows
    0..|S|-1 on S, number of even optima, number of odd optima), or None if
    every assignment meets a None cell.  Along row r = |S|-1 it is the best,
    over the columns j of S at positions p, of entry(S without j) plus row
    r's cell in j, signs turned by (-1)**(r+p) (Butkovic, *Max-linear
    Systems*, 2010).  Subsets smaller than the row count are kept, so each
    is expanded once; the memo is freed with ``entry``.
    """
    memo: dict[int, Optional[tuple[int, int, int]]] = {0: (0, 1, 0)}

    def entry(cols: tuple[int, ...]) -> Optional[tuple[int, int, int]]:
        mask = 0
        for j in cols:
            mask |= 1 << j
        return memo[mask] if mask in memo else _expand(grid, memo, cols, mask)

    return entry


def _table(A: TropMatrix, bar: bool) -> tuple:
    """(grid, scale, sign, bar, entry): A scaled to integers once, and the
    cofactor table of its grid, with the bar row appended when ``bar``."""
    grid, scale, sign = _scaled_grid(A)
    return grid, scale, sign, bar, _cofactors(grid + [[0] * A.cols] if bar else grid)


@dataclass(frozen=True)
class QvolResult:
    value: Entry
    witness_columns: Optional[tuple[int, ...]]
    witness_perm: Optional[Permutation]
    method: str
    sign_generic_bar: Optional[ParityVerdict]


def _least(entry, subsets) -> tuple[Optional[int], Optional[tuple[int, ...]]]:
    """(least total, first subset attaining it) over ``subsets`` of ``entry``."""
    best = witness = None
    for cols in subsets:
        ent = entry(cols)
        if ent is not None and (best is None or ent[0] < best):
            best, witness = ent[0], cols
    return best, witness


def _qvol_brute(A: TropMatrix,
                table: tuple) -> tuple[Entry, Optional[tuple[int, ...]], Optional[Permutation]]:
    """The first least total over the column subsets, read off the cofactor
    table; one solve on that subset gives the witness permutation."""
    grid, scale, sign, _, entry = table
    _, witness = _least(entry, combinations(range(A.cols), A.rows))
    if witness is None:
        return None, None, None
    sol = _solve_grid([[row[j] for j in witness] for row in grid], scale, sign)
    return sol.value(sol.total), witness, Permutation(next(_optima(sol)))


def _qvol_transport(A: TropMatrix) -> tuple[Entry, Optional[tuple[int, ...]], Optional[Permutation]]:
    """Exact min-cost flow: d unit augmentations by shortest path.

    Bipartite network source -> rows -> columns -> sink, unit capacities,
    arc cost -a_ij on finite cells; the transportation polytope has integral
    vertices, so the flow value equals qvol+ exactly.
    """
    d, m = A.rows, A.cols
    dens = {c.denominator for row in A.entries for c in row if c is not None}
    scale = math.lcm(*dens) if dens else 1
    S, T = 0, 1 + d + m
    n_nodes = d + m + 2
    # arcs: (head, capacity, cost); residual partner is index ^ 1
    arcs: list[list[int]] = []
    out: list[list[int]] = [[] for _ in range(n_nodes)]

    def add_arc(u: int, v: int, cap: int, cost: int) -> None:
        out[u].append(len(arcs))
        arcs.append([v, cap, cost])
        out[v].append(len(arcs))
        arcs.append([u, 0, -cost])

    for i in range(d):
        add_arc(S, 1 + i, 1, 0)
    for i in range(d):
        for j in range(m):
            cell = A.entries[i][j]
            if cell is not None:
                w = cell.numerator * (scale // cell.denominator)
                add_arc(1 + i, 1 + d + j, 1, -w)
    for j in range(m):
        add_arc(1 + d + j, T, 1, 0)

    total_cost = 0
    for _ in range(d):
        dist: list[Optional[int]] = [None] * n_nodes
        via: list[int] = [-1] * n_nodes
        dist[S] = 0
        changed = True
        while changed:  # Bellman-Ford; the residual network stays cycle-safe
            changed = False
            for u in range(n_nodes):
                du = dist[u]
                if du is None:
                    continue
                for a in out[u]:
                    head, cap, cost = arcs[a]
                    if cap > 0 and (dist[head] is None or du + cost < dist[head]):
                        dist[head] = du + cost
                        via[head] = a
                        changed = True
        if dist[T] is None:
            return None, None, None  # some row cannot be matched at all
        node = T
        while node != S:
            a = via[node]
            arcs[a][1] -= 1
            arcs[a ^ 1][1] += 1
            node = arcs[a ^ 1][0]
        total_cost += dist[T]

    assign: dict[int, int] = {}
    for u in range(1, 1 + d):
        for a in out[u]:
            head, cap, _ = arcs[a]
            if 1 + d <= head < 1 + d + m and cap == 0 and a % 2 == 0:
                assign[u - 1] = head - 1 - d
    cols = tuple(sorted(assign.values()))
    pos = {c: k for k, c in enumerate(cols)}
    perm = Permutation(tuple(pos[assign[i]] for i in range(d)))
    return Fraction(-total_cost, scale), cols, perm


def _qvol_plus(A: TropMatrix, method: str, table: tuple):
    """(value, witness columns, witness permutation) of qvol+ by ``method``."""
    if A.cols < A.rows:
        raise DimensionError(f"need at least as many columns as rows, got {A.rows}x{A.cols}")
    if method not in (BRUTE_FORCE, TRANSPORT_LP):
        raise DomainError(f"unknown method {method!r}")
    return _qvol_brute(A, table) if method == BRUTE_FORCE else _qvol_transport(A)


def qvol_plus(A: TropMatrix, method: str = BRUTE_FORCE,
              cap: int = DEFAULT_CAP, compute_parity: bool = True) -> QvolResult:
    """Upper dequantized tropical volume with a witness.

    ``method`` selects brute-force subset enumeration or the transportation
    LP; both agree exactly on every input.  The witness permutation attains
    the assignment optimum on the witness column submatrix.  Brute force
    reads each subset's tper off a cofactor table and solves the witness
    only; the bar scan of ``compute_parity`` reads the same table.
    """
    _require_max(A)
    table = _table(A, compute_parity)
    value, cols, perm = _qvol_plus(A, method, table)
    verdict = _scan(table, cap).verdict if compute_parity else None
    return QvolResult(value, cols, perm, method, verdict)


def sign_generic(A: TropMatrix, bar: bool = False, cap: int = DEFAULT_CAP) -> ParityReport:
    """Parity scan over every maximal square submatrix.

    SAME only if all submatrices pass; MIXED carries the offending selection
    (column subset, or row subset for tall matrices) and an opposite-parity
    pair of permutations; UNKNOWN when some enumeration hit the cap.

    The matrix is scaled to integers once and its subsets are walked lazily
    in lexicographic order, so a MIXED verdict stops the walk.  Each subset's
    numbers of even and odd optima come from one memoized cofactor
    expansion (at most sum over r < k of C(n, r) entries for k x n subsets);
    only a subset with optima of both signs is solved, for its witness pair.
    """
    _require_max(A)
    return _scan(_table(A, bar), cap)


def _scan(table: tuple, cap: int) -> ParityReport:
    """``sign_generic`` on ``_table(A, bar)``.  The bar row there is last,
    which turns every optimum of a subset by one sign; a tall matrix gets a
    table of its transpose (inverse optima, same signs).  A subset with both
    signs is solved on the bar-first grid it is reported on."""
    if cap < 1:
        raise DomainError("cap must be positive")
    grid, scale, sign, bar, entry = table
    M = [[0] * len(grid[0])] + grid if bar else grid
    n, k = max(len(M), len(M[0])), min(len(M), len(M[0]))
    tall = len(M) > len(M[0])
    entry = _cofactors(list(zip(*M))) if tall else entry
    total, capped = 0, None
    for sel in combinations(range(n), k):
        _, even, odd = entry(sel) or (0, 0, 0)  # an infeasible subset counts 0
        count, mixed = even + odd, even and odd
        if count < cap and not mixed:
            total += count
            continue
        sub = [M[i] for i in sel] if tall else [[row[j] for j in sel] for row in M]
        finite = all(None not in row for row in sub)
        if mixed:
            rep = _parity(_solve_grid(sub, scale, sign), finite, cap)
            count = rep.enumerated_count
            if rep.verdict is ParityVerdict.MIXED:
                return ParityReport(ParityVerdict.MIXED, total + count, rep.method,
                                    witness=rep.witness, selection=sel)
            if rep.verdict is ParityVerdict.UNKNOWN:
                capped = capped or sel
        elif not (count == 1 and k >= 2 and finite):  # else the uniqueness shortcut
            count, capped = cap, capped or sel
        total += count
    if capped is not None:
        return ParityReport(ParityVerdict.UNKNOWN, total, ParityMethod.CAPPED,
                            selection=capped)
    return ParityReport(ParityVerdict.SAME, total, ParityMethod.FULL_ENUMERATION)


def _generic_qvol_plus(A: TropMatrix, method: str, cap: int) -> QvolResult:
    """qvol+ with its witness, after the bar scan has found A sign generic;
    both read one cofactor table."""
    _require_max(A)
    table = _table(A, True)
    rep = _scan(table, cap)
    if rep.verdict is ParityVerdict.MIXED:
        raise NotSignGenericError(
            f"optimal permutations of mixed parity in submatrix {rep.selection}",
            report=rep,
        )
    if rep.verdict is ParityVerdict.UNKNOWN:
        raise ParityUnknownError(
            f"parity enumeration capped at {cap} in submatrix {rep.selection}",
            report=rep,
        )
    return QvolResult(*_qvol_plus(A, method, table), method, rep.verdict)


def qvol(A: TropMatrix, method: str = BRUTE_FORCE, cap: int = DEFAULT_CAP) -> Entry:
    """Dequantized tropical volume; defined only for sign-generic inputs.

    Raises :class:`NotSignGenericError` (with the witness submatrix) or
    :class:`ParityUnknownError` rather than silently returning the upper
    value for inputs where upper and lower volumes may differ.
    """
    return _generic_qvol_plus(A, method, cap).value


@dataclass(frozen=True)
class LiftSpec:
    """Monomial lift of a max-plus exponent matrix.

    Entry (i, j) evaluates to ``coefficients[i][j] * t ** base[i][j]``, with
    the multiplicative boost applied on the distinguished cells (by default
    the optimal diagonal of the qvol+ witness submatrix).  Bottom exponents
    evaluate to 0.
    """

    base: TropMatrix
    coefficients: tuple[tuple[Fraction, ...], ...]
    boost: Fraction
    boost_cells: frozenset[tuple[int, int]] = field(default_factory=frozenset)


def default_lift(A: TropMatrix) -> LiftSpec:
    """Unit coefficients with boost (d+1)! on the witness diagonal."""
    _require_max(A)
    return _lift(A, qvol_plus(A, compute_parity=False))


def _lift(A: TropMatrix, res: QvolResult) -> LiftSpec:
    """The default lift of A, boosted on the witness diagonal of ``res``."""
    cells = set()
    if res.witness_columns is not None:
        for i, k in enumerate(res.witness_perm.images):
            cells.add((i, res.witness_columns[k]))
    ones = tuple(tuple(Fraction(1) for _ in range(A.cols)) for _ in range(A.rows))
    return LiftSpec(A, ones, Fraction(math.factorial(A.rows + 1)), frozenset(cells))


def lift_eval(spec: LiftSpec, t) -> list[list[Fraction]]:
    """Evaluate the lift at parameter t > 1 (exact for integer exponents)."""
    tq = as_rational(t)
    if tq <= 1:
        raise DomainError("lift evaluation needs t > 1")
    out = []
    for i, row in enumerate(spec.base.entries):
        line = []
        for j, e in enumerate(row):
            if e is None:
                line.append(Fraction(0))
                continue
            if e.denominator == 1:
                val = tq ** e.numerator
            else:
                val = Fraction(float(tq) ** float(e))
            val *= spec.coefficients[i][j]
            if (i, j) in spec.boost_cells:
                val *= spec.boost
            line.append(val)
        out.append(line)
    return out


@dataclass(frozen=True)
class SlopeResult:
    slope: float
    log_ratio_at_max_t: float
    qvol_value: Entry
    rows: tuple[tuple[Fraction, Fraction, float], ...]  # (t, volume, log vol / log t)


def dequant_slope(A: TropMatrix, t_grid: Sequence = DEFAULT_T_GRID,
                  cap: int = DEFAULT_CAP) -> SlopeResult:
    """Numerical log-limit of lifted hull volumes against qvol.

    Evaluates the default monomial lift on the grid, takes the exact hull
    volume of the columns at each t, and returns the least-squares slope of
    log volume against log t (plus the raw ratio at the largest t).  The
    slope estimate converges to the dequantized volume.
    """
    import statistics
    from .geometry import hull_volume
    _require_max(A)
    if A.rows > 3:
        raise DomainError("slope experiment implemented for at most 3 rows")
    if all(A.col(j) == A.col(0) for j in range(A.cols)):
        raise DegenerateHullError("all columns coincide; every lift has zero volume")
    res = _generic_qvol_plus(A, BRUTE_FORCE, cap)
    ts = sorted(as_rational(t) for t in t_grid)
    if not ts or ts[0] <= 1:
        raise DomainError("t grid must contain values > 1")
    if ts[0] == ts[-1]:
        raise DomainError("a slope needs at least two distinct t values")
    spec = _lift(A, res)
    rows = []
    try:
        for t in ts:
            mat = lift_eval(spec, t)
            points = [tuple(mat[i][j] for i in range(A.rows)) for j in range(A.cols)]
            vol, _ = hull_volume(points)
            if vol == 0:
                raise DegenerateHullError(
                    f"lifted column configuration has zero volume at t={t}"
                )
            rows.append((t, vol, math.log(vol) / math.log(t)))
    except OverflowError as exc:
        raise DomainError("lifted values leave the double-precision range") from exc
    logt = [math.log(t) for t, _, _ in rows]
    logv = [math.log(v) for _, v, _ in rows]
    slope = statistics.linear_regression(logt, logv).slope
    return SlopeResult(slope, rows[-1][2], res.value, tuple(rows))


@dataclass(frozen=True)
class BoundReport:
    volume: Fraction
    alpha: int
    qvol_log: Optional[float]  # qvol+ of the entrywise-log matrix
    bound: float
    holds: bool


BOUND_SLACK = 1e-9  # relative slack for the double-precision comparison


def volume_bound_check(rows: Sequence[Sequence]) -> BoundReport:
    """Test vol(conv A) <= alpha * (d+1) * exp(qvol+ (log A)) for A >= 0.

    Zero entries map to Bottom under the entrywise logarithm.  The hull
    volume and alpha are exact; the bound itself is a double-precision
    number compared with relative slack ``BOUND_SLACK``.  A False verdict
    would be a disproof candidate and is reported with full data.
    """
    from .geometry import hull_volume
    grid = [[as_rational(c) for c in row] for row in rows]
    d = len(grid)
    if d > 3:
        raise DomainError("bound check implemented for at most 3 rows")
    if any(c < 0 for row in grid for c in row):
        raise DomainError("bound check needs a nonnegative matrix")
    m = len(grid[0])
    if any(len(row) != m for row in grid):
        raise DimensionError("ragged rows")
    points = [tuple(grid[i][j] for i in range(d)) for j in range(m)]
    vol, alpha = hull_volume(points)
    try:
        log_entries = [
            [None if c == 0 else Fraction(math.log(c)) for c in row] for row in grid
        ]
        L = TropMatrix(Semiring.MAX, tuple(tuple(r) for r in log_entries))
        q = qvol_plus(L, compute_parity=False).value if m >= d else None
        if q is None:
            bound = 0.0
            holds = vol == 0
        else:
            bound = alpha * (d + 1) * math.exp(float(q))
            holds = float(vol) <= bound * (1.0 + BOUND_SLACK)
    except OverflowError as exc:
        raise DomainError("bound check needs values within double-precision range") from exc
    return BoundReport(vol, alpha, None if q is None else float(q), bound, holds)


def cauchy_binet_check(B: TropMatrix, C: TropMatrix, I: Sequence[int]) -> bool:
    """Product formula for tropical permanents of column selections.

    Verifies tper((B (x) C)[I]) == max over d-subsets K of
    tper B[K] + tper C[K, I].  Equality needs the one-parity hypothesis:
    the optimal permutations of (B (x) C)[I] share one parity.  Without it
    only ``>=`` holds, and the check can return False.

    Both sides stay on one integer grid of B stacked on C, at their common
    scale: the left is one solve on the d columns I of the product, the
    right reads the cofactor tables of B and of C[:, I] transposed.
    """
    _require_max(B)
    _require_max(C)
    if B.cols != C.rows:
        raise DimensionError("inner dimensions disagree")
    d = B.rows
    I = tuple(I)
    if len(I) != d or not all(0 <= j < C.cols for j in I):
        raise DimensionError("I must select d distinct columns of the product")
    grid, _ = _scaled(B.entries + C.entries, -1)
    rows = grid[:d]
    cols = [[row[j] for row in grid[d:]] for j in I]
    product = [[min((b + c for b, c in zip(row, col) if b is not None and c is not None),
                    default=None) for col in cols] for row in rows]
    lhs = _hungarian_min(product)
    left, right = _cofactors(rows), _cofactors(cols)
    rhs = None
    for K in combinations(range(B.cols), d):
        lk = left(K)
        rk = None if lk is None else right(K)
        if rk is not None and (rhs is None or lk[0] + rk[0] < rhs):
            rhs = lk[0] + rk[0]
    return (None if lhs is None else lhs[0]) == rhs


def idempotent_measure_check(A: TropMatrix, B: TropMatrix,
                             cap: int = DEFAULT_CAP) -> Optional[bool]:
    """qvol of a union equals the max of the parts, under sign-genericity.

    Returns True/False for the exact comparison, or None (skip) when the
    concatenation's bar matrix is not sign generic so the left side is not
    defined.  Both sides read the cofactor table of the concatenation.
    """
    _require_max(A)
    _require_max(B)
    if A.rows != B.rows:
        raise DimensionError("matrices must have the same number of rows")
    C = TropMatrix(
        Semiring.MAX,
        tuple(ra + rb for ra, rb in zip(A.entries, B.entries)),
    )
    table = _table(C, True)
    if _scan(table, cap).verdict is not ParityVerdict.SAME:
        return None
    if C.cols < C.rows:
        raise DimensionError(f"need at least as many columns as rows, got {C.rows}x{C.cols}")
    d, a, entry = C.rows, A.cols, table[4]
    parts = chain(combinations(range(a), d), combinations(range(a, C.cols), d))
    return _least(entry, combinations(range(C.cols), d))[0] == _least(entry, parts)[0]

"""Standard forms and the isodiametric condition systems.

A square matrix is brought to *standard form* by equivalence moves (row and
column permutations plus row/column constant offsets), after which four
exact conditions on the coefficients characterize the matrices whose
tropical diameter and tropical volume both equal two:

max-standard (first row and column read 1,0,...,0):
    (i)   -1 <= a_ij <= 1
    (ii)  a_ii  = 1
    (iii) a_ji  = -a_ij           for i != j
    (iv)  -1 <= a_ij + a_jk + a_ki <= 1   for i, j, k distinct

min-standard (first row and column read 0,1,...,1):
    (i)   0 <= b_ij <= 2
    (ii)  b_ii  = 0
    (iii) b_ij + b_ji = 2          for i != j
    (iv)  2 <= b_ij + b_jk + b_ki <= 4    for i, j, k distinct

A nonnegative matrix satisfying (ii)-(iv) in the min reading (upper bound of
(i) dropped) is *near-isodiametric*; such matrices are their own min-plus
squares and their tropical spans are ordinary polytopes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .assignment import _cheapest_cycle, _optima, _solve, _Solution
from .core import (
    Semiring,
    TropMatrix,
    _diameter,
    require_finite,
    require_square,
    translate,
)
from .errors import DomainError, SamplerLimitError

Move = tuple[str, tuple]

_SAMPLER_SCALE = 10_000


class StandardVariant(Enum):
    MAX = "max"
    MIN = "min"

    @property
    def semiring(self) -> Semiring:
        return Semiring.MAX if self is StandardVariant.MAX else Semiring.MIN

    @property
    def corner(self) -> Fraction:
        """Value of the (1,1) entry in standard form: the diagonal of (ii)."""
        return Fraction(_READINGS[self].diagonal)

    @property
    def border(self) -> Fraction:
        """Value of the remaining first-row/column entries in standard form."""
        return Fraction(0) if self is StandardVariant.MAX else Fraction(1)


@dataclass(frozen=True)
class _Reading:
    """One reading of conditions (i)-(iv); each scan lazily yields the
    violations of its condition, in order.  Int bounds: exact, and a
    Fraction compares with an int faster than with a Fraction."""

    entry: tuple[int, int]   # (i)   lo <= a_ij <= hi
    diagonal: int            # (ii)  a_ii = diagonal
    pair: int                # (iii) a_ij + a_ji = pair, i != j
    triple: tuple[int, int]  # (iv)  lo <= a_ij + a_jk + a_ki <= hi, i, j, k distinct

    def scan_i(self, ent):
        lo, hi = self.entry
        return ((i, j) for i, row in enumerate(ent) for j, c in enumerate(row) if not lo <= c <= hi)

    def scan_ii(self, ent):
        diag = self.diagonal
        return ((i,) for i, row in enumerate(ent) if row[i] != diag)

    def scan_iii(self, ent):
        pair, d = self.pair, len(ent)
        for i in range(d):
            for j in range(i + 1, d):
                if ent[i][j] + ent[j][i] != pair:
                    yield i, j

    def scan_iv(self, ent, indices=None, strict=False):
        """Cyclic triples of ``indices`` (default: all), each i < j < k in its two
        orders, as ((a, b, c), s) when the sum s leaves [lo, hi] ((lo, hi) if ``strict``)."""
        lo, hi = self.triple
        for i, j, k in combinations(range(len(ent)) if indices is None else indices, 3):
            for a, b, c in ((i, j, k), (i, k, j)):
                s = ent[a][b] + ent[b][c] + ent[c][a]
                if not (lo < s < hi if strict else lo <= s <= hi):
                    yield (a, b, c), s


_READINGS = {
    StandardVariant.MAX: _Reading(entry=(-1, 1), diagonal=1, pair=0, triple=(-1, 1)),
    StandardVariant.MIN: _Reading(entry=(0, 2), diagonal=0, pair=2, triple=(2, 4)),
}
_MIN_READING = _READINGS[StandardVariant.MIN]  # the near class and the sampler read this row


class Classification(Enum):
    ISODIAMETRIC = "isodiametric"
    NEITHER = "neither"


@dataclass(frozen=True)
class ConditionCheck:
    holds: bool
    violation: Optional[tuple[int, ...]] = None  # first violating index tuple


@dataclass(frozen=True)
class StandardForm:
    variant: StandardVariant
    matrix: TropMatrix
    trail: tuple[Move, ...]


@dataclass(frozen=True)
class IsoReport:
    variant: StandardVariant
    cond_i: ConditionCheck
    cond_ii: ConditionCheck
    cond_iii: ConditionCheck
    cond_iv: ConditionCheck
    strict_iv: bool
    tdiam: Fraction
    tvol: Fraction
    classification: Classification

    @property
    def all_conditions_hold(self) -> bool:
        return self.classification is Classification.ISODIAMETRIC


def apply_move(A: TropMatrix, move: Move) -> TropMatrix:
    kind, payload = move
    if kind == "row_perm":
        return A.permute(row_perm=payload)
    if kind == "col_perm":
        return A.permute(col_perm=payload)
    if kind == "row_offsets":
        return translate(A, payload, (Fraction(0),) * A.cols)
    if kind == "col_offsets":
        return translate(A, (Fraction(0),) * A.rows, payload)
    raise DomainError(f"unknown equivalence move {kind!r}")


def apply_trail(A: TropMatrix, trail: Sequence[Move]) -> TropMatrix:
    for move in trail:
        A = apply_move(A, move)
    return A


def _standard_shape(A: TropMatrix, variant: StandardVariant) -> bool:
    """Square, finite, over the variant's semiring, and the first row and
    column read corner, border, ..., border."""
    if not (A.is_square and A.is_finite and A.semiring is variant.semiring):
        return False
    first, border = A.entries[0], variant.border
    return first[0] == variant.corner and all(
        first[k] == border and A.entries[k][0] == border for k in range(1, A.rows))


def _trace(A: TropMatrix) -> Fraction:
    """Weight of the identity permutation."""
    return sum(A.entries[i][i] for i in range(A.rows))


def _standard_solve(A: TropMatrix, variant: StandardVariant) -> Optional[_Solution]:
    """The one assignment solve of A if A is standard, else None."""
    if not _standard_shape(A, variant):
        return None
    sol = _solve(A)
    return sol if sol.value(sol.total) == _trace(A) else None


def is_standard(A: TropMatrix, variant: StandardVariant) -> bool:
    """First row/column have the prescribed pattern and the identity is optimal."""
    return _standard_solve(A, variant) is not None


def to_standard(A: TropMatrix, variant: StandardVariant) -> StandardForm:
    """Equivalent standard matrix plus the trail of moves that produced it.

    Columns are permuted by the lexicographically smallest optimal
    permutation so the identity becomes optimal, then row offsets fix the
    first column and column offsets fix the first row.  Tropical diameter
    and tropical volume are preserved exactly.  One solve: the offsets shift
    every permutation alike, so the trace ends at the optimum plus their sum.
    """
    return _standard_form(A, variant, _standardizable_solve(A, variant))


def _standardizable_solve(A: TropMatrix, variant: StandardVariant) -> _Solution:
    """The assignment solve of A, once A is square, finite and over the
    variant's semiring."""
    require_square(A)
    require_finite(A)
    if A.semiring is not variant.semiring:
        raise DomainError(
            f"{variant.value}-standardization needs a {variant.semiring.value}-plus matrix"
        )
    return _solve(A)


def _standard_form(A: TropMatrix, variant: StandardVariant, sol: _Solution) -> StandardForm:
    """``to_standard`` given ``_standardizable_solve(A, variant)``."""
    d = A.rows
    sigma = next(_optima(sol))
    trail: list[Move] = [("col_perm", sigma)]
    B = A.permute(col_perm=sigma)

    corner, border = variant.corner, variant.border
    r0 = corner - B.entries[0][0]
    row_offsets = tuple(
        r0 if i == 0 else border - B.entries[i][0] for i in range(d)
    )
    trail.append(("row_offsets", row_offsets))
    B = translate(B, row_offsets, (Fraction(0),) * d)

    col_offsets = tuple(
        Fraction(0) if j == 0 else border - B.entries[0][j] for j in range(d)
    )
    trail.append(("col_offsets", col_offsets))
    B = translate(B, (Fraction(0),) * d, col_offsets)

    optimum = sol.value(sol.total) + sum(row_offsets) + sum(col_offsets)
    if not (_standard_shape(B, variant) and _trace(B) == optimum):  # pragma: no cover
        raise AssertionError("standardization produced a non-standard matrix")
    return StandardForm(variant, B, tuple(trail))


def _first(violations) -> ConditionCheck:
    """Holds iff ``violations`` is empty; else records the first one."""
    first = next(violations, None)
    return ConditionCheck(first is None, first)


def check_conditions(A: TropMatrix, variant: StandardVariant) -> IsoReport:
    """Exact evaluation of conditions (i)-(iv) on a standard matrix; one
    solve confirms that the identity is optimal, and its grid gives tvol and tdiam.
    They characterize tvol = tdiam at diameter 2 only: at another diameter,
    as on the min-plus 3x3 with every off-diagonal entry 1/2 (tvol = tdiam =
    1), tvol = tdiam is classified ``neither``."""
    require_square(A)
    require_finite(A)
    return _check(A, variant, _standard_solve(A, variant))


def standardize_and_check(A: TropMatrix, variant: StandardVariant) -> tuple[bool, IsoReport]:
    """Whether A had to be standardized first, and ``check_conditions`` of its
    standard form.  Any input costs one assignment solve: the standard form
    differs from A by a column permutation and row and column offsets, which
    leave tdiam and tvol as read off A's solve."""
    sol = _standardizable_solve(A, variant)
    if _standard_shape(A, variant) and sol.value(sol.total) == _trace(A):
        return False, _check(A, variant, sol)
    return True, _check(_standard_form(A, variant, sol).matrix, variant, sol)


def _check(A: TropMatrix, variant: StandardVariant, sol: Optional[_Solution]) -> IsoReport:
    """``check_conditions`` of a square finite A given ``_standard_solve(A, variant)``,
    or the solve of a matrix whose standard form A is."""
    if A.rows < 2:
        raise DomainError("condition system needs dimension >= 2")
    if sol is None:
        raise DomainError(f"matrix is not in {variant.value}-standard shape")
    r, ent = _READINGS[variant], A.entries
    lo, hi = r.triple
    touching = list(r.scan_iv(ent, strict=True))  # one pass decides (iv) and strict (iv)
    conds = (_first(r.scan_i(ent)), _first(r.scan_ii(ent)), _first(r.scan_iii(ent)),
             _first(abc for abc, s in touching if not lo <= s <= hi))
    iso = all(c.holds for c in conds)
    return IsoReport(variant, *conds, not touching, _diameter(sol.grid, sol.scale),
                     Fraction(_cheapest_cycle(sol), sol.scale),
                     Classification.ISODIAMETRIC if iso else Classification.NEITHER)


def converse_check(A: TropMatrix, variant: StandardVariant) -> bool:
    """Given that (i)-(iv) hold, test tdiam == 2 and tvol == 2 exactly.

    This must come out True for every conforming matrix; a False return is
    a disproof candidate and worth reporting together with the matrix.
    """
    report = check_conditions(A, variant)
    if not report.all_conditions_hold:
        raise DomainError("converse check requires conditions (i)-(iv) to hold")
    return report.tdiam == 2 and report.tvol == 2


def is_near_isodiametric(B: TropMatrix) -> bool:
    """Nonnegative, zero diagonal, opposite pairs sum to 2, triples in [2, 4]:
    the lower bound of (i), then (ii)-(iv) of the min reading, each scan
    stopping at its first violation.

    The upper bound of condition (i) is not required and the matrix need not
    be standard.
    """
    require_square(B)
    if not B.is_finite:
        return False
    r, ent = _MIN_READING, B.entries
    lo = r.entry[0]
    if any(c < lo for row in ent for c in row):
        return False
    return not (next(r.scan_ii(ent), None) or next(r.scan_iii(ent), None)
                or next(r.scan_iv(ent), None))


def free_parameter_count(d: int) -> int:
    """Dimension of the parameter polytope of isodiametric min-standard matrices."""
    if d < 2:
        raise DomainError("need dimension >= 2")
    return (d * d - 3 * d) // 2 + 1


def sample_isodiametric(d: int, seed: int, require_strict: bool = False,
                        max_attempts: int = 1_000_000) -> TropMatrix:
    """Random isodiametric min-standard matrix, deterministic under ``seed``.

    First row and column are all ones (zero corner), the diagonal is zero,
    and each free upper-triangle entry b_ij (i, j >= 2) is drawn uniformly
    from [0, 2] with b_ji = 2 - b_ij, rejection-resampled until the triple
    condition (iv) holds -- strictly when ``require_strict``.
    """
    if d < 3:
        raise DomainError("sampler needs dimension >= 3")
    rng = random.Random(seed)
    corner, border = StandardVariant.MIN.corner, StandardVariant.MIN.border
    pair = Fraction(_MIN_READING.pair)
    margin = 1 if require_strict else 0
    lo_num = _MIN_READING.entry[0] * _SAMPLER_SCALE + margin
    hi_num = _MIN_READING.entry[1] * _SAMPLER_SCALE - margin
    inner = range(1, d)  # indices outside the first row/column
    for _ in range(max_attempts):
        ent = [[corner] * d for _ in range(d)]
        for k in range(1, d):
            ent[0][k] = ent[k][0] = border
        for i, j in combinations(inner, 2):
            ent[i][j] = Fraction(rng.randint(lo_num, hi_num), _SAMPLER_SCALE)
            ent[j][i] = pair - ent[i][j]
        # a triple through index 0 sums to 2 + b_jk, inside (iv) by the draw range
        if next(_MIN_READING.scan_iv(ent, inner, require_strict), None) is None:
            return TropMatrix(Semiring.MIN, tuple(tuple(row) for row in ent))
    raise SamplerLimitError(
        f"no admissible sample within {max_attempts} attempts (d={d})"
    )


def negate_complement(A: TropMatrix) -> TropMatrix:
    """All-ones matrix minus A, with the semiring flipped.

    Maps max-standard matrices to min-standard ones and vice versa;
    applying it twice returns the original matrix.
    """
    require_square(A)
    require_finite(A)
    if not is_standard(A, StandardVariant(A.semiring.value)):
        raise DomainError("input must be max-standard or min-standard")
    target = Semiring.MIN if A.semiring is Semiring.MAX else Semiring.MAX
    one = Fraction(1)
    ent = tuple(tuple(one - c for c in row) for row in A.entries)
    return TropMatrix(target, ent)

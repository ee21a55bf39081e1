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

from .assignment import lex_optimal_permutation, solve_optimal, tvol
from .core import (
    Semiring,
    TropMatrix,
    require_finite,
    require_square,
    tdiam,
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
        """Value of the (1,1) entry in standard form."""
        return Fraction(1) if self is StandardVariant.MAX else Fraction(0)

    @property
    def border(self) -> Fraction:
        """Value of the remaining first-row/column entries in standard form."""
        return Fraction(0) if self is StandardVariant.MAX else Fraction(1)


class Classification(Enum):
    ISODIAMETRIC = "isodiametric"
    NEAR_ISODIAMETRIC = "near-isodiametric"
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
        return (self.cond_i.holds and self.cond_ii.holds
                and self.cond_iii.holds and self.cond_iv.holds)


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


def is_standard(A: TropMatrix, variant: StandardVariant) -> bool:
    """First row/column have the prescribed pattern and the identity is optimal."""
    if not A.is_square or not A.is_finite:
        return False
    if A.semiring is not variant.semiring:
        return False
    d = A.rows
    if A.entries[0][0] != variant.corner:
        return False
    for k in range(1, d):
        if A.entries[0][k] != variant.border or A.entries[k][0] != variant.border:
            return False
    value, _ = solve_optimal(A)
    ident = sum(A.entries[i][i] for i in range(d))
    return value == ident


def to_standard(A: TropMatrix, variant: StandardVariant) -> StandardForm:
    """Equivalent standard matrix plus the trail of moves that produced it.

    Columns are permuted by the lexicographically smallest optimal
    permutation so the identity becomes optimal, then row offsets fix the
    first column and column offsets fix the first row.  Tropical diameter
    and tropical volume are preserved exactly.
    """
    require_square(A)
    require_finite(A)
    if A.semiring is not variant.semiring:
        raise DomainError(
            f"{variant.value}-standardization needs a {variant.semiring.value}-plus matrix"
        )
    d = A.rows
    sigma = lex_optimal_permutation(A)
    trail: list[Move] = [("col_perm", sigma.images)]
    B = A.permute(col_perm=sigma.images)

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

    if not is_standard(B, variant):  # pragma: no cover - internal consistency
        raise AssertionError("standardization produced a non-standard matrix")
    return StandardForm(variant, B, tuple(trail))


def _triple_bounds(variant: StandardVariant) -> tuple[Fraction, Fraction]:
    if variant is StandardVariant.MAX:
        return Fraction(-1), Fraction(1)
    return Fraction(2), Fraction(4)


def _cyclic_triples(ent, indices):
    """Each triple i < j < k of ``indices`` in its two cyclic orders, with its sum."""
    for i, j, k in combinations(indices, 3):
        for a, b, c in ((i, j, k), (i, k, j)):
            yield (a, b, c), ent[a][b] + ent[b][c] + ent[c][a]


def _first(violations) -> ConditionCheck:
    """Holds iff ``violations`` is empty; else records the first one."""
    first = next(violations, None)
    return ConditionCheck(first is None, first)


def _scan_conditions(A: TropMatrix, variant: StandardVariant):
    """Evaluate conditions (i)-(iv) on the raw coefficients."""
    d = A.rows
    ent = A.entries
    lo_i, hi_i = (Fraction(-1), Fraction(1)) if variant is StandardVariant.MAX \
        else (Fraction(0), Fraction(2))
    diag = variant.corner
    pair_target = Fraction(0) if variant is StandardVariant.MAX else Fraction(2)
    lo_t, hi_t = _triple_bounds(variant)

    cond_i = _first((i, j) for i in range(d) for j in range(d)
                    if not lo_i <= ent[i][j] <= hi_i)
    cond_ii = _first((i,) for i in range(d) if ent[i][i] != diag)
    cond_iii = _first((i, j) for i in range(d) for j in range(i + 1, d)
                      if ent[i][j] + ent[j][i] != pair_target)
    triples = list(_cyclic_triples(ent, range(d)))
    cond_iv = _first(abc for abc, s in triples if not lo_t <= s <= hi_t)
    strict_iv = all(lo_t < s < hi_t for _, s in triples)
    return cond_i, cond_ii, cond_iii, cond_iv, strict_iv


def check_conditions(A: TropMatrix, variant: StandardVariant) -> IsoReport:
    """Exact evaluation of conditions (i)-(iv) on a standard matrix."""
    require_square(A)
    require_finite(A)
    if A.rows < 2:
        raise DomainError("condition system needs dimension >= 2")
    if not is_standard(A, variant):
        raise DomainError(f"matrix is not in {variant.value}-standard shape")
    cond_i, cond_ii, cond_iii, cond_iv, strict_iv = _scan_conditions(A, variant)

    diam = tdiam(A)
    vol = tvol(A)
    if cond_i.holds and cond_ii.holds and cond_iii.holds and cond_iv.holds:
        classification = Classification.ISODIAMETRIC
    elif (variant is StandardVariant.MIN
          and cond_ii.holds and cond_iii.holds and cond_iv.holds
          and all(c >= 0 for row in A.entries for c in row)):
        classification = Classification.NEAR_ISODIAMETRIC
    else:
        classification = Classification.NEITHER
    return IsoReport(variant, cond_i, cond_ii, cond_iii, cond_iv,
                     strict_iv, diam, vol, classification)


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
    """Nonnegative, zero diagonal, opposite pairs sum to 2, triples in [2, 4].

    The upper bound of condition (i) is not required and the matrix need not
    be standard.
    """
    require_square(B)
    if not B.is_finite:
        return False
    d = B.rows
    ent = B.entries
    if any(c < 0 for row in ent for c in row):
        return False
    if any(ent[i][i] != 0 for i in range(d)):
        return False
    for i in range(d):
        for j in range(i + 1, d):
            if ent[i][j] + ent[j][i] != 2:
                return False
    return all(2 <= s <= 4 for _, s in _cyclic_triples(ent, range(d)))


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
    one, two, four = Fraction(1), Fraction(2), Fraction(4)
    lo_num = 1 if require_strict else 0
    hi_num = 2 * _SAMPLER_SCALE - (1 if require_strict else 0)
    inner = range(1, d)  # indices outside the first row/column
    for _ in range(max_attempts):
        ent = [[Fraction(0)] * d for _ in range(d)]
        for k in range(1, d):
            ent[0][k] = ent[k][0] = one
        for i in inner:
            for j in inner:
                if i < j:
                    ent[i][j] = Fraction(rng.randint(lo_num, hi_num), _SAMPLER_SCALE)
                    ent[j][i] = two - ent[i][j]
        sums = (s for _, s in _cyclic_triples(ent, inner))
        if require_strict:
            ok = all(two < s < four for s in sums)
        else:
            ok = all(two <= s <= four for s in sums)
        if ok:
            return TropMatrix(Semiring.MIN, tuple(tuple(r) for r in ent))
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
    if is_standard(A, StandardVariant.MAX):
        target = Semiring.MIN
    elif is_standard(A, StandardVariant.MIN):
        target = Semiring.MAX
    else:
        raise DomainError("input must be max-standard or min-standard")
    one = Fraction(1)
    ent = tuple(tuple(one - c for c in row) for row in A.entries)
    return TropMatrix(target, ent)

"""Exact tropical (min-plus / max-plus) scalars, matrices and metric primitives.

Scalars are exact rationals (``fractions.Fraction``).  The neutral element of
tropical addition -- called *Bottom*: ``-inf`` for max-plus, ``+inf`` for
min-plus -- is represented by ``None``.  Bottom is neutral for tropical
addition and absorbing for tropical multiplication.

All matrices are immutable and every operation is a pure function, so values
can be shared freely between threads or processes.

Every layer builds its integer grids with ``_scaled`` here: cells times the
lcm of their denominators, Bottom kept as None.  ``tdiam`` runs on one too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Optional, Sequence

from .errors import BottomEntryError, DimensionError, DomainError, FormatError

Entry = Optional[Fraction]  # None encodes the semiring's Bottom element


def as_rational(value) -> Fraction:
    """Coerce ``value`` to an exact :class:`Fraction`.

    Strings use exact decimal semantics (``"0.1"`` -> 1/10, ``"5/4"`` -> 5/4)
    and must print back: a numerator or denominator longer than the
    interpreter's int-string digit limit is a :class:`FormatError`.  Floats
    convert to their exact binary value.
    """
    if isinstance(value, bool):
        raise FormatError(f"cannot interpret {value!r} as a rational number")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float, Rational)):
        try:
            return Fraction(value)
        except (OverflowError, ValueError) as exc:  # inf / nan floats
            raise FormatError(f"non-finite value {value!r}") from exc
    if isinstance(value, str):
        token = value.strip()
        exp = token.lower().partition("e")[2]
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        try:
            if limit and exp and abs(int(exp)) > limit:  # before 10**exp is built
                raise ValueError("exponent too large")
            q = Fraction(token)
            str(q.numerator), str(q.denominator)  # raise past the digit limit
            return q
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad rational token {value!r}") from exc
    raise FormatError(f"cannot interpret {value!r} as a rational number")


class Semiring(Enum):
    """The two tropical semirings: addition is min or max, product is +."""

    MIN = "min"
    MAX = "max"

    @property
    def bottom_token(self) -> str:
        """File token of the Bottom element (+inf for min, -inf for max)."""
        return "inf" if self is Semiring.MIN else "-inf"

    def combine(self, a: Entry, b: Entry) -> Entry:
        """Tropical addition; Bottom is neutral."""
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b) if self is Semiring.MIN else max(a, b)

    def times(self, a: Entry, b: Entry) -> Entry:
        """Tropical multiplication (ordinary +); Bottom is absorbing."""
        if a is None or b is None:
            return None
        return a + b

    def best(self, values: Iterable[Entry]) -> Entry:
        out: Entry = None
        for v in values:
            out = self.combine(out, v)
        return out


def _coerce_entry(value, semiring: Semiring) -> Entry:
    if value is None:
        return None
    if isinstance(value, str):
        token = value.strip()
        if token in ("inf", "+inf", "-inf"):
            if token.lstrip("+") == semiring.bottom_token.lstrip("+"):
                return None
            raise FormatError(
                f"token {token!r} is not an element of the {semiring.value}-plus semiring"
            )
    return as_rational(value)


@dataclass(frozen=True)
class TropMatrix:
    """Immutable matrix over a tropical semiring."""

    semiring: Semiring
    entries: tuple[tuple[Entry, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise DimensionError("matrix must have at least one row and column")
        width = len(self.entries[0])
        if any(len(row) != width for row in self.entries):
            raise DimensionError("ragged rows in matrix")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], semiring: Semiring) -> "TropMatrix":
        """Build a matrix, coercing cells to exact rationals / Bottom."""
        ent = tuple(
            tuple(_coerce_entry(cell, semiring) for cell in row) for row in rows
        )
        return cls(semiring, ent)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_finite(self) -> bool:
        return all(cell is not None for row in self.entries for cell in row)

    def row(self, i: int) -> tuple[Entry, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[Entry, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "TropMatrix":
        return TropMatrix(self.semiring, tuple(zip(*self.entries)))

    def permute(self, row_perm: Sequence[int] | None = None,
                col_perm: Sequence[int] | None = None) -> "TropMatrix":
        """Reorder rows/columns; ``perm[i]`` is the source index placed at ``i``."""
        rp = tuple(row_perm) if row_perm is not None else tuple(range(self.rows))
        cp = tuple(col_perm) if col_perm is not None else tuple(range(self.cols))
        if sorted(rp) != list(range(self.rows)) or sorted(cp) != list(range(self.cols)):
            raise DomainError("permutation images must be a bijection on indices")
        ent = tuple(tuple(self.entries[r][c] for c in cp) for r in rp)
        return TropMatrix(self.semiring, ent)

    def __str__(self) -> str:
        from .matio import format_scalar

        return "\n".join(
            " ".join(format_scalar(cell, self.semiring) for cell in row)
            for row in self.entries
        )


def trop_identity(d: int, semiring: Semiring) -> TropMatrix:
    """Tropical unit matrix: zero diagonal, Bottom elsewhere."""
    if d < 1:
        raise DimensionError("dimension must be positive")
    ent = tuple(
        tuple(Fraction(0) if i == j else None for j in range(d)) for i in range(d)
    )
    return TropMatrix(semiring, ent)


def require_square(A: TropMatrix) -> None:
    if not A.is_square:
        raise DimensionError(f"square matrix required, got {A.rows}x{A.cols}")


def require_finite(A: TropMatrix) -> None:
    if not A.is_finite:
        raise BottomEntryError("operation requires a matrix with finite entries")


def as_vector(values: Sequence) -> tuple[Fraction, ...]:
    """Coerce a sequence to a finite rational vector."""
    out = []
    for v in values:
        if v is None:
            raise BottomEntryError("vector entries must be finite")
        out.append(as_rational(v))
    if not out:
        raise DimensionError("vector must be nonempty")
    return tuple(out)


def tdist(v: Sequence, w: Sequence) -> Fraction:
    """Tropical distance: range of the coordinatewise difference.

    ``tdist(v, w) = max_i (v_i - w_i) - min_i (v_i - w_i)``.  Symmetric,
    nonnegative, and zero exactly when ``v - w`` is a constant vector; it is
    a metric on the quotient of R^d by the all-ones line.
    """
    vv, ww = as_vector(v), as_vector(w)
    if len(vv) != len(ww):
        raise DimensionError(f"length mismatch: {len(vv)} vs {len(ww)}")
    diffs = [a - b for a, b in zip(vv, ww)]
    return max(diffs) - min(diffs)


def _scaled(rows: Sequence[Sequence], sign: int = 1) -> tuple[list[list[Optional[int]]], int]:
    """(grid, scale): ``sign`` times the cells times the lcm of their
    denominators, Bottom kept as None; the rows may differ in length."""
    dens = {cell.denominator for row in rows for cell in row if cell is not None}
    scale = math.lcm(*dens)
    factor = {q: sign * (scale // q) for q in dens}
    grid = [
        [None if cell is None else cell.numerator * factor[cell.denominator] for cell in row]
        for row in rows
    ]
    return grid, scale


def _scaled_grid(A: TropMatrix) -> tuple[list[list[Optional[int]]], int, int]:
    """(grid, scale, sign): A times the common denominator, negated for max-plus."""
    sign = -1 if A.semiring is Semiring.MAX else 1
    return (*_scaled(A.entries, sign), sign)


def _diameter(grid: list[list[int]], scale: int) -> Fraction:
    """tdiam of a finite square grid over ``scale``, negated or not."""
    best = 0
    for i, v in enumerate(grid):
        for w in grid[i + 1:]:
            diffs = [a - b for a, b in zip(v, w)]
            best = max(best, max(diffs) - min(diffs))
    return Fraction(best, scale)


def tdiam(A: TropMatrix) -> Fraction:
    """Tropical diameter: largest pairwise tropical distance between rows."""
    require_square(A)
    require_finite(A)
    return _diameter(*_scaled(A.entries))


def trop_add(A: TropMatrix, B: TropMatrix) -> TropMatrix:
    """Entrywise tropical addition (min or max per the shared semiring)."""
    if A.semiring is not B.semiring:
        raise DomainError("semiring mismatch in tropical addition")
    if A.shape != B.shape:
        raise DimensionError(f"shape mismatch: {A.shape} vs {B.shape}")
    sr = A.semiring
    ent = tuple(
        tuple(sr.combine(a, b) for a, b in zip(ra, rb))
        for ra, rb in zip(A.entries, B.entries)
    )
    return TropMatrix(sr, ent)


def trop_mat_mul(A: TropMatrix, B: TropMatrix) -> TropMatrix:
    """Tropical matrix product: ``C_ij = (+)_k (A_ik + B_kj)``."""
    if A.semiring is not B.semiring:
        raise DomainError("semiring mismatch in tropical product")
    if A.cols != B.rows:
        raise DimensionError(
            f"inner dimensions disagree: {A.shape} times {B.shape}"
        )
    sr = A.semiring
    bt = B.transpose().entries
    ent = tuple(
        tuple(
            sr.best(sr.times(a, b) for a, b in zip(row, colb))
            for colb in bt
        )
        for row in A.entries
    )
    return TropMatrix(sr, ent)


def translate(A: TropMatrix, row_offsets: Sequence, col_offsets: Sequence) -> TropMatrix:
    """Add ``row_offsets[i] + col_offsets[j]`` to entry (i, j).

    Translations preserve the tropical diameter and the tropical volume.
    """
    r = as_vector(row_offsets)
    c = as_vector(col_offsets)
    if len(r) != A.rows or len(c) != A.cols:
        raise DimensionError(
            f"offset lengths {len(r)},{len(c)} do not match shape {A.shape}"
        )
    ent = tuple(
        tuple(None if cell is None else cell + r[i] + c[j]
              for j, cell in enumerate(row))
        for i, row in enumerate(A.entries)
    )
    return TropMatrix(A.semiring, ent)

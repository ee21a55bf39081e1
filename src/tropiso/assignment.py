"""Optimal-assignment machinery for square tropical matrices.

Provides the tropical determinant (best assignment value), enumeration of
all optimal permutations, the second-best assignment value, the tropical
volume (gap between best and second best), and parity analysis of the set
of optimal permutations.

The solver is a shortest-augmenting-path Hungarian method run on the integer
grid of ``core._scaled_grid``: every comparison is exact and knife-edge ties
are preserved.  Bottom entries are excluded arcs (forbidden assignment
cells).  Duals are updated lazily, once per augmentation (Jonker & Volgenant
1987), and each step scans only the free columns, ascending, with strict
tie-breaks; the augmentations, and so the optimum, the duals and every
witness, are those of the eager method that updates every column each step.

Every quantity reads one solve and its duals u, v: a permutation costs the
optimum plus its reduced costs g_ij - u_i - v_j >= 0, so the optima are the
perfect matchings on tight (zero) cells and the second best adds the cheapest
reduced-cost cycle, found by a Dijkstra search from each row that stops at
the best cycle so far (Burkard, Dell'Amico & Martello, *Assignment Problems*).
One lazy walk over the tight matchings, which never enters a prefix that
cannot be completed, yields the optima in lex order: its first is the
lex-smallest optimum, and enumeration and parity read it as far as they need.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from heapq import heappop, heappush
from itertools import islice
from typing import Iterator, NamedTuple, Optional

from .core import Entry, TropMatrix, _scaled_grid, require_finite, require_square
from .errors import DimensionError, DomainError

DEFAULT_CAP = 10_000


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, ..., d-1} given by its tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise DomainError(f"not a permutation: {self.images}")

    def __len__(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(tuple(range(d)))

    @property
    def parity(self) -> int:
        """+1 for even, -1 for odd (sign of the permutation)."""
        seen = [False] * len(self.images)
        cycles = 0
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = self.images[j]
        return 1 if (len(self.images) - cycles) % 2 == 0 else -1

    def weight_of(self, A: TropMatrix) -> Entry:
        """Assignment weight sum a[i, images[i]]; Bottom if any cell is Bottom."""
        if len(self.images) != A.rows or not A.is_square:
            raise DimensionError("permutation length does not match matrix")
        total = Fraction(0)
        for i, j in enumerate(self.images):
            cell = A.entries[i][j]
            if cell is None:
                return None
            total += cell
        return total


class _Solution(NamedTuple):
    """An optimum of ``grid`` (the matrix times ``scale``, negated for max-plus,
    None cells forbidden) with duals: g_ij - u_i - v_j >= 0 on every allowed
    cell, with equality on the optimum ``images``."""

    grid: list[list[Optional[int]]]
    scale: int
    sign: int
    total: int
    images: tuple[int, ...]
    u: list[int]
    v: list[int]

    def value(self, total: int) -> Fraction:
        """The tropical value of a grid total."""
        return Fraction(self.sign * total, self.scale)

    def tight_columns(self) -> list[list[int]]:
        """Per row, the ascending columns of zero reduced cost."""
        u, v = self.u, self.v
        return [[j for j, g in enumerate(row) if g is not None and g - u[i] == v[j]]
                for i, row in enumerate(self.grid)]


def _hungarian_min(grid: list[list[Optional[int]]]):
    """Min-cost perfect matching on an integer grid; None cells are forbidden.

    Returns (total cost, images, u, v) or None when no perfect matching exists.
    Shortest augmenting paths with dual potentials u, v; exact throughout.
    ``minv`` is offset by ``shift``, the sum of the phase's steps so far, and
    the tree's duals move once, when the phase ends.
    """
    n = len(grid)
    u = [0] * n
    v = [0] * n
    match = [-1] * n  # the row of each column
    cols = range(n)
    for i in range(n):
        free = [*cols]      # the columns off the tree, ascending
        minv = [None] * n   # least reduced cost into each column, plus shift
        way = [-1] * n      # the tree column before each column; -1 is row i
        used = []
        i0, j0, shift = i, -1, 0
        while True:
            row, h = grid[i0], u[i0] - shift
            best = None
            for j in free:
                c = row[j]
                m = minv[j]
                if c is not None:
                    c -= h + v[j]
                    if m is None or c < m:
                        minv[j] = m = c
                        way[j] = j0
                elif m is None:
                    continue
                if best is None or m < best:
                    best, j1 = m, j
            if best is None:
                return None  # some row set cannot be matched
            if match[j1] == -1:
                break
            free.remove(j1)
            used.append(j1)
            i0, j0, shift = match[j1], j1, best
        u[i] += best
        for j in used:
            t = best - minv[j]
            u[match[j]] += t
            v[j] -= t
        k = way[j1]
        while k != -1:
            match[j1] = match[k]
            j1, k = k, way[k]
        match[j1] = i
    images = [0] * n
    for j, r in enumerate(match):
        images[r] = j
    return sum(grid[r][images[r]] for r in range(n)), tuple(images), u, v


def _solve_grid(grid: list, scale: int, sign: int) -> Optional[_Solution]:
    """Solve a square grid (or a slice of one) once; None if infeasible."""
    res = _hungarian_min(grid)
    return None if res is None else _Solution(grid, scale, sign, *res)


def _solve(A: TropMatrix) -> Optional[_Solution]:
    """Scale A to integers, negate it for max-plus, solve once; None if infeasible."""
    require_square(A)
    return _solve_grid(*_scaled_grid(A))


def _cheapest_cycle(sol: _Solution) -> int:
    """Least extra cost of a permutation other than the optimum (finite, d >= 2).

    Any other permutation is the optimum with disjoint cycles swapped in,
    and costs the optimum plus their reduced costs, all >= 0.  So the
    runner-up swaps in one cheapest cycle of the digraph on rows with arcs
    i -> k of weight r[i][images[k]], k != i.  Each cycle is found from its
    smallest row s: Dijkstra from s over the rows > s closes a cycle at each
    settled row x by the arc x -> s, and stops once the popped distance plus
    the cheapest arc into s reaches the best cycle so far, which starts at
    the cheapest 2-cycle (Orlin & Sedeno-Noda, 2017).  Exact integers only.
    """
    g, u, v, img = sol.grid, sol.u, sol.v, sol.images
    d = len(img)
    r = [[row[j] - ui - v[j] for j in img] for row, ui in zip(g, u)]
    best = min(r[i][k] + r[k][i] for i in range(d) for k in range(i + 1, d))
    for s in range(d - 2):  # a cycle whose smallest row is d-2 is a 2-cycle
        if best == 0:
            break
        into = min(r[x][s] for x in range(s + 1, d))
        heap, done = [(0, s)], [False] * d
        while heap:
            dx, x = heappop(heap)
            if dx + into >= best:
                break
            if done[x]:
                continue
            done[x] = True
            if x != s:
                best = min(best, dx + r[x][s])
            rx, lim = r[x], best - into - dx
            for y in range(s + 1, d):
                if rx[y] < lim and not done[y]:
                    heappush(heap, (dx + rx[y], y))
    return best


def _unique_optimum(sol: _Solution) -> bool:
    """Is the optimum unique?  Another one swaps in disjoint zero reduced-cost
    cycles, so iff the tight digraph on rows, arcs i -> k != i where
    r[i][images[k]] = 0, is acyclic: peeling off sinks removes every row.
    """
    owner = {j: k for k, j in enumerate(sol.images)}
    preds: list[list[int]] = [[] for _ in sol.images]
    outdeg = [0] * len(sol.images)
    for i, cols in enumerate(sol.tight_columns()):
        for j in cols:
            if owner[j] != i:
                preds[owner[j]].append(i)
                outdeg[i] += 1
    sinks = [i for i, n in enumerate(outdeg) if n == 0]
    for k in sinks:  # grows while it is walked
        for i in preds[k]:
            outdeg[i] -= 1
            if outdeg[i] == 0:
                sinks.append(i)
    return len(sinks) == len(outdeg)


def _reroute(tight, match, owner, i: int, c: int) -> bool:
    """Give column c to row i, moving c's row onto match[i] along one
    alternating tight path through rows > i; False when there is none."""
    free = match[i]
    prev = {owner[c]: None}
    stack = [owner[c]]
    while stack:
        r = stack.pop()
        for j in tight[r]:
            if j == free:
                while r is not None:  # each row on the path takes the next column
                    match[r], j = j, match[r]
                    owner[match[r]] = r
                    r = prev[r]
                match[i], owner[c] = c, i
                return True
            s = owner[j]
            if s > i and s not in prev:
                prev[s] = r
                stack.append(s)
    return False


def _optima(sol: Optional[_Solution]) -> Iterator[tuple[int, ...]]:
    """Lazily yield the images of every optimum, in lexicographic order.

    The optima are exactly the perfect matchings on zero reduced-cost cells.
    The walk keeps one such matching that extends the current prefix; row i
    takes tight column c only if c is its column there or ``_reroute`` frees
    c through the rows > i.  So every branch reaches an optimum and the
    first one yielded is the lex-smallest (Fukuda & Matsui 1994; Uno 1997).
    """
    if sol is None:
        return
    tight = sol.tight_columns()
    d = len(tight)
    match = list(sol.images)
    owner = [0] * d
    for i, j in enumerate(match):
        owner[j] = i
    stack = [iter(tight[0])]  # the untried tight columns of each prefix row
    while stack:
        i = len(stack) - 1
        for c in stack[i]:
            if c == match[i] or (owner[c] > i and _reroute(tight, match, owner, i, c)):
                break
        else:
            stack.pop()
            continue
        if i + 1 < d:
            stack.append(iter(tight[i + 1]))
        else:
            yield tuple(match)


def solve_optimal(A: TropMatrix) -> tuple[Entry, Optional[Permutation]]:
    """Best assignment value and one witness permutation.

    Minimizes in min-plus, maximizes in max-plus.  Returns (Bottom, None)
    when every permutation hits a Bottom cell.
    """
    sol = _solve(A)
    if sol is None:
        return None, None
    return sol.value(sol.total), Permutation(sol.images)


def tdet(A: TropMatrix) -> tuple[Entry, Optional[Permutation]]:
    """Tropical determinant: optimal assignment value plus a witness."""
    return solve_optimal(A)


def lex_optimal_permutation(A: TropMatrix) -> Optional[Permutation]:
    """Lexicographically smallest permutation attaining the tropical determinant.

    The first optimum of the tight-graph walk of one solve: each row keeps
    its smallest zero reduced-cost column that still extends to a perfect
    matching.
    """
    sol = _solve(A)
    return None if sol is None else Permutation(next(_optima(sol)))


def enumerate_optima(A: TropMatrix, cap: int = DEFAULT_CAP) -> tuple[list[Permutation], bool]:
    """All permutations attaining the tropical determinant, in lex order.

    Returns (permutations, truncated); at most ``cap`` permutations are
    collected, and ``truncated`` is True whenever ``cap`` of them were, even
    when no further optimum exists.
    """
    if cap < 1:
        raise DomainError("cap must be positive")
    found = [Permutation(images) for images in islice(_optima(_solve(A)), cap)]
    return found, len(found) == cap


def _finite_solve(A: TropMatrix, what: str) -> _Solution:
    require_square(A)
    require_finite(A)
    if A.rows < 2:
        raise DomainError(f"{what} needs dimension >= 2")
    return _solve(A)


def second_best(A: TropMatrix) -> Fraction:
    """Best assignment value over all permutations other than the optimum.

    The optimum plus the cheapest reduced-cost cycle of one solve, found by
    the cut-off Dijkstra search of ``_cheapest_cycle``; with multiple optima
    that cycle costs 0 and this equals the optimal value.
    """
    sol = _finite_solve(A, "second-best value")
    return sol.value(sol.total + _cheapest_cycle(sol))


def tvol(A: TropMatrix) -> Fraction:
    """Tropical volume |tdet - second best|: the cheapest reduced-cost cycle.

    Zero exactly when at least two distinct optimal permutations exist
    (tropical singularity); invariant under transposition, row/column
    permutations and translations.
    """
    sol = _finite_solve(A, "tropical volume")
    return Fraction(_cheapest_cycle(sol), sol.scale)


@dataclass(frozen=True)
class AssignmentCertificate:
    """Summary of the assignment landscape of a finite square matrix."""

    best_value: Fraction
    best_perm: Permutation
    second_value: Fraction
    tvol: Fraction
    optimum_unique: bool


def certificate(A: TropMatrix) -> AssignmentCertificate:
    """Best value, lex-smallest optimum, second best value, tropical volume and
    uniqueness of a finite square matrix (d >= 2), all from one solve."""
    sol = _finite_solve(A, "certificate")
    gap = _cheapest_cycle(sol)
    return AssignmentCertificate(
        sol.value(sol.total), Permutation(next(_optima(sol))),
        sol.value(sol.total + gap), Fraction(gap, sol.scale), gap > 0,
    )


class ParityVerdict(Enum):
    SAME = "same-parity"
    MIXED = "mixed-parity"
    UNKNOWN = "unknown"


class ParityMethod(Enum):
    UNIQUENESS_SHORTCUT = "uniqueness-shortcut"
    FULL_ENUMERATION = "full-enumeration"
    CAPPED = "capped"


@dataclass(frozen=True)
class ParityReport:
    """Do all optimal permutations share one parity?

    ``verdict`` is UNKNOWN when ``cap`` optima of one parity were enumerated,
    even if no further optimum exists.
    ``witness`` carries an opposite-parity pair on a MIXED verdict;
    ``selection`` names the submatrix (column or row subset) a verdict came
    from when the report was produced by a sign-genericity scan.
    """

    verdict: ParityVerdict
    enumerated_count: int
    method: ParityMethod
    witness: Optional[tuple[Permutation, Permutation]] = None
    selection: Optional[tuple[int, ...]] = None


def parity_report(A: TropMatrix, cap: int = DEFAULT_CAP) -> ParityReport:
    """Parity analysis of the optimal permutations of a square matrix.

    A finite matrix (d >= 2) whose tight digraph is acyclic has a unique
    optimum and short-circuits to SAME; otherwise the optima are enumerated,
    stopping as soon as both parities have been seen (MIXED) or ``cap`` optima
    of one parity have been (UNKNOWN, whether or not more remain).
    """
    require_square(A)
    return _parity(_solve(A), A.is_finite, cap)


def _parity(sol: Optional[_Solution], finite: bool, cap: int) -> ParityReport:
    """Parity analysis of one solve; ``finite`` says its grid has no Bottom cell."""
    if cap < 1:
        raise DomainError("cap must be positive")
    if finite and len(sol.images) >= 2 and _unique_optimum(sol):
        return ParityReport(ParityVerdict.SAME, 1, ParityMethod.UNIQUENESS_SHORTCUT)

    first: dict[int, Permutation] = {}
    count = 0
    for count, images in enumerate(_optima(sol), 1):
        p = Permutation(images)
        first.setdefault(p.parity, p)
        if len(first) == 2:
            return ParityReport(
                ParityVerdict.MIXED, count, ParityMethod.FULL_ENUMERATION,
                witness=(first[1], first[-1]),
            )
        if count == cap:
            return ParityReport(ParityVerdict.UNKNOWN, count, ParityMethod.CAPPED)
    return ParityReport(ParityVerdict.SAME, count, ParityMethod.FULL_ENUMERATION)

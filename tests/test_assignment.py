import random
from fractions import Fraction

import pytest

import tropiso.assignment as assignment
from conftest import (
    brute_assignment_values,
    brute_cheapest_cycle,
    brute_optima,
    brute_tvol,
    check_dual_certificate,
    dfs_optima,
    family3,
    random_finite,
    random_with_bottom,
    reference_hungarian_min,
    scaled_grid,
    unit_matrix,
)
from tropiso import (
    DomainError,
    ParityMethod,
    ParityReport,
    ParityVerdict,
    Permutation,
    Semiring,
    TropMatrix,
    certificate,
    enumerate_optima,
    lex_optimal_permutation,
    parity_report,
    second_best,
    tdet,
    tvol,
)


# the identity and the 3-cycle (1, 2, 0) are the only optima: both even
TWO_EVEN_OPTIMA = TropMatrix.from_rows([[0, 0, -9], [-9, 0, 0], [0, -9, 0]], Semiring.MAX)


class TestPermutation:
    def test_parity(self):
        assert Permutation((0, 1, 2)).parity == 1
        assert Permutation((1, 0, 2)).parity == -1
        assert Permutation((1, 2, 0)).parity == 1

    def test_weight_of(self):
        A = unit_matrix(3, Semiring.MAX)
        assert Permutation.identity(3).weight_of(A) == 3
        assert Permutation((1, 0, 2)).weight_of(A) == 1

    def test_invalid_images(self):
        with pytest.raises(DomainError):
            Permutation((0, 0, 1))


class TestTdet:
    def test_unit_matrix(self):
        value, perm = tdet(unit_matrix(3, Semiring.MAX))
        assert value == 3 and perm.images == (0, 1, 2)

    def test_family_min(self):
        value, perm = tdet(family3(1))
        assert value == 0 and perm.images == (0, 1, 2)

    def test_infeasible_is_bottom(self):
        A = TropMatrix.from_rows([[0, "-inf"], ["-inf", "-inf"]], Semiring.MAX)
        value, perm = tdet(A)
        assert value is None and perm is None

    def test_against_brute_force_random(self):
        rng = random.Random(42)
        for _ in range(200):
            d = rng.randint(1, 5)
            sr = rng.choice([Semiring.MIN, Semiring.MAX])
            A = random_with_bottom(rng, d, d, sr, p_bottom=0.2)
            value, perm = tdet(A)
            best, _ = brute_assignment_values(A)
            assert value == best
            if perm is not None:
                assert perm.weight_of(A) == value

    def test_max_min_negation_duality(self):
        rng = random.Random(9)
        for _ in range(50):
            d = rng.randint(2, 5)
            A = random_finite(rng, d, d, Semiring.MAX)
            negated = TropMatrix(
                Semiring.MIN, tuple(tuple(-c for c in row) for row in A.entries)
            )
            assert tdet(A)[0] == -tdet(negated)[0]


class TestEnumerateOptima:
    def test_all_zero_total_symmetry(self):
        A = TropMatrix.from_rows([[0] * 3] * 3, Semiring.MAX)
        perms, truncated = enumerate_optima(A)
        assert len(perms) == 6 and not truncated

    def test_unit_matrix_unique(self):
        perms, truncated = enumerate_optima(unit_matrix(3, Semiring.MAX))
        assert [p.images for p in perms] == [(0, 1, 2)] and not truncated

    def test_family_endpoint_unique(self):
        perms, truncated = enumerate_optima(family3(0))
        assert [p.images for p in perms] == [(0, 1, 2)] and not truncated

    def test_cap_truncates(self):
        A = TropMatrix.from_rows([[0] * 4] * 4, Semiring.MAX)
        perms, truncated = enumerate_optima(A, cap=5)
        assert len(perms) == 5 and truncated

    def test_cap_reached_reads_truncated(self):
        # truncated means "cap optima were collected", even when none remain
        zero = TropMatrix.from_rows([[0] * 3] * 3, Semiring.MAX)
        perms, truncated = enumerate_optima(zero, cap=6)
        assert len(perms) == 6 and truncated
        perms, truncated = enumerate_optima(unit_matrix(3, Semiring.MAX), cap=1)
        assert [p.images for p in perms] == [(0, 1, 2)] and truncated
        assert enumerate_optima(TWO_EVEN_OPTIMA, cap=2)[1]
        assert not enumerate_optima(TWO_EVEN_OPTIMA, cap=3)[1]

    def test_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(150):
            d = rng.randint(1, 4)
            sr = rng.choice([Semiring.MIN, Semiring.MAX])
            A = random_with_bottom(rng, d, d, sr, p_bottom=0.2, lo=-2, hi=2)
            perms, truncated = enumerate_optima(A)
            assert not truncated
            assert [p.images for p in perms] == brute_optima(A)


class TestSecondBest:
    def test_unit_matrix(self):
        assert second_best(unit_matrix(3, Semiring.MAX)) == 1

    def test_family(self):
        assert second_best(family3(1)) == 2

    def test_two_by_two(self):
        A = TropMatrix.from_rows([[0, 0], [0, 1]], Semiring.MAX)
        assert second_best(A) == 0

    def test_dimension_one_rejected(self):
        with pytest.raises(DomainError):
            second_best(TropMatrix.from_rows([[0]], Semiring.MAX))

    def test_oracle_agreement(self):
        rng = random.Random(77)
        for _ in range(300):
            d = rng.randint(2, 7)
            sr = rng.choice([Semiring.MIN, Semiring.MAX])
            A = random_finite(rng, d, d, sr, lo=-3, hi=3, den=3)
            _, oracle_second = brute_assignment_values(A)
            assert second_best(A) == oracle_second

    def test_sign_invariant(self):
        # best is never beaten by the runner-up, in either orientation
        rng = random.Random(8)
        for _ in range(50):
            d = rng.randint(2, 5)
            A = random_finite(rng, d, d, Semiring.MAX)
            assert tdet(A)[0] >= second_best(A)
            B = random_finite(rng, d, d, Semiring.MIN)
            assert tdet(B)[0] <= second_best(B)


class TestTvol:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_unit_matrix(self, d):
        assert tvol(unit_matrix(d, Semiring.MAX)) == 2

    def test_two_by_two_equals_diameter(self):
        from tropiso import tdiam

        A = TropMatrix.from_rows([[0, 0], [0, 1]], Semiring.MAX)
        assert tvol(A) == 1 == tdiam(A)

    def test_two_by_two_diameter_agreement_random(self):
        from tropiso import tdiam

        rng = random.Random(21)
        for _ in range(60):
            A = random_finite(rng, 2, 2, rng.choice([Semiring.MIN, Semiring.MAX]))
            assert tvol(A) == tdiam(A)

    @pytest.mark.parametrize("lam", [0, Fraction(1, 2), 1, Fraction(3, 2), 2])
    def test_family(self, lam):
        assert tvol(family3(lam)) == 2

    def test_invariances(self):
        rng = random.Random(4)
        for _ in range(40):
            d = rng.randint(2, 6)
            sr = rng.choice([Semiring.MIN, Semiring.MAX])
            A = random_finite(rng, d, d, sr)
            v = tvol(A)
            assert v == brute_tvol(A)
            assert tvol(A.transpose()) == v
            perm = list(range(d))
            rng.shuffle(perm)
            assert tvol(A.permute(row_perm=perm)) == v
            assert tvol(A.permute(col_perm=perm)) == v

    def test_zero_iff_multiple_optima(self):
        rng = random.Random(15)
        for _ in range(120):
            d = rng.randint(2, 5)
            sr = rng.choice([Semiring.MIN, Semiring.MAX])
            A = random_finite(rng, d, d, sr, lo=-2, hi=2, den=2)
            assert (tvol(A) == 0) == (len(brute_optima(A)) >= 2)


class TestCertificate:
    def test_fields(self):
        cert = certificate(unit_matrix(3, Semiring.MAX))
        assert cert.best_value == 3
        assert cert.best_perm.images == (0, 1, 2)
        assert cert.second_value == 1
        assert cert.tvol == 2
        assert cert.optimum_unique

    def test_ordering_invariant(self):
        rng = random.Random(31)
        for _ in range(30):
            d = rng.randint(2, 4)
            A = random_finite(rng, d, d, Semiring.MAX)
            cert = certificate(A)
            assert cert.best_value >= cert.second_value
            assert cert.tvol == abs(cert.best_value - cert.second_value)
            assert cert.optimum_unique == (cert.tvol > 0)


class TestLexOptimal:
    def test_identity_shortcut(self):
        assert lex_optimal_permutation(family3(1)).images == (0, 1, 2)

    def test_lex_minimal_among_optima(self):
        rng = random.Random(19)
        for _ in range(80):
            d = rng.randint(2, 4)
            sr = rng.choice([Semiring.MIN, Semiring.MAX])
            A = random_finite(rng, d, d, sr, lo=-1, hi=1, den=1)
            assert lex_optimal_permutation(A).images == brute_optima(A)[0]


class TestParityReport:
    def test_unique_optimum_shortcut(self):
        rep = parity_report(unit_matrix(3, Semiring.MAX))
        assert rep.verdict is ParityVerdict.SAME
        assert rep.method is ParityMethod.UNIQUENESS_SHORTCUT

    def test_zero_matrices_mixed(self):
        for d in (2, 3):
            A = TropMatrix.from_rows([[0] * d] * d, Semiring.MAX)
            rep = parity_report(A)
            assert rep.verdict is ParityVerdict.MIXED
            a, b = rep.witness
            assert a.parity != b.parity

    def test_capped_unknown(self):
        A = TropMatrix.from_rows([[0] * 7] * 7, Semiring.MAX)
        rep = parity_report(A, cap=1)
        assert rep.verdict in (ParityVerdict.UNKNOWN, ParityVerdict.MIXED)
        # with cap=1 the walk stops before seeing a second parity
        assert rep.verdict is ParityVerdict.UNKNOWN
        assert rep.method is ParityMethod.CAPPED

    def test_cap_reached_reads_unknown(self):
        # UNKNOWN means "cap optima of one parity were enumerated", even when
        # none remain; the shortcut settles a unique finite optimum first
        assert parity_report(TWO_EVEN_OPTIMA, cap=2) == \
            ParityReport(ParityVerdict.UNKNOWN, 2, ParityMethod.CAPPED)
        assert parity_report(TWO_EVEN_OPTIMA, cap=3) == \
            ParityReport(ParityVerdict.SAME, 2, ParityMethod.FULL_ENUMERATION)
        one = TropMatrix.from_rows([[0, "-inf"], ["-inf", 0]], Semiring.MAX)
        assert parity_report(one, cap=1) == \
            ParityReport(ParityVerdict.UNKNOWN, 1, ParityMethod.CAPPED)
        assert parity_report(unit_matrix(3, Semiring.MAX), cap=1).verdict is ParityVerdict.SAME

    def test_bottom_matrix_enumeration(self):
        A = TropMatrix.from_rows([[0, "-inf"], ["-inf", 0]], Semiring.MAX)
        rep = parity_report(A)
        assert rep.verdict is ParityVerdict.SAME
        assert rep.enumerated_count == 1

    def test_matches_brute_force(self):
        rng = random.Random(55)
        for _ in range(150):
            d = rng.randint(2, 4)
            sr = rng.choice([Semiring.MIN, Semiring.MAX])
            A = random_with_bottom(rng, d, d, sr, p_bottom=0.2, lo=-1, hi=1)
            rep = parity_report(A)
            optima = brute_optima(A)
            parities = {Permutation(p).parity for p in optima}
            expected = ParityVerdict.MIXED if len(parities) == 2 else ParityVerdict.SAME
            assert rep.verdict is expected


class TestUniqueOptimum:
    """The O(d^2) acyclicity test on the tight digraph decides uniqueness."""

    def test_matches_cheapest_cycle_on_finite(self):
        rng = random.Random(77)
        seen = set()
        for d in range(2, 8):
            for _ in range(30):
                sr = rng.choice([Semiring.MIN, Semiring.MAX])
                A = random_finite(rng, d, d, sr, lo=0, hi=rng.choice([1, 2, 6]), den=1)
                sol = assignment._solve(A)
                unique = assignment._unique_optimum(sol)
                assert unique == (assignment._cheapest_cycle(sol) > 0), A
                seen.add(unique)
        assert seen == {True, False}

    def test_matches_brute_optima_with_bottom(self):
        rng = random.Random(78)
        seen = set()
        for d in range(1, 7):
            for _ in range(30):
                A = random_with_bottom(rng, d, d, Semiring.MAX, p_bottom=0.3, lo=0, hi=2)
                sol = assignment._solve(A)
                if sol is None:
                    assert brute_optima(A) == []
                    continue
                unique = assignment._unique_optimum(sol)
                assert unique == (len(brute_optima(A)) == 1), A
                seen.add(unique)
        assert seen == {True, False}

    def test_shortcut_label_only_on_finite_d2(self):
        for A in _oracle_inputs(80, per_case=3):
            rep = parity_report(A)
            shortcut = A.is_finite and A.rows >= 2 and len(brute_optima(A)) == 1
            assert (rep.method is ParityMethod.UNIQUENESS_SHORTCUT) == shortcut, A
            if shortcut:
                assert (rep.verdict, rep.enumerated_count) == (ParityVerdict.SAME, 1)


def _costs(d: int, cheap, dear, arcs) -> list[list]:
    """Min-plus costs: 0 on the diagonal, ``cheap`` on ``arcs``, ``dear`` elsewhere."""
    rows = [[0 if i == j else dear for j in range(d)] for i in range(d)]
    for i, j in arcs:
        rows[i][j] = cheap
    return rows


def _both_semirings(rows: list[list]) -> list[TropMatrix]:
    """The min-plus matrix and its negation in max-plus: the same cycles."""
    return [TropMatrix.from_rows(rows, Semiring.MIN),
            TropMatrix.from_rows([[-c for c in row] for row in rows], Semiring.MAX)]


class TestCheapestCycle:
    """The cut-off Dijkstra search against the Floyd-Warshall oracle."""

    @staticmethod
    def _check(A: TropMatrix) -> int:
        sol = assignment._solve(A)
        gap = assignment._cheapest_cycle(sol)
        assert gap == brute_cheapest_cycle(sol), A
        return gap

    def test_random_finite_d2_to_40(self):
        rng = random.Random(2017)
        zero = positive = 0
        for d in range(2, 41):
            for sr in (Semiring.MIN, Semiring.MAX):
                den = rng.randint(1, 6)
                for A in (random_finite(rng, d, d, sr, lo=-9, hi=9, den=den),
                          random_finite(rng, d, d, sr, lo=0, hi=2, den=1),
                          random_finite(rng, d, d, sr, lo=0, hi=10**6, den=1)):
                    gap = self._check(A)
                    zero += gap == 0
                    positive += gap > 0
        assert zero and positive

    @pytest.mark.parametrize("semiring", [Semiring.MAX, Semiring.MIN])
    def test_entries_beyond_float_range(self, semiring):
        rng = random.Random(401)
        for d in range(2, 13):
            rows = [[rng.randrange(10**401) if rng.random() < 0.8 else rng.randint(0, 3)
                     for _ in range(d)] for _ in range(d)]
            assert self._check(TropMatrix.from_rows(rows, semiring)) > 0

    @pytest.mark.parametrize("d", [2, 3, 4, 17, 40])
    def test_one_cheap_hamiltonian_cycle(self, d):
        """Only the ring 0 -> 1 -> ... -> d-1 -> 0 is cheap, so the search
        from row 0 has to follow all of it."""
        ring = [(i, (i + 1) % d) for i in range(d)]
        for A in _both_semirings(_costs(d, 1, 10**6, ring)):
            assert self._check(A) == d == tvol(A)

    @pytest.mark.parametrize("d", [2, 3, 5, 16, 40])
    def test_all_off_optimum_costs_equal(self, d):
        """Every k-cycle costs 7k: the start value is already the answer, and
        each search stops on a tie with it."""
        for A in _both_semirings(_costs(d, 7, 7, [])):
            assert self._check(A) == 14

    @pytest.mark.parametrize("d", [3, 4, 9, 40])
    @pytest.mark.parametrize("cheap", [0, 1])
    def test_cycle_among_last_three_rows(self, d, cheap):
        """The only cheap cycle is d-3 -> d-2 -> d-1 -> d-3, found from s = d-3."""
        last = [(d - 3, d - 2), (d - 2, d - 1), (d - 1, d - 3)]
        for A in _both_semirings(_costs(d, cheap, 10**6, last)):
            assert self._check(A) == 3 * cheap

    def test_dimensions_two_and_three(self):
        for rows, gap in (([[0, 5], [2, 0]], 7), ([[0, 0], [0, 0]], 0),
                          ([[0, 1, 9], [9, 0, 1], [1, 9, 0]], 3),
                          ([[0, 1, 2], [1, 0, 2], [5, 5, 0]], 2)):
            for A in _both_semirings(rows):
                assert self._check(A) == gap


def _oracle_inputs(seed: int, per_case: int = 6):
    """Generic rational, tied {0,1,2} and Bottom-holding matrices, d = 1..7."""
    rng = random.Random(seed)
    for d in range(1, 8):
        for sr in (Semiring.MIN, Semiring.MAX):
            for _ in range(per_case):
                yield random_finite(rng, d, d, sr, lo=-3, hi=3, den=6)
                yield random_finite(rng, d, d, sr, lo=0, hi=2, den=1)
                yield random_with_bottom(rng, d, d, sr, p_bottom=0.25, lo=-2, hi=2)


def _kernel_grids(seed: int):
    """Integer grids for the kernel: d = 0..12 with entries in {0, 1, 2}, of
    +-10**6 and of 400 digits, and with 10-40% Bottom cells (many with no
    perfect matching); then d = 16, 32 and 64."""
    rng = random.Random(seed)
    big = 10**400
    for d in range(13):
        for _ in range(100):
            for lo, hi in ((0, 2), (-10**6, 10**6), (-big, big)):
                yield [[rng.randint(lo, hi) for _ in range(d)] for _ in range(d)]
            p = rng.choice((0.1, 0.2, 0.3, 0.4))
            yield [[None if rng.random() < p else rng.randint(-3, 3) for _ in range(d)]
                   for _ in range(d)]
    for d in (16, 32, 64):
        for lo, hi in ((0, 2), (-10**6, 10**6)):
            yield [[rng.randint(lo, hi) for _ in range(d)] for _ in range(d)]


class TestKernelAgainstReference:
    def test_same_total_images_and_duals(self):
        grids = list(_kernel_grids(19))
        assert len(grids) >= 5000
        infeasible = 0
        for grid in grids:
            res = assignment._hungarian_min(grid)
            assert res == reference_hungarian_min(grid), grid
            if res is None:
                infeasible += 1
            else:
                check_dual_certificate(grid, res)
        assert infeasible > 0


class TestOneSolveAgainstOracles:
    def test_duals_certify_the_optimum(self):
        for A in _oracle_inputs(101):
            grid, _ = scaled_grid(A)
            res = assignment._hungarian_min(grid)
            if res is None:
                assert brute_optima(A) == []
                continue
            check_dual_certificate(grid, res)

    def test_second_best_and_tvol(self):
        for A in _oracle_inputs(102):
            if A.rows < 2 or not A.is_finite:
                continue
            best, second = brute_assignment_values(A)
            assert second_best(A) == second
            assert tvol(A) == abs(best - second)

    def test_lex_witness(self):
        for A in _oracle_inputs(103):
            optima = brute_optima(A)
            lex = lex_optimal_permutation(A)
            assert (lex.images if lex else None) == (optima[0] if optima else None)
            if A.rows >= 2 and A.is_finite:
                cert = certificate(A)
                assert cert.best_perm.images == optima[0]
                assert (cert.best_value, cert.second_value) == brute_assignment_values(A)

    @pytest.mark.parametrize("semiring", [Semiring.MAX, Semiring.MIN])
    def test_entries_beyond_float_range(self, semiring):
        big = 7 * 10**400 + 3
        cases = [
            [[big, 0], [0, 0]],
            [[big, 1, -big], [Fraction(big, 9), 0, 5], [-3, big, 2]],
            [[0, big, big + 1], [big, 0, Fraction(1, 3)], [big - 2, 7, 0]],
        ]
        for rows in cases:
            A = TropMatrix.from_rows(rows, semiring)
            best, second = brute_assignment_values(A)
            assert second_best(A) == second
            assert tvol(A) == abs(best - second)
            cert = certificate(A)
            assert (cert.best_value, cert.second_value) == (best, second)
            assert cert.best_perm.images == brute_optima(A)[0]

    def test_no_finite_permutation(self):
        A = TropMatrix.from_rows([[0, 1, "-inf"], [2, "-inf", "-inf"], [3, "-inf", "-inf"]],
                                 Semiring.MAX)
        assert lex_optimal_permutation(A) is None
        assert enumerate_optima(A) == ([], False)


def _dfs_enumerate(sol, cap):
    """``enumerate_optima`` as it was built on the callback DFS."""
    found = []

    def visit(images):
        found.append(images)
        return len(found) < cap

    return found, not dfs_optima(sol, visit)


def _dfs_parity(sol, finite, cap):
    """``parity_report`` as it was built on the callback DFS; the uniqueness
    shortcut fires exactly when a finite d >= 2 matrix has one optimum."""
    if finite and len(sol.images) >= 2 and len(_dfs_enumerate(sol, 2)[0]) == 1:
        return ParityReport(ParityVerdict.SAME, 1, ParityMethod.UNIQUENESS_SHORTCUT)
    first, count = {}, 0

    def visit(images):
        nonlocal count
        count += 1
        p = Permutation(images)
        first.setdefault(p.parity, p)
        return len(first) < 2 and count < cap

    completed = dfs_optima(sol, visit)
    if len(first) == 2:
        return ParityReport(ParityVerdict.MIXED, count, ParityMethod.FULL_ENUMERATION,
                            witness=(first[1], first[-1]))
    if completed:
        return ParityReport(ParityVerdict.SAME, count, ParityMethod.FULL_ENUMERATION)
    return ParityReport(ParityVerdict.UNKNOWN, count, ParityMethod.CAPPED)


class TestOptimaWalk:
    """The pruned lazy walk against the callback DFS it replaced."""

    @staticmethod
    def _inputs(seed: int, per_case: int = 6):
        """Tied {0,1,2}, Bottom-holding and generic rational matrices, d = 1..10."""
        rng = random.Random(seed)
        for d in range(1, 11):
            for sr in (Semiring.MIN, Semiring.MAX):
                for _ in range(per_case):
                    yield random_finite(rng, d, d, sr, lo=0, hi=2, den=1)
                    yield random_with_bottom(rng, d, d, sr, p_bottom=0.25, lo=0, hi=2)
                    yield random_finite(rng, d, d, sr, lo=-3, hi=3, den=6)

    def test_matches_dfs_oracle(self):
        kinds = set()
        for A in self._inputs(111):
            sol = assignment._solve(A)
            seq = []
            assert dfs_optima(sol, lambda images: seq.append(images) or True)
            assert list(assignment._optima(sol)) == seq, A
            kinds.add(min(len(seq), 3))
            for cap in (1, 3, 10_000):
                perms, truncated = enumerate_optima(A, cap)
                assert ([p.images for p in perms], truncated) == _dfs_enumerate(sol, cap)
                assert parity_report(A, cap) == _dfs_parity(sol, A.is_finite, cap), (A, cap)
            lex = lex_optimal_permutation(A)
            assert (lex.images if lex else None) == (seq[0] if seq else None)
            if A.rows >= 2 and A.is_finite:
                assert certificate(A).best_perm.images == seq[0]
        assert kinds == {0, 1, 2, 3}

    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_no_dead_ends_on_blocks(self, k, monkeypatch):
        # rows < k are all 0; rows >= k are 0 on the first k columns, -1 after:
        # (k!)^2 optima, and a row < k can never take a column < k
        d = 2 * k
        A = TropMatrix.from_rows([[0] * d] * k + [[0] * k + [-1] * k] * k, Semiring.MAX)
        calls = []
        reroute = assignment._reroute
        monkeypatch.setattr(assignment, "_reroute",
                            lambda *args: calls.append(1) or reroute(*args))
        rep = parity_report(A)
        assert (rep.verdict, rep.enumerated_count) == (ParityVerdict.MIXED, 2)
        assert len(calls) <= d * d
        assert rep.witness[0].images == tuple(range(k, d)) + tuple(range(k))


def test_each_quantity_solves_once(solve_counter):
    rng = random.Random(16)
    A = random_finite(rng, 16, 16, Semiring.MAX, lo=-50, hi=50, den=7)
    assert len(enumerate_optima(A)[0]) == 1
    tied = TropMatrix.from_rows([[0] * 7 for _ in range(7)], Semiring.MAX)
    for fn in (tvol, second_best, certificate, lex_optimal_permutation, parity_report,
               enumerate_optima, assignment.solve_optimal):
        solve_counter.clear()
        fn(A)
        assert solve_counter == [16], fn.__name__
    # the tied matrix takes the enumeration branch: 5040 optima, both parities
    for fn, cap in ((parity_report, 3), (parity_report, 10_000), (enumerate_optima, 3)):
        solve_counter.clear()
        fn(tied, cap)
        assert solve_counter == [7], (fn.__name__, cap)

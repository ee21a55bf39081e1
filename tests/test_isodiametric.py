import functools
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    D4_MATRIX,
    brute_is_near_isodiametric,
    brute_tdiam,
    brute_tvol,
    family3,
    random_finite,
    unit_matrix,
)
from tropiso import (
    Classification,
    DomainError,
    SamplerLimitError,
    Semiring,
    StandardVariant,
    TropMatrix,
    apply_trail,
    check_conditions,
    converse_check,
    free_parameter_count,
    is_near_isodiametric,
    is_standard,
    negate_complement,
    sample_isodiametric,
    standardize_and_check,
    tdiam,
    to_standard,
    translate,
    tvol,
)


class TestToStandard:
    def test_unit_matrix_already_standard(self):
        A = unit_matrix(3, Semiring.MAX)
        form = to_standard(A, StandardVariant.MAX)
        assert form.matrix == A

    @pytest.mark.parametrize("lam", [0, Fraction(1, 2), 1, 2])
    def test_family_already_standard(self, lam):
        B = family3(lam)
        assert to_standard(B, StandardVariant.MIN).matrix == B

    def test_random_matrices_standardize(self):
        rng = random.Random(23)
        for _ in range(40):
            variant = rng.choice([StandardVariant.MAX, StandardVariant.MIN])
            A = random_finite(rng, 4, 4, variant.semiring)
            form = to_standard(A, variant)
            assert is_standard(form.matrix, variant)
            assert tdiam(form.matrix) == tdiam(A)
            assert tvol(form.matrix) == brute_tvol(A)

    def test_trail_replays_exactly(self):
        rng = random.Random(29)
        for _ in range(20):
            variant = rng.choice([StandardVariant.MAX, StandardVariant.MIN])
            d = rng.randint(2, 5)
            A = random_finite(rng, d, d, variant.semiring)
            form = to_standard(A, variant)
            assert apply_trail(A, form.trail) == form.matrix

    def test_semiring_variant_mismatch(self):
        A = random_finite(random.Random(1), 3, 3, Semiring.MAX)
        with pytest.raises(DomainError):
            to_standard(A, StandardVariant.MIN)

    def test_one_assignment_solve(self, solve_counter):
        B = sample_isodiametric(8, 0)
        A = translate(B.permute(col_perm=(3, 0, 7, 1, 6, 2, 5, 4)),
                      tuple(Fraction(i, 3) for i in range(8)), (Fraction(0),) * 8)
        form = to_standard(A, StandardVariant.MIN)
        assert solve_counter == [8]
        assert form.matrix == B


class TestCheckConditions:
    def test_family_interior_strict(self):
        rep = check_conditions(family3(1), StandardVariant.MIN)
        assert rep.all_conditions_hold
        assert rep.strict_iv
        assert rep.classification is Classification.ISODIAMETRIC
        assert rep.tdiam == 2 and rep.tvol == 2

    def test_family_boundary_not_strict(self):
        rep = check_conditions(family3(0), StandardVariant.MIN)
        assert rep.all_conditions_hold
        assert not rep.strict_iv
        assert rep.classification is Classification.ISODIAMETRIC

    def test_max_variant_triple_violation(self):
        A = TropMatrix.from_rows([[1, 0, 0], [0, 1, 2], [0, -2, 1]], Semiring.MAX)
        rep = check_conditions(A, StandardVariant.MAX)
        assert not rep.cond_iv.holds
        assert rep.cond_iv.violation is not None
        assert rep.classification is Classification.NEITHER

    def test_pair_sum_violation_is_neither(self):
        # min-standard but b_23 + b_32 != 2
        B = TropMatrix.from_rows(
            [[0, 1, 1], [1, 0, Fraction(1, 2)], [1, 1, 0]], Semiring.MIN
        )
        rep = check_conditions(B, StandardVariant.MIN)
        assert not rep.cond_iii.holds
        assert rep.cond_iii.violation == (1, 2)
        assert rep.classification is Classification.NEITHER

    def test_min_standard_nonneg_pairs_imply_bound_i(self):
        # with zero diagonal, nonnegativity and pair sums equal to 2, the
        # entry bounds of condition (i) follow, so a min-standard matrix that
        # is near-isodiametric is isodiametric: no third class is needed
        for seed in range(5):
            B = sample_isodiametric(4, seed)
            rep = check_conditions(B, StandardVariant.MIN)
            assert rep.cond_i.holds

    def test_requires_standard_shape(self):
        A = random_finite(random.Random(2), 3, 3, Semiring.MIN)
        with pytest.raises(DomainError):
            check_conditions(A, StandardVariant.MIN)

    def test_standard_border_without_optimal_identity(self):
        # the first row and column fit, but the anti-diagonal beats the identity
        B = TropMatrix.from_rows([[0, 1, 1], [1, 5, 0], [1, 0, 5]], Semiring.MIN)
        assert not is_standard(B, StandardVariant.MIN)
        with pytest.raises(DomainError, match="^matrix is not in min-standard shape$"):
            check_conditions(B, StandardVariant.MIN)

    @pytest.mark.parametrize("variant", list(StandardVariant))
    def test_one_assignment_solve(self, variant, solve_counter):
        B = sample_isodiametric(5, 0)
        A = B if variant is StandardVariant.MIN else negate_complement(B)
        solve_counter.clear()  # negate_complement checks its input with a solve
        rep = check_conditions(A, variant)
        assert solve_counter == [5]
        assert rep.classification is Classification.ISODIAMETRIC
        assert rep.tvol == brute_tvol(A) == 2

    @pytest.mark.parametrize("variant", list(StandardVariant))
    def test_tdiam_matches_fraction_oracle(self, variant):
        """The diameter read off the solve's grid, on standard forms and on
        inputs that ``standardize_and_check`` must standardize first."""
        rng = random.Random(26)
        dens = (1, 2, 9, 10**6, 10**9 + 7)
        cases = [sample_isodiametric(d, seed) for d in range(3, 7) for seed in range(2)]
        if variant is StandardVariant.MAX:
            cases = [negate_complement(B) for B in cases]
        for d in range(2, 9):
            for _ in range(8):
                cases.append(TropMatrix(variant.semiring, tuple(
                    tuple(Fraction(rng.randint(-10**9, 10**9), rng.choice(dens))
                          for _ in range(d)) for _ in range(d))))
        for A in cases:
            S = to_standard(A, variant).matrix
            want = brute_tdiam(A)
            assert brute_tdiam(S) == want
            assert check_conditions(S, variant).tdiam == want, A
            assert standardize_and_check(A, variant)[1].tdiam == want, A
            assert standardize_and_check(S, variant) == (False, check_conditions(S, variant))

    @pytest.mark.parametrize("variant", list(StandardVariant))
    def test_one_solve_on_non_standard_inputs(self, variant, solve_counter):
        """A matrix of another shape, and one of standard shape whose identity is
        not optimal, cost one solve each, and report as their standard form does."""
        rng = random.Random(44)
        cases = []
        for d in range(3, 7):
            for seed in range(3):
                B = sample_isodiametric(d, seed)
                B = B if variant is StandardVariant.MIN else negate_complement(B)
                # swapping columns 1 and 2 keeps the first row and column
                swapped = B.permute(col_perm=(0, 2, 1, *range(3, d)))
                assert swapped.entries[0] == B.entries[0] and swapped.col(0) == B.col(0)
                cases += [swapped, random_finite(rng, d, d, variant.semiring)]
        for A in cases:
            assert not is_standard(A, variant)
            want = check_conditions(to_standard(A, variant).matrix, variant)
            solve_counter.clear()
            assert standardize_and_check(A, variant) == (True, want), A
            assert solve_counter == [A.rows]


class TestConverse:
    def test_family_member(self):
        assert converse_check(family3(Fraction(3, 2)), StandardVariant.MIN)

    @pytest.mark.parametrize("d", [4, 5])
    def test_sampled_matrices(self, d):
        for seed in range(5):
            B = sample_isodiametric(d, seed)
            assert converse_check(B, StandardVariant.MIN)
            assert brute_tvol(B) == 2

    def test_precondition_violation(self):
        A = TropMatrix.from_rows([[1, 0, 0], [0, 1, 2], [0, -2, 1]], Semiring.MAX)
        with pytest.raises(DomainError):
            converse_check(A, StandardVariant.MAX)


class TestNearIsodiametric:
    @pytest.mark.parametrize("lam", [0, Fraction(1, 2), 1, Fraction(3, 2), 2])
    def test_family(self, lam):
        assert is_near_isodiametric(family3(lam))

    def test_negative_entry_fails(self):
        B = TropMatrix.from_rows(
            [[0, 1, 1], [1, 0, 3], [1, -1, 0]], Semiring.MIN
        )
        assert not is_near_isodiametric(B)

    def test_paper_d4_matrix(self):
        assert is_near_isodiametric(D4_MATRIX)

    def test_not_required_to_be_standard(self):
        # permuting rows/columns of a near matrix by the same permutation
        # preserves the defining inequalities
        B = family3(1).permute(row_perm=[2, 0, 1], col_perm=[2, 0, 1])
        assert is_near_isodiametric(B)

    def test_agrees_with_loops(self):
        """Samples d=3-7, permuted copies, one-entry and pair-preserving
        perturbations, random nonnegative matrices and a Bottom entry."""
        rng = random.Random(1448)
        cases = []
        for n in range(60):
            d = 3 + n % 5
            B = sample_isodiametric(d, rng.randrange(10 ** 6), require_strict=n % 2 == 1)
            perm = rng.sample(range(d), d)
            cases += [B, B.permute(row_perm=perm, col_perm=perm)]
            for paired in (False, True, False, True):
                e = [list(row) for row in B.entries]
                i, j = rng.randrange(d), rng.randrange(d)
                step = Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), rng.randint(1, 8))
                e[i][j] += step
                if paired and i != j:
                    e[j][i] -= step
                cases.append(TropMatrix(Semiring.MIN, tuple(map(tuple, e))))
            cases.append(random_finite(rng, d, d, Semiring.MIN, lo=0, hi=2, den=n % 3 + 1))
        cases.append(TropMatrix(Semiring.MIN, ((Fraction(0), None), (Fraction(2), Fraction(0)))))
        verdicts = [brute_is_near_isodiametric(B) for B in cases]
        assert verdicts.count(True) > 100 and verdicts.count(False) > 100
        for B, want in zip(cases, verdicts):
            assert is_near_isodiametric(B) is want, B


class TestSampler:
    def test_d3_matches_family(self):
        for seed in range(10):
            B = sample_isodiametric(3, seed)
            lam = B.entries[1][2]
            assert 0 <= lam <= 2
            assert B == family3(lam)

    def test_free_parameter_count(self):
        assert free_parameter_count(3) == 1
        assert free_parameter_count(5) == 6

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_samples_are_near_isodiametric(self, d):
        for seed in range(3):
            B = sample_isodiametric(d, seed)
            assert is_near_isodiametric(B)
            rep = check_conditions(B, StandardVariant.MIN)
            assert rep.classification is Classification.ISODIAMETRIC

    def test_strict_samples(self):
        for seed in range(3):
            B = sample_isodiametric(5, seed, require_strict=True)
            rep = check_conditions(B, StandardVariant.MIN)
            assert rep.strict_iv

    def test_pinned_draws(self):
        # a change to the draw range, the draw order or the acceptance test
        # changes these samples
        assert sample_isodiametric(4, 0, require_strict=True) == TropMatrix.from_rows(
            [[0, 1, 1, 1],
             [1, 0, Fraction(789, 625), Fraction(6891, 5000)],
             [1, Fraction(461, 625), 0, Fraction(1327, 10000)],
             [1, Fraction(3109, 5000), Fraction(18673, 10000), 0]], Semiring.MIN)
        text = repr([sample_isodiametric(d, seed, require_strict=strict)
                     for d in range(3, 7) for seed in range(3) for strict in (False, True)])
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "09fb68255d36cbe0bc9bc8960f32c095a1e24dc9977d076d67bf6002820ae150"

    def test_deterministic_under_seed(self):
        assert sample_isodiametric(5, 123) == sample_isodiametric(5, 123)
        assert sample_isodiametric(5, 123) != sample_isodiametric(5, 124)

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            sample_isodiametric(2, 0)

    def test_attempt_limit(self):
        with pytest.raises(SamplerLimitError):
            sample_isodiametric(6, 0, max_attempts=0)


class TestNegateComplement:
    def test_unit_maps_to_family_midpoint(self):
        assert negate_complement(unit_matrix(3, Semiring.MAX)) == family3(1)

    def test_worked_example(self):
        A = TropMatrix.from_rows(
            [[1, 0, 0], [0, 1, Fraction(1, 2)], [0, Fraction(-1, 2), 1]],
            Semiring.MAX,
        )
        assert negate_complement(A) == family3(Fraction(1, 2))

    def test_involution(self):
        A = unit_matrix(4, Semiring.MAX)
        assert negate_complement(negate_complement(A)) == A

    def test_condition_systems_correspond(self):
        rng = random.Random(37)
        for seed in range(5):
            B = sample_isodiametric(4, seed)
            A = negate_complement(B)
            assert is_standard(A, StandardVariant.MAX)
            rep = check_conditions(A, StandardVariant.MAX)
            assert rep.all_conditions_hold
            assert rep.classification is Classification.ISODIAMETRIC

    def test_rejects_non_standard(self):
        A = random_finite(random.Random(3), 3, 3, Semiring.MAX)
        with pytest.raises(DomainError):
            negate_complement(A)


class TestRoundTripLaw:
    """Conditions (i)-(iv) hold iff tdiam == 2 and tvol == 2 (both variants).

    A smaller randomized version of the acceptance sweep; the full-size run
    lives in the acceptance suite.
    """

    def _random_standard(self, rng, d, variant):
        A = random_finite(rng, d, d, variant.semiring, lo=-2, hi=2, den=4)
        return to_standard(A, variant).matrix

    def test_equivalence_sampled(self):
        rng = random.Random(99)
        for _ in range(120):
            d = rng.randint(3, 5)
            variant = rng.choice([StandardVariant.MAX, StandardVariant.MIN])
            kind = rng.random()
            if kind < 0.45:
                M = self._random_standard(rng, d, variant)
            else:
                B = sample_isodiametric(d, rng.randint(0, 10 ** 6))
                if kind < 0.75:
                    M = B if variant is StandardVariant.MIN else negate_complement(B)
                else:
                    # perturb one free entry, then restandardize
                    ent = [list(r) for r in B.entries]
                    ent[1][2] += Fraction(rng.randint(1, 8), 2)
                    M = to_standard(
                        TropMatrix(Semiring.MIN, tuple(tuple(r) for r in ent)),
                        StandardVariant.MIN,
                    ).matrix
                    if variant is StandardVariant.MAX:
                        variant = StandardVariant.MIN
            rep = check_conditions(M, variant)
            lhs = rep.all_conditions_hold
            rhs = tdiam(M) == 2 and brute_tvol(M) == 2
            assert lhs == rhs, f"equivalence failed for {M}"


@st.composite
def square_matrices(draw):
    """Finite d x d matrices, d=2-7, both semirings, entries in [-10, 10] on 1/den."""
    d = draw(st.integers(2, 7))
    sr = draw(st.sampled_from([Semiring.MIN, Semiring.MAX]))
    den = draw(st.integers(1, 16))
    cells = draw(st.lists(st.integers(-10 * den, 10 * den), min_size=d * d, max_size=d * d))
    return TropMatrix(sr, tuple(tuple(Fraction(c, den) for c in cells[i * d:(i + 1) * d])
                                for i in range(d)))


def _scaled(A, k):
    return TropMatrix(A.semiring, tuple(tuple(c * k for c in row) for row in A.entries))


def _moved(rng, A):
    """A under random row and column permutations and translations."""
    d = A.rows
    rows, cols = rng.sample(range(d), d), rng.sample(range(d), d)

    def offsets():
        return tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(d))

    return translate(A.permute(row_perm=tuple(rows), col_perm=tuple(cols)),
                     offsets(), offsets())


def _conditions_hold(A):
    """Do (i)-(iv) hold on the standard form of A * 2/tdiam(A)?"""
    variant = StandardVariant.MAX if A.semiring is Semiring.MAX else StandardVariant.MIN
    S = to_standard(_scaled(A, 2 / tdiam(A)), variant).matrix
    return check_conditions(S, variant).all_conditions_hold


@functools.cache
def _equality_cases():
    """120 sampled isodiametric matrices, d=3-7, half of them max-plus (via
    negate_complement), each scaled by a positive rational and moved."""
    rng = random.Random(1611)
    cases = []
    for n in range(120):
        d = 3 + n % 5
        B = sample_isodiametric(d, rng.randrange(10 ** 6), require_strict=n % 4 < 2)
        if n % 2:
            B = negate_complement(B)
        k = Fraction(rng.randint(1, 20), rng.randint(1, 7))
        cases.append(_moved(rng, _scaled(B, k)))
    return cases


class TestIsodiametricInequality:
    """tvol(A) <= tdiam(A), with equality exactly on the isodiametric class."""

    @given(square_matrices())
    @settings(max_examples=150, deadline=None)
    def test_inequality(self, A):
        assert tvol(A) <= tdiam(A)

    def test_equality_cases(self):
        for A in _equality_cases():
            assert tvol(A) == tdiam(A) > 0, A
            assert _conditions_hold(A), A

    def test_one_entry_near_misses(self):
        rng = random.Random(4148)
        for A in _equality_cases():
            d = A.rows
            for _ in range(3):
                e = [list(row) for row in A.entries]
                i, j = rng.randrange(d), rng.randrange(d)
                e[i][j] += Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), rng.randint(1, 16))
                M = TropMatrix(A.semiring, tuple(map(tuple, e)))
                assert tvol(M) <= tdiam(M)
                assert (tvol(M) == tdiam(M)) is _conditions_hold(M), M


def _min_standard_shaped(d, values):
    """Every min-plus d x d matrix with first row 0, 1, ..., 1, first column
    0, 1, ..., 1 and its (d-1) x (d-1) off-border block drawn from ``values``."""
    zero, one, n = Fraction(0), Fraction(1), d - 1
    head = (zero,) + (one,) * n
    for block in itertools.product(values, repeat=n * n):
        yield TropMatrix(Semiring.MIN, (head,) + tuple(
            (one,) + block[i * n:(i + 1) * n] for i in range(n)))


class TestEqualityCaseExhaustive:
    """tvol <= tdiam on every min-standard-shaped matrix of two grids, and on
    the standard ones tvol = tdiam = 2 exactly when (i)-(iv) hold."""

    @pytest.mark.parametrize("d, values, count, standard, iso", [
        (3, [Fraction(k, 2) for k in range(5)], 625, 355, 5),
        (4, [Fraction(k) for k in range(3)], 19_683, 5_345, 19),
    ])
    def test_grid(self, d, values, count, standard, iso):
        seen = [0, 0, 0]
        for M in _min_standard_shaped(d, values):
            vol, diam = tvol(M), tdiam(M)
            assert vol <= diam, M
            seen[0] += 1
            if is_standard(M, StandardVariant.MIN):
                holds = check_conditions(M, StandardVariant.MIN).all_conditions_hold
                assert (vol == diam == 2) is holds, M
                seen[1] += 1
                seen[2] += holds
        assert seen == [count, standard, iso]

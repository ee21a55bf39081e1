import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    brute_optima,
    brute_qvol_plus,
    brute_sign_generic,
    brute_tper,
    random_finite,
    random_with_bottom,
)
from tropiso import (
    DegenerateHullError,
    DimensionError,
    DomainError,
    LiftSpec,
    NotSignGenericError,
    ParityMethod,
    ParityUnknownError,
    ParityVerdict,
    Permutation,
    Semiring,
    TropMatrix,
    bar_matrix,
    cauchy_binet_check,
    default_lift,
    dequant,
    dequant_slope,
    hull_volume,
    idempotent_measure_check,
    lift_eval,
    qvol,
    qvol_plus,
    sign_generic,
    tper,
    tvol,
    volume_bound_check,
)
from tropiso.dequant import DEFAULT_T_GRID

MAX = Semiring.MAX


def mk(rows):
    return TropMatrix.from_rows(rows, MAX)


PAPER_A = mk([[0, 0, 0], [0, 0, 0]])
PAPER_B = mk([[0, -1, -2], [0, -2, -4]])
WORKED = mk([[0, 1, 0], [0, 0, 1]])


class TestTper:
    def test_two_by_two(self):
        assert tper(mk([[0, -1], [0, -2]])) == -1

    def test_diagonal_pattern(self):
        A = mk([[3, "-inf"], ["-inf", 4]])
        assert tper(A) == 7

    def test_bottom_row(self):
        A = mk([["-inf", "-inf"], [0, 1]])
        assert tper(A) is None

    def test_oracle_agreement(self):
        rng = random.Random(101)
        for _ in range(150):
            d = rng.randint(1, 4)
            A = random_with_bottom(rng, d, d, MAX, p_bottom=0.25)
            assert tper(A) == brute_tper(A)


class TestQvolPlus:
    def test_paper_values(self):
        assert qvol_plus(PAPER_A, compute_parity=False).value == 0
        assert qvol_plus(PAPER_B, compute_parity=False).value == -1

    def test_worked_instance_witness(self):
        res = qvol_plus(WORKED)
        assert res.value == 2
        assert res.witness_columns == (1, 2)
        assert res.witness_perm.images == (0, 1)
        assert res.sign_generic_bar is ParityVerdict.SAME

    def test_witness_consistency(self):
        rng = random.Random(7)
        for _ in range(60):
            d = rng.randint(1, 3)
            m = rng.randint(d, 6)
            A = random_with_bottom(rng, d, m, MAX, p_bottom=0.2)
            res = qvol_plus(A, compute_parity=False)
            if res.value is None:
                assert res.witness_columns is None
                continue
            sub = TropMatrix(
                MAX, tuple(tuple(r[c] for c in res.witness_columns) for r in A.entries)
            )
            assert tper(sub) == res.value
            assert res.witness_perm.weight_of(sub) == res.value

    def test_methods_agree(self):
        rng = random.Random(202)
        for _ in range(300):
            d = rng.randint(1, 4)
            m = rng.randint(d, 7)
            A = random_with_bottom(rng, d, m, MAX, p_bottom=0.25)
            bf = qvol_plus(A, method="brute-force", compute_parity=False)
            lp = qvol_plus(A, method="transport-lp", compute_parity=False)
            assert bf.value == lp.value == brute_qvol_plus(A)

    def test_too_few_columns(self):
        with pytest.raises(DimensionError):
            qvol_plus(mk([[0], [0]]))

    def test_all_bottom_row_gives_bottom(self):
        A = mk([["-inf", "-inf", "-inf"], [0, 1, 2]])
        for method in ("brute-force", "transport-lp"):
            res = qvol_plus(A, method=method, compute_parity=False)
            assert res.value is None
            assert res.witness_columns is None and res.witness_perm is None

    def test_monotone_in_columns(self):
        rng = random.Random(5)
        for _ in range(60):
            d = rng.randint(1, 3)
            m = rng.randint(d, 5)
            A = random_finite(rng, d, m, MAX)
            ext = TropMatrix(
                MAX,
                tuple(row + (Fraction(rng.randint(-4, 4)),) for row in A.entries),
            )
            assert qvol_plus(ext, compute_parity=False).value >= \
                qvol_plus(A, compute_parity=False).value

    def test_global_shift_moves_value_by_d_times_c(self):
        rng = random.Random(6)
        for _ in range(40):
            d = rng.randint(1, 3)
            m = rng.randint(d, 5)
            A = random_finite(rng, d, m, MAX)
            c = Fraction(rng.randint(-6, 6), 2)
            shifted = TropMatrix(
                MAX, tuple(tuple(x + c for x in row) for row in A.entries)
            )
            assert qvol_plus(shifted, compute_parity=False).value == \
                qvol_plus(A, compute_parity=False).value + d * c


class TestSignGeneric:
    def test_worked_instance(self):
        assert sign_generic(WORKED, bar=True).verdict is ParityVerdict.SAME

    def test_zero_square_mixed(self):
        assert sign_generic(mk([[0, 0], [0, 0]])).verdict is ParityVerdict.MIXED

    def test_zero_bar_mixed(self):
        rep = sign_generic(PAPER_A, bar=True)
        assert rep.verdict is ParityVerdict.MIXED
        assert rep.selection is not None
        a, b = rep.witness
        assert a.parity != b.parity

    def test_tall_bar_of_square_matrix(self):
        # the bar of a square matrix is tall: row subsets are scanned
        rep = sign_generic(mk([[0, 5], [0, 0]]), bar=True)
        assert rep.verdict is ParityVerdict.MIXED

    def test_positive_tvol_implies_bar_generic(self):
        rng = random.Random(303)
        for _ in range(80):
            d = rng.randint(2, 4)
            A = random_finite(rng, d - 1, d, MAX)
            bar = bar_matrix(A)
            if tvol(bar) > 0:
                assert sign_generic(A, bar=True).verdict is ParityVerdict.SAME

    def test_converse_fails_on_constructed_example(self):
        # bar-generic yet tropically singular: the identity and a 3-cycle
        # tie at the optimum, so tvol of the bar matrix vanishes while all
        # optimal permutations still share one (even) parity
        A = mk([[-1, 0, 3], [-3, -5, 0]])
        bar = bar_matrix(A)
        assert tvol(bar) == 0
        assert sign_generic(A, bar=True).verdict is ParityVerdict.SAME


def _scan_inputs(seed: int, count: int, max_rows: int = 5, max_cols: int = 9):
    """Generic rational, tied {0,1,2} and Bottom-holding max-plus matrices,
    up to ``max_rows`` x ``max_cols``, so both wide and tall bar matrices."""
    rng = random.Random(seed)
    for _ in range(count):
        r, c = rng.randint(1, max_rows), rng.randint(1, max_cols)
        yield random_finite(rng, r, c, MAX, lo=-4, hi=4, den=4)
        yield random_finite(rng, r, c, MAX, lo=0, hi=2, den=1)
        yield random_with_bottom(rng, r, c, MAX, p_bottom=0.25, lo=0, hi=2)


def _table_inputs(seed: int, count: int):
    """Max-plus matrices of r <= 5 rows and c <= 8 columns: generic
    rationals, tied {0,1,2}, an all-equal block among distinct-ish integers,
    and 25-40% Bottom cells with one all-Bottom column."""
    rng = random.Random(seed)
    for _ in range(count):
        r, c = rng.randint(1, 5), rng.randint(1, 8)
        yield random_finite(rng, r, c, MAX, lo=-4, hi=4, den=4)
        yield random_finite(rng, r, c, MAX, lo=0, hi=2, den=1)
        rows = [list(row) for row in random_finite(rng, r, c, MAX, lo=-9, hi=9, den=1).entries]
        for i in rng.sample(range(r), rng.randint(1, r)):
            for j in rng.sample(range(c), rng.randint(1, c)):
                rows[i][j] = Fraction(3)
        yield TropMatrix(MAX, tuple(map(tuple, rows)))
        B = random_with_bottom(rng, r, c, MAX, p_bottom=rng.uniform(0.25, 0.4), lo=0, hi=2)
        dead = rng.randrange(c)
        yield TropMatrix(MAX, tuple(tuple(None if j == dead else x for j, x in enumerate(row))
                                    for row in B.entries))


def _columns(A: TropMatrix, cols) -> TropMatrix:
    return TropMatrix(MAX, tuple(tuple(row[j] for j in cols) for row in A.entries))


class TestCofactorTable:
    """Each entry of the memoized cofactor expansion against enumeration."""

    def test_entries_match_enumeration(self):
        rng = random.Random(812)
        seen = set()
        for A in _table_inputs(811, 120):
            _, scale, sign, _, entry = dequant._table(A, bar=False)
            subsets = [S for k in range(1, A.rows + 1) for S in combinations(range(A.cols), k)]
            rng.shuffle(subsets)  # the lazy memo must not depend on the order of reads
            for S in subsets:
                sub = TropMatrix(MAX, tuple(tuple(row[j] for j in S)
                                            for row in A.entries[:len(S)]))
                ent, value = entry(S), brute_tper(sub)
                assert (ent is None) is (value is None), (A, S)
                if ent is None:
                    continue
                signs = [Permutation(p).parity for p in brute_optima(sub)]
                assert Fraction(sign * ent[0], scale) == value, (A, S)
                assert ent[1:] == (signs.count(1), signs.count(-1)), (A, S)
                seen.add((len(S) == A.rows, bool(ent[1] and ent[2])))
        assert len(seen) == 4  # both-sign and one-sign entries, kept and top level


class TestScanAgainstOracle:
    """The one-grid scans against eager per-submatrix oracles."""

    def test_sign_generic_report(self, certified_solves):
        def fields(r):
            witness = r.witness and tuple(p.images for p in r.witness)
            return r.verdict, r.enumerated_count, r.method, witness, r.selection

        rng = random.Random(810)
        seen = set()
        for A in _scan_inputs(808, 100):
            for bar in (False, True):
                M = bar_matrix(A) if bar else A
                k = min(M.rows, M.cols)
                picks = [sorted(rng.sample(range(max(M.rows, M.cols)), k)) for _ in range(3)]
                subs = [_columns(M, sel) if M.rows <= M.cols else
                        TropMatrix(MAX, tuple(M.entries[i] for i in sel)) for sel in picks]
                exact = max(len(brute_optima(sub)) for sub in subs)  # some subset's optima
                for cap in sorted({1, 2, 3, 10_000, max(exact, 1)}):
                    rep = sign_generic(A, bar=bar, cap=cap)
                    assert fields(rep) == fields(brute_sign_generic(A, bar, cap)), (A, bar, cap)
                    seen.add((rep.verdict, A.rows + bar > A.cols))
        assert len(seen) == 6  # every verdict, on wide and on tall inputs
        assert any(res is not None for _, res in certified_solves)

    def test_cauchy_binet(self):
        from tropiso import trop_mat_mul

        rng = random.Random(813)
        verdicts = set()
        for B in _scan_inputs(814, 40, max_rows=3, max_cols=6):
            m = rng.randint(B.rows, B.rows + 2)
            C = random_with_bottom(rng, B.cols, m, MAX, p_bottom=0.25, lo=0, hi=2)
            I = sorted(rng.sample(range(m), B.rows))
            lhs = brute_tper(_columns(trop_mat_mul(B, C), I))
            rhs = None
            for K in combinations(range(B.cols), B.rows):
                left = brute_tper(_columns(B, K))
                right = brute_tper(TropMatrix(MAX, tuple(tuple(C.entries[k][j] for j in I)
                                                         for k in K)))
                if left is not None and right is not None:
                    rhs = MAX.combine(rhs, left + right)
            assert cauchy_binet_check(B, C, I) is (lhs == rhs), (B, C, I)
            verdicts.add(lhs == rhs)
        assert verdicts == {True, False}

    def test_idempotent_measure(self):
        def qv(M):
            return brute_qvol_plus(M) if M.cols >= M.rows else None

        outcomes = set()
        for C in _scan_inputs(815, 40, max_rows=4, max_cols=8):
            if C.cols < max(2, C.rows):
                continue
            half = C.cols // 2
            A, B = _columns(C, range(half)), _columns(C, range(half, C.cols))
            for cap in (1, 3, 10_000):
                out = idempotent_measure_check(A, B, cap=cap)
                if brute_sign_generic(C, bar=True, cap=cap).verdict is not ParityVerdict.SAME:
                    assert out is None
                else:
                    assert out is (qv(C) == MAX.combine(qv(A), qv(B))), (A, B, cap)
                outcomes.add(out)
        assert outcomes == {None, True, False}

    def test_idempotent_measure_error_order(self):
        """Rows are checked first, then the bar scan, then the union's width."""
        A, B = mk([[1], [4], [0]]), mk([[2], [0], [3]])
        assert sign_generic(mk([[1, 2], [4, 0], [0, 3]]), bar=True).verdict is ParityVerdict.SAME
        with pytest.raises(DimensionError,
                           match="^need at least as many columns as rows, got 3x2$"):
            idempotent_measure_check(A, B)
        assert idempotent_measure_check(mk([[3], [3], [3]]), mk([[1], [0], [3]])) is None
        with pytest.raises(DimensionError, match="same number of rows"):
            idempotent_measure_check(mk([[1], [4]]), B)
        with pytest.raises(DimensionError, match="same number of rows"):
            idempotent_measure_check(mk([[3], [3]]), mk([[1], [0], [3]]))

    def test_qvol_plus_brute_force(self):
        for A in _scan_inputs(809, 80):
            if A.cols < A.rows:
                continue
            res = qvol_plus(A, method="brute-force", cap=3)
            assert res.value == brute_qvol_plus(A)
            assert res.sign_generic_bar is brute_sign_generic(A, bar=True, cap=3).verdict
            if res.value is None:
                assert res.witness_columns is None and res.witness_perm is None
                continue
            subs = [(cols, TropMatrix(MAX, tuple(tuple(r[c] for c in cols) for r in A.entries)))
                    for cols in combinations(range(A.cols), A.rows)]
            cols, sub = next((cols, sub) for cols, sub in subs if brute_tper(sub) == res.value)
            assert res.witness_columns == cols
            assert res.witness_perm.images == brute_optima(sub)[0]


def _tied_6x18() -> TropMatrix:
    """Columns 16 and 17 are equal, so the first subset of the bar matrix
    holding both is MIXED; every earlier subset has a unique optimum."""
    rng = random.Random(0)
    return mk([[rng.randint(0, 10**6) for _ in range(16)] + [rng.randint(0, 2)] * 2
               for _ in range(6)])


class TestScanWork:
    """The scans read one cofactor table, solve only a subset whose optima
    have both signs (and a qvol+ witness), and stop at the first MIXED one."""

    TIED = _tied_6x18()

    def test_mixed_scan_stops_at_selection(self, solve_counter):
        rep = sign_generic(self.TIED, bar=True)
        assert rep.verdict is ParityVerdict.MIXED
        assert rep.selection == (0, 1, 2, 3, 4, 16, 17)
        index = list(combinations(range(18), 7)).index(rep.selection)
        assert index == 77
        assert solve_counter == [7]  # the mixed subset, for its witness pair

    def test_mixed_scan_builds_no_submatrices(self, monkeypatch):
        built = []
        post_init = TropMatrix.__post_init__

        def counting(self):
            built.append(self.shape)
            post_init(self)

        monkeypatch.setattr(TropMatrix, "__post_init__", counting)
        assert sign_generic(self.TIED, bar=True).verdict is ParityVerdict.MIXED
        assert len(built) <= 1

    def test_same_scan_makes_no_solve(self, solve_counter):
        A = random_finite(random.Random(1), 4, 8, MAX, lo=-50, hi=50, den=7)
        rep = sign_generic(A, bar=True)
        assert (rep.verdict, rep.enumerated_count) == (ParityVerdict.SAME, 56)
        assert rep.method is ParityMethod.FULL_ENUMERATION
        assert solve_counter == []
        qvol_plus(A, compute_parity=False)
        assert solve_counter == [4]  # the witness subset


class TestQvol:
    def test_worked_instance(self):
        assert qvol(WORKED) == 2

    def test_min_plus_rejected(self):
        with pytest.raises(DomainError, match="max-plus"):
            qvol(TropMatrix.from_rows([[0, 1], [1, 0]], Semiring.MIN))

    def test_not_generic_raises(self):
        with pytest.raises(NotSignGenericError):
            qvol(mk([[0, 0], [0, 0]]))

    def test_square_with_mixed_bar_raises(self):
        assert qvol_plus(mk([[0, 5], [0, 0]]), compute_parity=False).value == 5
        with pytest.raises(NotSignGenericError):
            qvol(mk([[0, 5], [0, 0]]))

    def test_capped_scan_raises(self):
        with pytest.raises(ParityUnknownError) as err:
            qvol(PAPER_A, cap=1)
        assert err.value.report.verdict is ParityVerdict.UNKNOWN
        assert err.value.report.selection == (0, 1, 2)

    def test_genericity_failure_breaks_monotonicity(self):
        # hull containment does not transfer qvol+ bounds without parity
        # control: the wider matrix here has the smaller value
        assert qvol_plus(PAPER_A, compute_parity=False).value == 0
        assert qvol_plus(PAPER_B, compute_parity=False).value == -1


class TestLifts:
    def test_plain_evaluation(self):
        base = mk([[0, 1], [1, 0]])
        ones = ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)))
        spec = LiftSpec(base, ones, Fraction(1))
        assert lift_eval(spec, 10) == [[1, 10], [10, 1]]

    def test_boost_on_diagonal(self):
        base = mk([[0, 1], [1, 0]])
        ones = ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)))
        spec = LiftSpec(base, ones, Fraction(6), frozenset({(0, 0), (1, 1)}))
        assert lift_eval(spec, 10) == [[6, 10], [10, 6]]

    def test_exponent_recovery_exact(self):
        # without a boost, integer exponents evaluate to exact powers of t
        base = mk([[2, -1], [0, 3]])
        ones = tuple(tuple(Fraction(1) for _ in row) for row in base.entries)
        spec = LiftSpec(base, ones, Fraction(1))
        for t in (10, 100):
            mat = lift_eval(spec, t)
            for i in range(2):
                for j in range(2):
                    assert mat[i][j] == Fraction(t) ** base.entries[i][j].numerator

    def test_exponent_dominance_with_boost(self):
        # the boosted diagonal still has the right log-limit as t grows:
        # the offset decays like log(boost) / log(t)
        base = mk([[2, -1], [0, 3]])
        spec = default_lift(base)
        mat = lift_eval(spec, 10 ** 18)
        for i in range(2):
            for j in range(2):
                ratio = math.log(float(mat[i][j])) / math.log(10 ** 18)
                assert abs(ratio - float(base.entries[i][j])) < 0.05

    def test_default_lift_boosts_witness_cells(self):
        spec = default_lift(WORKED)
        assert spec.boost == math.factorial(3)
        assert spec.boost_cells == {(0, 1), (1, 2)}

    def test_t_must_exceed_one(self):
        with pytest.raises(DomainError):
            lift_eval(default_lift(WORKED), 1)


class TestDequantSlope:
    def test_worked_instance(self):
        res = dequant_slope(WORKED)
        assert res.qvol_value == 2
        assert abs(res.slope - 2) < 0.05

    def test_equal_columns_degenerate(self):
        A = mk([[0, 0], [1, 1]])
        with pytest.raises(DegenerateHullError):
            dequant_slope(A)

    def test_square_generic_degenerate_hull(self):
        # sign-generic, but d points in R^d never span positive volume
        A = mk([[1, 2], [3, 5]])
        with pytest.raises(DegenerateHullError):
            dequant_slope(A)

    def test_random_generic_instances(self):
        rng = random.Random(404)
        done = 0
        while done < 10:
            m = rng.randint(3, 5)
            A = TropMatrix(
                MAX,
                tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(m))
                      for _ in range(2)),
            )
            if sign_generic(A, bar=True).verdict is not ParityVerdict.SAME:
                continue
            res = dequant_slope(A)
            assert abs(res.slope - float(res.qvol_value)) < 0.05
            done += 1

    def test_one_scan_of_each_kind(self, solve_counter):
        # one cofactor table serves the bar scan (one 3x3 subset, with a
        # unique optimum) and the qvol+ scan (three 2x2 subsets); the one
        # solve is the witness's, which also places the lift's boost
        res = dequant_slope(WORKED)
        assert solve_counter == [2]
        assert res.qvol_value == 2
        solve_counter.clear()
        want = default_lift(WORKED)
        assert solve_counter == [2]
        assert [row[:2] for row in res.rows] == [
            (t, hull_volume([tuple(c) for c in zip(*lift_eval(want, t))])[0])
            for t in sorted(DEFAULT_T_GRID)]

    @pytest.mark.parametrize("A, grid, error, match", [
        (mk([[0, 0], [0, 0], [0, 0], [0, 0]]), (10,), DomainError, "at most 3 rows"),
        (PAPER_A, (10,), DegenerateHullError, "columns coincide"),  # before the scan
        (mk([[0, 5], [0, 0]]), (10,), NotSignGenericError, "mixed parity"),  # before the grid
        (mk([[1, 2], [3, 5]]), (10,), DomainError, "two distinct t"),  # before the lift
        (mk([[1, 2], [3, 5]]), (10, 100), DegenerateHullError, "zero volume at t=10"),
    ])
    def test_error_order(self, A, grid, error, match):
        with pytest.raises(error, match=match):
            dequant_slope(A, t_grid=grid)

    def test_rows_report_grid(self):
        res = dequant_slope(WORKED, t_grid=(10, 100))
        assert [t for t, _, _ in res.rows] == [10, 100]

    @pytest.mark.parametrize("grid", [(10,), (100, 100)])
    def test_slope_needs_two_distinct_t(self, grid):
        with pytest.raises(DomainError):
            dequant_slope(WORKED, t_grid=grid)

    @pytest.mark.parametrize("big", [60, Fraction(121, 2)], ids=["integer", "fraction"])
    def test_volumes_past_double_range_rejected(self, big):
        with pytest.raises(DomainError):
            dequant_slope(mk([[0, 1, 0], [0, 0, big]]))

    def test_shifted_exponents_track_shifted_qvol(self):
        # adding c to every exponent multiplies volumes by ~t**(d*c), so the
        # slope follows the qvol of the shifted matrix (qvol + d*c)
        c = 2
        shifted = TropMatrix(
            MAX, tuple(tuple(x + c for x in row) for row in WORKED.entries)
        )
        res = dequant_slope(shifted)
        assert res.qvol_value == 2 + 2 * c
        assert abs(res.slope - float(res.qvol_value)) < 0.05


class TestVolumeBound:
    def test_worked_instance(self):
        rep = volume_bound_check([[1, 3, 1], [1, 1, 3]])
        assert rep.volume == 2
        assert rep.alpha == 1
        assert abs(rep.bound - 27) < 1e-9
        assert rep.holds

    def test_collinear(self):
        rep = volume_bound_check([[1, 2, 3], [1, 2, 3]])
        assert rep.volume == 0
        assert rep.holds

    def test_zero_entries_map_to_bottom(self):
        rep = volume_bound_check([[0, 0, 0], [1, 2, 3]])
        assert rep.volume == 0 and rep.holds

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            volume_bound_check([[1, -1], [0, 1]])

    @pytest.mark.parametrize("big", [10 ** 400, 10 ** 200], ids=["log", "exp"])
    def test_values_past_double_range_rejected(self, big):
        # 10**400 has no float logarithm; 10**200 cubed overflows exp()
        rows = [[big, 1, 1], [1, big, 1], [1, 1, big]]
        with pytest.raises(DomainError):
            volume_bound_check(rows)

    def test_random_sweep(self):
        rng = random.Random(505)
        for _ in range(120):
            d = rng.choice([2, 3])
            m = rng.randint(d + 1, 7)
            rows = [
                [Fraction(rng.randint(0, 12), 3) for _ in range(m)]
                for _ in range(d)
            ]
            rep = volume_bound_check(rows)
            assert rep.holds, f"bound violated for {rows}: {rep}"


class TestCauchyBinet:
    """The product formula holds whenever the optima of the selected product
    submatrix share one parity; without that hypothesis only the >= direction
    survives (a non-injective factorization can strictly dominate, and every
    such case exhibits an opposite-parity pair of optima)."""

    @staticmethod
    def _rhs(B, C, cols):
        from itertools import combinations

        from conftest import brute_tper

        rhs = None
        for K in combinations(range(B.cols), B.rows):
            left = brute_tper(
                TropMatrix(MAX, tuple(tuple(r[c] for c in K) for r in B.entries))
            )
            right = brute_tper(
                TropMatrix(MAX, tuple(tuple(C.entries[k][j] for j in cols) for k in K))
            )
            if left is not None and right is not None:
                cand = left + right
                if rhs is None or cand > rhs:
                    rhs = cand
        return rhs

    def test_random_triples_on_parity_domain(self):
        from tropiso import parity_report, trop_mat_mul

        rng = random.Random(606)
        checked = 0
        while checked < 120:
            d = rng.randint(1, 3)
            p = rng.randint(d, 5)
            m = rng.randint(d, 5)
            B = random_with_bottom(rng, d, p, MAX, p_bottom=0.15)
            C = random_with_bottom(rng, p, m, MAX, p_bottom=0.15)
            cols = sorted(rng.sample(range(m), d))
            A = trop_mat_mul(B, C)
            sub = TropMatrix(
                MAX, tuple(tuple(r[c] for c in cols) for r in A.entries)
            )
            if parity_report(sub).verdict is not ParityVerdict.SAME:
                continue
            assert cauchy_binet_check(B, C, cols)
            checked += 1

    def test_product_dominates_unconditionally(self):
        from conftest import brute_tper
        from tropiso import trop_mat_mul

        rng = random.Random(607)
        for _ in range(120):
            d = rng.randint(1, 3)
            p = rng.randint(d, 5)
            m = rng.randint(d, 5)
            B = random_finite(rng, d, p, MAX)
            C = random_finite(rng, p, m, MAX)
            cols = sorted(rng.sample(range(m), d))
            A = trop_mat_mul(B, C)
            sub = TropMatrix(MAX, tuple(tuple(r[c] for c in cols) for r in A.entries))
            rhs = self._rhs(B, C, cols)
            assert brute_tper(sub) >= rhs

    def test_verdict_matches_oracle(self):
        from tropiso import trop_mat_mul

        rng = random.Random(608)
        verdicts = set()
        for _ in range(150):
            d = rng.randint(1, 3)
            p = rng.randint(d, 5)
            m = rng.randint(d, 5)
            B = random_finite(rng, d, p, MAX, lo=-2, hi=2, den=rng.choice([1, 3]))
            C = random_with_bottom(rng, p, m, MAX, p_bottom=0.2, lo=0, hi=2)
            cols = sorted(rng.sample(range(m), d))
            A = trop_mat_mul(B, C)
            sub = TropMatrix(MAX, tuple(tuple(r[c] for c in cols) for r in A.entries))
            expected = brute_tper(sub) == self._rhs(B, C, cols)
            assert cauchy_binet_check(B, C, cols) is expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_scales_and_bottom_against_oracle(self):
        # B and C drawn on disjoint denominator sets, so their integer grids
        # mostly have different scales, with Bottom cells in either factor;
        # both verdicts occur
        from tropiso import trop_mat_mul

        def draw(rows, cols, dens, p_bottom):
            return TropMatrix(MAX, tuple(
                tuple(None if rng.random() < p_bottom
                      else Fraction(rng.randint(0, 2 * q), q) for q in rng.choices(dens, k=cols))
                for _ in range(rows)))

        rng = random.Random(609)
        seen = set()
        for _ in range(300):
            d = rng.randint(1, 3)
            p = rng.randint(d, 5)
            m = rng.randint(d, 4)
            dens_b, dens_c = rng.choice((((2, 3), (5, 7)), ((4,), (5,)), ((1,), (7,))))
            bottom_in_b = rng.random() < 0.5
            B = draw(d, p, dens_b, 0.25 if bottom_in_b else 0)
            C = draw(p, m, dens_c, 0 if bottom_in_b else 0.25)
            cols = sorted(rng.sample(range(m), d))
            sub = TropMatrix(MAX, tuple(tuple(r[c] for c in cols)
                                        for r in trop_mat_mul(B, C).entries))
            expected = brute_tper(sub) == self._rhs(B, C, cols)
            assert cauchy_binet_check(B, C, cols) is expected, (B, C, cols)
            seen.add((bottom_in_b, expected))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_mixed_parity_counterexample(self):
        # one dominant column of B feeds both rows, so the best
        # factorization reuses it and the selection formula undershoots
        B = mk([[10, 0], [10, 0]])
        C = mk([[0, 0], [0, 0]])
        assert tper(mk([[20, 20], [20, 20]])) == 40  # sanity: tper of B (x) C
        assert not cauchy_binet_check(B, C, [0, 1])

    def test_identity_pattern(self):
        B = random_finite(random.Random(8), 2, 3, MAX)
        ident = TropMatrix.from_rows(
            [[0, "-inf", "-inf"], ["-inf", 0, "-inf"], ["-inf", "-inf", 0]], MAX
        )
        assert cauchy_binet_check(B, ident, [0, 1])

    def test_single_row(self):
        B = mk([[1, 2]])
        C = mk([[0, 3], [1, 0]])
        assert cauchy_binet_check(B, C, [1])


class TestIdempotentMeasure:
    def test_same_matrix(self):
        out = idempotent_measure_check(WORKED, WORKED)
        assert out is None or out is True

    def test_worked_union(self):
        single = mk([[-5], [-5]])
        assert idempotent_measure_check(WORKED, single) is True

    def test_checker_agrees_with_oracle(self):
        rng = random.Random(707)
        checked = equal = 0
        for _ in range(200):
            m = rng.randint(2, 4)
            p = rng.randint(1, 4)
            A = random_finite(rng, 2, m, MAX, lo=-3, hi=3, den=1)
            B = random_finite(rng, 2, p, MAX, lo=-3, hi=3, den=1)
            out = idempotent_measure_check(A, B)
            if out is None:
                continue
            C = TropMatrix(MAX, tuple(ra + rb for ra, rb in zip(A.entries, B.entries)))
            lhs = brute_qvol_plus(C)
            sides = [brute_qvol_plus(M) for M in (A, B) if M.cols >= 2]
            rhs = max(sides) if sides else None
            assert out == (lhs == rhs)
            checked += 1
            equal += out
        assert checked > 20 and equal > 10  # the sweep must not be vacuous

    def test_union_can_outgrow_both_parts(self):
        # a far-away extra generator inflates the hull of the union: the
        # mixed column pair {2, 3} scores 4 while the parts score 1 and
        # Bottom, even though the concatenated bar matrix is sign generic
        A = mk([[0, -1, -2], [-2, -1, 1]])
        B = mk([[3], [3]])
        C = TropMatrix(MAX, tuple(ra + rb for ra, rb in zip(A.entries, B.entries)))
        assert sign_generic(C, bar=True).verdict is ParityVerdict.SAME
        assert qvol_plus(C, compute_parity=False).value == 4
        assert qvol_plus(A, compute_parity=False).value == 1
        assert idempotent_measure_check(A, B) is False

    def test_row_mismatch(self):
        with pytest.raises(DimensionError):
            idempotent_measure_check(WORKED, mk([[0, 0]]))

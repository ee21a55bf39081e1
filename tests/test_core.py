import ast
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropiso.core as core
from conftest import brute_tdiam, brute_tvol, random_finite, scaled_grid, unit_matrix, family3
from tropiso import (
    BottomEntryError,
    DimensionError,
    DomainError,
    Semiring,
    TropMatrix,
    tdist,
    tdiam,
    translate,
    trop_add,
    trop_identity,
    trop_mat_mul,
    tvol,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=16)
DENOMINATORS = (1, 2, 9, 10**6, 10**9 + 7)


def random_cells(rng, n, p_bottom=0.0):
    """n cells, Bottom with probability ``p_bottom``, else a signed rational
    over one of ``DENOMINATORS``."""
    return tuple(None if rng.random() < p_bottom else
                 Fraction(rng.randint(-10**9, 10**9), rng.choice(DENOMINATORS))
                 for _ in range(n))


class TestSemiring:
    def test_combine_neutral(self):
        assert Semiring.MIN.combine(None, Fraction(3)) == 3
        assert Semiring.MAX.combine(Fraction(-5), None) == -5
        assert Semiring.MAX.combine(None, None) is None

    def test_combine_orientation(self):
        assert Semiring.MIN.combine(Fraction(2), Fraction(5)) == 2
        assert Semiring.MAX.combine(Fraction(2), Fraction(5)) == 5

    def test_times_absorbing(self):
        assert Semiring.MIN.times(None, Fraction(1)) is None
        assert Semiring.MAX.times(Fraction(1), Fraction(2)) == 3


class TestTdist:
    def test_worked_example(self):
        assert tdist([3, 1], [1, 2]) == 3

    def test_constant_difference_is_zero(self):
        assert tdist([5, 5, 5], [2, 2, 2]) == 0

    def test_homogeneity(self):
        base = tdist([0, 0], [0, 1])
        assert base == 1
        assert tdist([0, 0], [0, 2]) == 2

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            tdist([1, 2], [1, 2, 3])

    def test_bottom_rejected(self):
        with pytest.raises(BottomEntryError):
            tdist([1, None], [0, 0])

    @given(st.lists(rationals, min_size=1, max_size=6), rationals)
    @settings(max_examples=60, deadline=None)
    def test_one_translation_invariance(self, v, c):
        w = [x + 1 for x in v]
        assert tdist([x + c for x in v], w) == tdist(v, w)

    @given(st.lists(st.tuples(rationals, rationals, rationals), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_common_translation_invariance(self, triples):
        u = [a for a, _, _ in triples]
        v = [b for _, b, _ in triples]
        w = [c for _, _, c in triples]
        assert tdist([a + b for a, b in zip(u, v)],
                     [a + c for a, c in zip(u, w)]) == tdist(v, w)

    @given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=6),
           rationals)
    @settings(max_examples=60, deadline=None)
    def test_scaling(self, pairs, lam):
        v = [a for a, _ in pairs]
        w = [b for _, b in pairs]
        assert tdist([lam * a for a in v], [lam * b for b in w]) == abs(lam) * tdist(v, w)

    @given(st.lists(st.tuples(rationals, rationals, rationals), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, triples):
        u = [a for a, _, _ in triples]
        v = [b for _, b, _ in triples]
        w = [c for _, _, c in triples]
        assert tdist(u, w) <= tdist(u, v) + tdist(v, w)

    def test_zero_iff_constant_difference(self):
        assert tdist([1, 2, 3], [0, 1, 2]) == 0
        assert tdist([1, 2, 3], [0, 1, 1]) != 0


class TestTdiam:
    @pytest.mark.parametrize("d", range(2, 11))
    def test_unit_matrix(self, d):
        assert tdiam(unit_matrix(d, Semiring.MAX)) == 2
        assert tdiam(unit_matrix(d, Semiring.MIN)) == 2

    def test_identical_rows(self):
        A = TropMatrix.from_rows([[1, 2, 3]] * 3, Semiring.MAX)
        assert tdiam(A) == 0

    def test_family_member(self):
        assert tdiam(family3(1)) == 2

    def test_transpose_and_permutation_invariance(self):
        rng = random.Random(7)
        for _ in range(25):
            A = random_finite(rng, 4, 4, Semiring.MAX)
            assert tdiam(A) == tdiam(A.transpose())
            perm = list(range(4))
            rng.shuffle(perm)
            assert tdiam(A.permute(row_perm=perm)) == tdiam(A)
            assert tdiam(A.permute(col_perm=perm)) == tdiam(A)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            tdiam(TropMatrix.from_rows([[1, 2, 3], [4, 5, 6]], Semiring.MAX))

    def test_rejects_bottom(self):
        with pytest.raises(BottomEntryError):
            tdiam(TropMatrix.from_rows([[0, None], [0, 0]], Semiring.MIN))

    def test_matches_fraction_oracle(self):
        rng = random.Random(25)
        for d in range(1, 9):
            for sr in Semiring:
                for _ in range(12):
                    A = TropMatrix(sr, tuple(random_cells(rng, d) for _ in range(d)))
                    assert tdiam(A) == brute_tdiam(A), A


class TestScaledGrid:
    """The one integer-grid encoding: cells times the lcm of their
    denominators, Bottom kept as None, negated for max-plus."""

    def test_scaled_grid(self):
        rng = random.Random(20)
        cases = [TropMatrix(sr, ((None, None), (None, None))) for sr in Semiring]
        for d in range(1, 9):
            for sr in Semiring:
                for _ in range(10):
                    cases.append(TropMatrix(sr, tuple(random_cells(rng, d, 0.2)
                                                      for _ in range(d))))
        for A in cases:
            grid, scale = scaled_grid(A)
            sign = -1 if A.semiring is Semiring.MAX else 1
            want = [[None if c is None else sign * c for c in row] for row in grid]
            assert core._scaled_grid(A) == (want, scale, sign)

    def test_scaled_rows(self):
        rng = random.Random(21)
        cases = [((None, None), (None,)), ((None,) * 3,) * 2]
        for _ in range(200):  # B stacked on C, as the Cauchy-Binet check scales them
            d, n, m = rng.randint(1, 4), rng.randint(1, 6), rng.randint(1, 6)
            cases.append(tuple(random_cells(rng, n, 0.2) for _ in range(d))
                         + tuple(random_cells(rng, m, 0.2) for _ in range(n)))
        for _ in range(50):
            cases.append(tuple(tuple(Fraction(rng.uniform(-1e6, 1e6)) for _ in range(3))
                               for _ in range(rng.randint(1, 5))))
        cases.append(((Fraction(0.1), Fraction(2.5e-8)), (Fraction(-1e300),)))
        for rows in cases:
            grid, scale = scaled_grid(SimpleNamespace(entries=rows))
            for sign in (1, -1):
                want = [[None if c is None else sign * c for c in row] for row in grid]
                assert core._scaled(rows, sign) == (want, scale), rows
            assert core._scaled(rows) == (grid, scale)

    def test_encoding_lives_in_core(self):
        """``math.lcm`` is called only by the grid routine and by the
        transportation LP (the independent qvol+ route), and the layers that
        read the grid take it from ``core``, not from ``assignment``."""
        lcm_calls, imports = set(), {}
        for path in sorted(Path(core.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            imports[path.stem] = {  # modules, and names imported from them
                name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in [getattr(node, "module", None)] + [a.name for a in node.names]}
            parent = {child: node for node in ast.walk(tree)
                      for child in ast.iter_child_nodes(node)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "math":
                    assert "lcm" not in {a.name for a in node.names}, path.name
                if (isinstance(node, ast.Attribute) and node.attr == "lcm"
                        and isinstance(node.value, ast.Name) and node.value.id == "math"):
                    fn = parent.get(node)
                    while fn is not None and not isinstance(fn, ast.FunctionDef):
                        fn = parent.get(fn)
                    lcm_calls.add((path.stem, fn and fn.name))
        assert lcm_calls == {("core", "_scaled"), ("dequant", "_qvol_transport")}
        for stem in ("polytrope", "geometry"):
            assert not {m for m in imports[stem] if m and m.endswith("assignment")}, stem


class TestTropMatMul:
    def test_identity_neutral(self):
        B = family3(1)
        I = trop_identity(3, Semiring.MIN)
        assert trop_mat_mul(I, B) == B
        assert trop_mat_mul(B, I) == B

    def test_family_idempotent(self):
        B = family3(1)
        assert trop_mat_mul(B, B) == B

    def test_entrywise_worked_example(self):
        A = TropMatrix.from_rows([[0, 1], [1, 0]], Semiring.MIN)
        B = TropMatrix.from_rows([[0, 3], [3, 0]], Semiring.MIN)
        # C_11 = min(0+0, 1+3), C_12 = min(0+3, 1+0), symmetric below
        assert trop_mat_mul(A, B) == TropMatrix.from_rows([[0, 1], [1, 0]], Semiring.MIN)

    def test_semiring_mismatch(self):
        A = TropMatrix.from_rows([[0]], Semiring.MIN)
        B = TropMatrix.from_rows([[0]], Semiring.MAX)
        with pytest.raises(DomainError):
            trop_mat_mul(A, B)

    def test_dimension_mismatch(self):
        A = TropMatrix.from_rows([[0, 1]], Semiring.MIN)
        with pytest.raises(DimensionError):
            trop_mat_mul(A, A)

    def test_associativity_and_distributivity_sampled(self):
        rng = random.Random(11)
        for _ in range(20):
            sr = rng.choice([Semiring.MIN, Semiring.MAX])
            A = random_finite(rng, 3, 2, sr)
            B = random_finite(rng, 2, 4, sr)
            C = random_finite(rng, 4, 3, sr)
            assert trop_mat_mul(trop_mat_mul(A, B), C) == trop_mat_mul(A, trop_mat_mul(B, C))
            D = random_finite(rng, 2, 4, sr)
            left = trop_mat_mul(A, trop_add(B, D))
            right = trop_add(trop_mat_mul(A, B), trop_mat_mul(A, D))
            assert left == right


class TestTranslate:
    def test_zero_offsets_identity(self):
        A = unit_matrix(3, Semiring.MAX)
        assert translate(A, [0, 0, 0], [0, 0, 0]) == A

    def test_constant_row_offset_keeps_diameter(self):
        A = unit_matrix(4, Semiring.MAX)
        shifted = translate(A, [7, 7, 7, 7], [0, 0, 0, 0])
        assert tdiam(shifted) == 2

    def test_random_offsets_keep_tvol(self):
        rng = random.Random(3)
        for _ in range(15):
            A = random_finite(rng, 4, 4, Semiring.MAX)
            r = [Fraction(rng.randint(-8, 8), 2) for _ in range(4)]
            c = [Fraction(rng.randint(-8, 8), 2) for _ in range(4)]
            B = translate(A, r, c)
            assert brute_tvol(B) == brute_tvol(A)
            assert tvol(B) == tvol(A)

    def test_offset_length_check(self):
        A = unit_matrix(2, Semiring.MAX)
        with pytest.raises(DimensionError):
            translate(A, [1], [0, 0])


class TestMatrixBasics:
    def test_bottom_tokens_by_semiring(self):
        A = TropMatrix.from_rows([[0, "-inf"], [1, 2]], Semiring.MAX)
        assert A.entries[0][1] is None
        with pytest.raises(Exception):
            TropMatrix.from_rows([[0, "inf"]], Semiring.MAX)

    def test_permute_roundtrip(self):
        A = TropMatrix.from_rows([[1, 2], [3, 4]], Semiring.MIN)
        B = A.permute(row_perm=[1, 0], col_perm=[1, 0])
        assert B.entries == ((Fraction(4), Fraction(3)), (Fraction(2), Fraction(1)))

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            TropMatrix.from_rows([[1, 2], [3]], Semiring.MIN)

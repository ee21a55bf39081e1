import dataclasses
import math
import random
from fractions import Fraction

import pytest

from conftest import (
    D4_MATRIX,
    brute_facet_profile,
    brute_genericity_check,
    brute_irredundant_facets,
    brute_is_kleene_star,
    brute_vertices,
    family3,
    random_finite,
)
from tropiso import (
    DomainError,
    NegativeCycleError,
    Semiring,
    TropMatrix,
    UnboundedPolytopeError,
    build_polytrope,
    enumerate_vertices,
    facet_incidence,
    facet_profile,
    genericity_check,
    irredundant_facets,
    kleene_star,
    polytrope_report,
    project_to_cone,
    render_svg,
    sample_isodiametric,
    tconv_membership,
    trop_mat_mul,
)
from tropiso import polytrope
from tropiso.polytrope import is_kleene_star, nonredundant_generator_mask

MIN = Semiring.MIN


class TestKleeneStar:
    def test_near_isodiametric_fixed(self):
        for lam in (0, Fraction(1, 2), 1, 2):
            B = family3(lam)
            assert kleene_star(B) == B

    def test_shortcut_path(self):
        B = TropMatrix.from_rows([[0, 1, 5], [1, 0, 1], [5, 1, 0]], Semiring.MIN)
        expected = TropMatrix.from_rows([[0, 1, 2], [1, 0, 1], [2, 1, 0]], Semiring.MIN)
        assert kleene_star(B) == expected

    def test_negative_cycle_detected(self):
        B = TropMatrix.from_rows([[0, 1], [-2, 0]], Semiring.MIN)
        with pytest.raises(NegativeCycleError) as err:
            kleene_star(B)
        assert err.value.weight == -1
        assert sorted(err.value.cycle) == [0, 1]

    def test_negative_cycle_pinned(self):
        # two negative cycles, 0->1->2->0 (weight -1/3) and 1->2->3->1;
        # Bellman-Ford from the supersource reports the second
        B = TropMatrix.from_rows(
            [[0, "1/2", "inf", "7/3"], ["inf", 0, "-2/3", "5/4"],
             ["-1/6", "inf", 0, "-3/4"], ["inf", "-1/5", "inf", 0]], MIN)
        with pytest.raises(NegativeCycleError) as err:
            kleene_star(B)
        assert err.value.cycle == (1, 2, 3)
        assert err.value.weight == Fraction(-97, 60)
        assert isinstance(err.value.weight, Fraction)
        assert str(err.value) == "negative cycle 1->2->3->1 of weight -97/60"

    def test_negative_diagonal_is_self_loop(self):
        B = TropMatrix.from_rows([[-1, 0], [0, 0]], Semiring.MIN)
        with pytest.raises(NegativeCycleError) as err:
            kleene_star(B)
        assert err.value.cycle == (0,)

    def test_idempotent(self):
        rng = random.Random(17)
        for _ in range(30):
            d = rng.randint(2, 5)
            B = random_finite(rng, d, d, Semiring.MIN, lo=0, hi=4)
            star = kleene_star(B)
            assert kleene_star(star) == star
            assert trop_mat_mul(star, star) == star
            assert is_kleene_star(star)

    def test_bottom_entries_allowed(self):
        B = TropMatrix.from_rows([[0, 1], ["inf", 0]], Semiring.MIN)
        star = kleene_star(B)
        assert star.entries[1][0] is None

    def test_requires_min_plus(self):
        B = TropMatrix.from_rows([[0, 1], [1, 0]], Semiring.MAX)
        with pytest.raises(DomainError):
            kleene_star(B)


class TestFacets:
    @pytest.mark.parametrize("lam,count", [
        (0, 3), (Fraction(1, 2), 6), (1, 6), (Fraction(3, 2), 6), (2, 3),
    ])
    def test_family_counts(self, lam, count):
        # interior parameters keep all six inequalities facet-defining; at
        # the endpoints the triple sums hit both bounds and a whole cyclic
        # class of three inequalities becomes implied, leaving a triangle
        assert len(irredundant_facets(family3(lam))) == count

    def test_d4_matrix(self):
        assert len(irredundant_facets(D4_MATRIX)) == 12

    def test_triple_sum_criterion_on_samples(self):
        # facet (i, j) is irredundant iff every triple sum through (i, j)
        # stays strictly inside (2, 4)
        for seed in range(4):
            B = sample_isodiametric(4, seed)
            facets = set(irredundant_facets(B))
            d = B.rows
            for i in range(d):
                for j in range(d):
                    if i == j:
                        continue
                    strict = all(
                        2 < B.entries[i][j] + B.entries[j][k] + B.entries[k][i] < 4
                        for k in range(d) if k not in (i, j)
                    )
                    assert ((i, j) in facets) == strict

    def test_requires_star(self):
        B = TropMatrix.from_rows([[0, 1, 5], [1, 0, 1], [5, 1, 0]], Semiring.MIN)
        with pytest.raises(DomainError):
            irredundant_facets(B)  # not closed: 5 > 1 + 1


class TestVertices:
    def test_hexagon(self):
        P = build_polytrope(family3(1))
        assert P.vertices == (
            (-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1),
        )

    def test_degenerate_triangle(self):
        P = build_polytrope(family3(0))
        assert P.vertices == ((-1, -1), (-1, 1), (1, 1))

    def test_d4_vertex_count_and_simplicity(self):
        P = build_polytrope(D4_MATRIX)
        assert len(P.vertices) == 20
        bound = {(i, j): b for i, j, b in P.hrep}
        for pt in P.vertices:
            incident = sum(
                1 for f in P.irredundant
                if (pt[f[0] - 1] if f[0] else Fraction(0))
                - (pt[f[1] - 1] if f[1] else Fraction(0)) == bound[f]
            )
            assert incident == 3

    def test_vertices_in_diameter_box(self):
        for seed in range(3):
            B = sample_isodiametric(4, seed)
            P = build_polytrope(B)
            for pt in P.vertices:
                for k, y in enumerate(pt, start=1):
                    assert -B.entries[0][k] <= y <= B.entries[k][0]

    def test_unbounded_detected(self):
        B = TropMatrix.from_rows([[0, 1], ["inf", 0]], Semiring.MIN)
        star = kleene_star(B)
        hrep = [(0, 1, star.entries[0][1])]
        with pytest.raises(UnboundedPolytopeError):
            enumerate_vertices(hrep, 2)

    def test_bound_implied_by_a_path(self):
        """x_0 - x_2 has no inequality of its own, but x_0 - x_1 - x_2 bounds it."""
        hrep = [(i, j, Fraction(1)) for i, j in ((0, 1), (1, 2), (2, 0), (1, 0), (2, 1))]
        completed = hrep + [(0, 2, Fraction(2))]
        assert enumerate_vertices(hrep, 3) == enumerate_vertices(completed, 3)
        assert enumerate_vertices(hrep, 3) == brute_vertices(completed, 3)
        assert len(enumerate_vertices(hrep, 3)) == 5

    def test_infeasible_before_unbounded(self):
        assert enumerate_vertices([(0, 1, Fraction(-1)), (1, 0, Fraction(0))], 3) == []

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            enumerate_vertices([], 7)


def _hrep(d, bound):
    return [(i, j, bound(i, j)) for i in range(d) for j in range(d) if i != j]


def _random_hrep(kind, d, seed):
    """Raw (generally not closed) inequality systems of three kinds."""
    rng = random.Random(seed)
    if kind == "random":
        den = rng.randint(1, 6)
        return _hrep(d, lambda i, j: Fraction(rng.randint(1, 4 * den), den))
    if kind == "tied":
        return _hrep(d, lambda i, j: Fraction(rng.randint(1, 3)))
    # lower-dimensional: zero-slack pairs pin some differences
    x = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(d)]
    slack = {}
    for i in range(d):
        for j in range(i + 1, d):
            slack[i, j] = rng.choice([0, Fraction(1, 2), 1, 2])
            slack[j, i] = 0 if slack[i, j] == 0 else rng.choice([Fraction(1, 2), 1, 2])
    return _hrep(d, lambda i, j: x[i] - x[j] + slack[i, j])


class TestVertexWalk:
    """The graph walk against the elimination oracle, exact list equality."""

    @pytest.mark.parametrize("kind", ["random", "tied", "flat"])
    @pytest.mark.parametrize("d,count", [(2, 10), (3, 10), (4, 4), (5, 1)])
    def test_matches_brute_force_random(self, kind, d, count):
        for k in range(count):
            hrep = _random_hrep(kind, d, seed=1000 * d + k)
            assert enumerate_vertices(hrep, d) == brute_vertices(hrep, d)

    @pytest.mark.parametrize("B", [D4_MATRIX, family3(0), family3(2)],
                             ids=["d4", "lam0", "lam2"])
    def test_matches_brute_force_paper(self, B):
        P = build_polytrope(B)
        assert list(P.vertices) == brute_vertices(P.hrep, P.dim)

    def test_raw_hrep_with_duplicates(self):
        hrep = _hrep(3, lambda i, j: Fraction(5 if {i, j} == {0, 2} else 1))
        hrep.append((1, 0, Fraction(1, 2)))
        assert enumerate_vertices(hrep, 3) == brute_vertices(hrep, 3)

    def test_infeasible(self):
        hrep = _hrep(3, lambda i, j: Fraction(-1 if (i, j) == (0, 1) else 0))
        assert enumerate_vertices(hrep, 3) == brute_vertices(hrep, 3) == []

    def test_dimension_one(self):
        assert enumerate_vertices([], 1) == brute_vertices([], 1) == [()]

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    @pytest.mark.parametrize("strict", [False, True])
    def test_isodiametric_samples_are_simple(self, d, strict):
        for seed in range(4):
            P = build_polytrope(sample_isodiametric(d, seed, require_strict=strict))
            assert genericity_check(P)
            assert len(P.vertices) == math.comb(2 * d - 2, d - 1)


class TestProfileAndGenericity:
    def test_d4_profile(self):
        P = build_polytrope(D4_MATRIX)
        assert sorted(P.facet_profile.values()) == [4, 4, 4, 5, 5, 5, 5, 5, 5, 6, 6, 6]

    def test_d4_no_adjacent_hexagons(self):
        P = build_polytrope(D4_MATRIX)
        bound = {(i, j): b for i, j, b in P.hrep}

        def verts_of(f):
            i, j = f
            out = set()
            for pt in P.vertices:
                xi = pt[i - 1] if i else Fraction(0)
                xj = pt[j - 1] if j else Fraction(0)
                if xi - xj == bound[f]:
                    out.add(pt)
            return out

        hexes = [f for f, n in P.facet_profile.items() if n == 6]
        assert len(hexes) == 3
        for a, f in enumerate(hexes):
            for g in hexes[a + 1:]:
                assert len(verts_of(f) & verts_of(g)) < 2

    def test_hexagon_edges(self):
        P = build_polytrope(family3(1))
        assert sorted(P.facet_profile.values()) == [2] * 6

    def test_genericity(self):
        assert genericity_check(build_polytrope(D4_MATRIX))
        assert genericity_check(build_polytrope(family3(1)))
        assert not genericity_check(build_polytrope(family3(0)))
        assert not genericity_check(build_polytrope(family3(2)))

    def test_double_counting_when_simple(self):
        for seed in range(4):
            B = sample_isodiametric(4, seed, require_strict=True)
            P = build_polytrope(B)
            if genericity_check(P):
                assert sum(P.facet_profile.values()) == (P.dim - 1) * len(P.vertices)

    def test_facet_vertex_span(self):
        # every irredundant facet of the d=4 example carries at least d-1
        # vertices of affine dimension d-2
        from tropiso.geometry import _affine_rank

        P = build_polytrope(D4_MATRIX)
        bound = {(i, j): b for i, j, b in P.hrep}
        for f in P.irredundant:
            pts = [
                pt for pt in P.vertices
                if (pt[f[0] - 1] if f[0] else Fraction(0))
                - (pt[f[1] - 1] if f[1] else Fraction(0)) == bound[f]
            ]
            assert len(pts) >= P.dim - 1
            assert _affine_rank(pts) == P.dim - 2


class TestMembership:
    def test_columns_belong(self):
        B = family3(1)
        for j in range(3):
            assert tconv_membership(B, B.col(j))

    def test_tropical_midpoint(self):
        B = family3(1)
        mid = tuple(min(a, b) for a, b in zip(B.col(0), B.col(1)))
        assert tconv_membership(B, mid)

    def test_shifted_column_outside(self):
        B = family3(1)
        shifted = tuple(c + s for c, s in zip(B.col(0), (3, 0, 0)))
        assert not tconv_membership(B, shifted)

    def test_agrees_with_residuation(self):
        rng = random.Random(41)
        B = family3(Fraction(1, 2))
        for _ in range(80):
            x = tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(3))
            via_hrep = tconv_membership(B, x)
            via_proj = project_to_cone(B, x) == x
            assert via_hrep == via_proj

    def test_requires_near_isodiametric(self):
        B = TropMatrix.from_rows([[0, 5], [5, 0]], Semiring.MIN)
        with pytest.raises(DomainError):
            tconv_membership(B, (0, 0))


class TestRenderSvg:
    def test_hexagon_markers(self):
        P = build_polytrope(family3(1))
        svg = render_svg(P)
        assert svg.count('fill="red"') == 3
        assert svg.count('fill="white"') == 3
        assert "<polygon" in svg

    @pytest.mark.parametrize("lam", [0, 2])
    def test_degenerate_generators_coincide(self, lam):
        B = family3(lam)
        P = build_polytrope(B)
        svg = render_svg(P)
        assert svg.count('fill="red"') == 3
        assert svg.count('fill="white"') == 0

    def test_mirror_symmetry(self):
        # the lam and 2-lam members are reflections of each other
        v0 = {(y, x) for x, y in build_polytrope(family3(0)).vertices}
        v2 = set(build_polytrope(family3(2)).vertices)
        assert v0 == v2

    def test_deterministic(self):
        P = build_polytrope(family3(Fraction(3, 2)))
        assert render_svg(P) == render_svg(P)

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            render_svg(build_polytrope(D4_MATRIX))


class TestGenerators:
    def test_hexagon_generator_mask(self):
        assert nonredundant_generator_mask(family3(1)) == [True, True, True]

    def test_report_shape(self):
        report = polytrope_report(build_polytrope(family3(1)))
        assert report["dim"] == 3
        assert len(report["facets"]) == 6
        assert len(report["vertices"]) == 6
        assert report["simple"] is True
        assert all(isinstance(v, str) for pt in report["vertices"] for v in pt)


def _star_cases(d, seed):
    """Kleene stars and near misses on one rational grid per matrix.

    Random min-plus matrices with denominators 1-6, Bottom arcs (half of
    them with a node no arc enters), negative arcs and a random diagonal.
    Each star comes with a copy whose diagonal is nonzero and, for d >= 3,
    copies with one triangle violated by a raised or a missing entry.
    """
    rng = random.Random(seed)
    for _ in range(12):
        den = rng.randint(1, 6)
        rows = [[None if i != j and rng.random() < 0.2
                 else Fraction(rng.randint(-den, -1) if rng.random() < 0.5 / d
                               else rng.randint(0, 6 * den), den)
                 for j in range(d)] for i in range(d)]
        t = rng.randrange(2 * d)
        for i in range(d):  # no arc into node t: its column stays Bottom
            if i != t < d:
                rows[i][t] = None
        B = TropMatrix(MIN, tuple(map(tuple, rows)))
        yield B
        try:
            S = kleene_star(B)
        except NegativeCycleError:
            continue
        yield S
        e = [list(r) for r in S.entries]
        i = rng.randrange(d)
        e[i][i] = Fraction(rng.choice([-1, 1]), den)
        yield TropMatrix(MIN, tuple(map(tuple, e)))
        paths = [(i, k, j) for i in range(d) for k in range(d) for j in range(d)
                 if len({i, k, j}) == 3 and None not in (S.entries[i][k], S.entries[k][j])]
        if paths:
            i, k, j = rng.choice(paths)
            for bad in (S.entries[i][k] + S.entries[k][j] + Fraction(1, den), None):
                e = [list(r) for r in S.entries]
                e[i][j] = bad
                yield TropMatrix(MIN, tuple(map(tuple, e)))


def _all_ones(d):
    """Off-diagonal ones: every vertex is degenerate (2^d - 2 vertices)."""
    return TropMatrix.from_rows([[int(i != j) for j in range(d)] for i in range(d)], MIN)


def _build_cases():
    rng = random.Random(90)
    cases = [D4_MATRIX, family3(0), family3(2), family3(Fraction(1, 2))]
    for d in (2, 3, 4, 5):
        for den in (1, 1, 3, 6):
            cases.append(random_finite(rng, d, d, MIN, lo=0, hi=3, den=den))
    cases += [_all_ones(5), _all_ones(6), sample_isodiametric(6, 0)]
    return cases


class TestIntegerGrid:
    """Star check, facets and incidences on integers against Fraction oracles."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_star_check_and_facets(self, d):
        cases = list(_star_cases(d, seed=500 + d))
        verdicts = [brute_is_kleene_star(S) for S in cases]
        assert True in verdicts and False in verdicts
        for S, star in zip(cases, verdicts):
            assert is_kleene_star(S) is star
            if star:
                assert irredundant_facets(S) == brute_irredundant_facets(S)
            else:
                with pytest.raises(DomainError):
                    irredundant_facets(S)

    def test_non_square_and_max_plus(self):
        assert not is_kleene_star(TropMatrix.from_rows([[0, 1, 2], [1, 0, 1]], MIN))
        S = TropMatrix.from_rows([[0, 1], [1, 0]], Semiring.MAX)
        assert brute_is_kleene_star(S) is is_kleene_star(S) is False
        with pytest.raises(DomainError):
            irredundant_facets(S)

    def test_large_star(self):
        S = kleene_star(random_finite(random.Random(48), 48, 48, MIN, lo=1, hi=60, den=6))
        assert is_kleene_star(S) and brute_is_kleene_star(S)
        assert irredundant_facets(S) == brute_irredundant_facets(S)

    @pytest.mark.parametrize("B", _build_cases())
    def test_builds(self, B):
        P = build_polytrope(B)
        assert list(P.irredundant) == brute_irredundant_facets(P.star)
        want = brute_facet_profile(P)
        assert list(P.facet_profile.items()) == list(want.items())
        assert list(facet_profile(P).items()) == list(want.items())
        assert genericity_check(P) is brute_genericity_check(P)
        bound = {(i, j): b for i, j, b in P.hrep}
        x = [(Fraction(0),) + pt for pt in P.vertices]
        for (i, j), on in facet_incidence(P).items():
            assert on == {v for v, p in enumerate(x) if p[i] - p[j] == bound[i, j]}

    def test_builds_cover_degenerate_and_simple(self):
        verdicts = {genericity_check(build_polytrope(B)) for B in _build_cases()}
        assert verdicts == {True, False}

    @pytest.mark.parametrize("B, count, simple", [
        (_all_ones(5), 30, False), (_all_ones(6), 62, False),
        (sample_isodiametric(6, 0), 252, True),
    ])
    def test_large_builds(self, B, count, simple):
        P = build_polytrope(B)
        assert len(P.vertices) == count and genericity_check(P) is simple


def _count_closes(monkeypatch):
    calls = []
    close = polytrope._close

    def counting(dist):
        calls.append(len(dist))
        return close(dist)

    monkeypatch.setattr(polytrope, "_close", counting)
    return calls


class TestBuildWork:
    """A build closes one integer grid; the public enumerator closes its own,
    and queries on a built polytrope read the walk's masks."""

    def test_build_closes_once(self, monkeypatch):
        calls = _count_closes(monkeypatch)
        P = build_polytrope(D4_MATRIX)
        assert calls == [4]
        calls.clear()
        assert enumerate_vertices(P.hrep, P.dim) == list(P.vertices)
        assert calls == [4]
        calls.clear()
        assert kleene_star(D4_MATRIX) == P.star
        assert calls == [4]

    def test_queries_read_the_walk(self, monkeypatch):
        P = build_polytrope(sample_isodiametric(5, 3))
        calls = []
        for name in ("_walk", "_close", "_scaled_grid"):
            fn = getattr(polytrope, name)
            monkeypatch.setattr(polytrope, name,
                                lambda *a, name=name, fn=fn: calls.append(name) or fn(*a))
        facet_incidence(P)
        facet_profile(P)
        genericity_check(P)
        polytrope_report(P)
        assert calls == []
        build_polytrope(P.source)  # the counters see a build
        assert calls == ["_scaled_grid", "_close", "_walk"]

    def test_profile_copies_the_build_counts(self, monkeypatch):
        built = [build_polytrope(B) for B in _build_cases()]
        wants = [{f: len(on) for f, on in facet_incidence(P).items()} for P in built]
        calls = []
        monkeypatch.setattr(polytrope, "facet_incidence", lambda P: calls.append(P))
        for P, want in zip(built, wants):
            got = facet_profile(P)
            assert list(got.items()) == list(want.items())
            got.clear()
            assert list(P.facet_profile.items()) == list(want.items())
        assert calls == []

    def test_incidence_is_a_fresh_dict(self):
        P = build_polytrope(D4_MATRIX)
        want = facet_profile(P)
        on = facet_incidence(P)
        on.clear()
        assert facet_profile(P) == want == P.facet_profile
        assert len(facet_incidence(P)) == len(P.irredundant)

    def test_masks_stay_out_of_repr_and_eq(self):
        P = build_polytrope(D4_MATRIX)
        bare = dataclasses.replace(P, tight=())
        assert len(P.tight) == len(P.vertices)
        assert "tight" not in repr(P) and repr(P) == repr(bare) and P == bare

import random
from fractions import Fraction

import pytest

from conftest import box_with_filling, brute_affine_rank, brute_hull_volume
from tropiso import DomainError, Semiring, TropMatrix, default_lift, hull_volume, lift_eval
from tropiso.geometry import _affine_rank, convex_hull_2d


class TestHull2D:
    def test_square(self):
        vol, cells = hull_volume([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert vol == 1 and cells == 2

    def test_triangle(self):
        vol, cells = hull_volume([(0, 0), (1, 0), (0, 1)])
        assert vol == Fraction(1, 2) and cells == 1

    def test_interior_points_ignored(self):
        pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, Fraction(1, 2))]
        vol, cells = hull_volume(pts)
        assert vol == 4 and cells == 2

    def test_collinear_degenerate(self):
        vol, cells = hull_volume([(0, 0), (1, 1), (2, 2)])
        assert vol == 0 and cells == 0

    def test_hull_order_is_ccw(self):
        hull = convex_hull_2d([(0, 0), (1, 0), (1, 1), (0, 1), (Fraction(1, 2), Fraction(1, 2))])
        assert hull == [(0, 0), (1, 0), (1, 1), (0, 1)]

    def test_shoelace_against_grid_counting(self):
        # area of a random polygon bracketed by exact unit-cell counting:
        # cells fully inside <= area <= cells touching
        rng = random.Random(3)
        pts = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(7)]
        vol, _ = hull_volume(pts)
        # count unit cells fully inside vs touching: bounds the area
        lo = hi = 0
        hull = convex_hull_2d(pts)
        if len(hull) >= 3:
            def inside(x, y):
                for a, b in zip(hull, hull[1:] + hull[:1]):
                    cr = (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])
                    if cr < 0:
                        return False
                return True
            for x in range(9):
                for y in range(9):
                    corners = [inside(x + dx, y + dy) for dx in (0, 1) for dy in (0, 1)]
                    if all(corners):
                        lo += 1
                    if any(corners):
                        hi += 1
            assert lo <= vol <= hi


class TestHull3D:
    def test_unit_tetrahedron(self):
        vol, cells = hull_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert vol == Fraction(1, 6) and cells == 1

    def test_unit_cube(self):
        cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        vol, cells = hull_volume(cube)
        assert vol == 1 and cells == 6

    def test_coplanar_degenerate(self):
        vol, cells = hull_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
        assert vol == 0 and cells == 0

    def test_scaled_simplex(self):
        vol, _ = hull_volume([(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 5)])
        assert vol == Fraction(2 * 3 * 5, 6)

    def test_interior_point_ignored(self):
        pts = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)]
        vol, _ = hull_volume(pts)
        assert vol == Fraction(4 ** 3, 6)

    def test_random_decomposition_additivity(self):
        # volume of a box equals the sum over an axis split
        lo, _ = hull_volume([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 1),
                             (2, 2, 0), (2, 0, 1), (0, 2, 1), (2, 2, 1)])
        a, _ = hull_volume([(0, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, 1),
                            (1, 2, 0), (1, 0, 1), (0, 2, 1), (1, 2, 1)])
        assert lo == 2 * a


class TestHull1D:
    def test_segment(self):
        vol, cells = hull_volume([(3,), (Fraction(1, 2),), (2,)])
        assert vol == Fraction(5, 2) and cells == 1

    def test_point_degenerate(self):
        vol, cells = hull_volume([(1,), (1,)])
        assert vol == 0 and cells == 0


def test_dimension_guard():
    with pytest.raises(DomainError):
        hull_volume([(0, 0, 0, 0), (1, 1, 1, 1)])


def test_float_inputs_embed_exactly():
    vol, cells = hull_volume([(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)])
    assert vol == Fraction(1, 8) and cells == 1


def _differential_sets(seed: int):
    """(label, points) for the hull differential test: random sets with
    duplicates and ties, all points but one on a plane, collinear points on
    facet edges, denominators 1, 3 and 7, floats, lifted huge integers, and
    1-D and 2-D inputs."""
    rng = random.Random(seed)
    for _ in range(700):
        k = rng.choice((1, 2, 3, 3, 3))
        den = rng.choice((1, 3, 7))
        hi = rng.choice((1, 2, 4, 9))
        pts = [tuple(Fraction(rng.randint(0, hi * den), den) for _ in range(k))
               for _ in range(rng.randint(4, 14))]
        pts += rng.sample(pts, rng.randint(0, 3))  # duplicates
        yield f"random/{k}d/den{den}", pts
    for _ in range(150):
        k = rng.choice((2, 3))
        pts = [tuple(rng.randint(0, 12) / 4 for _ in range(k)) for _ in range(rng.randint(4, 14))]
        yield "float", pts
    for _ in range(300):
        o, u, v = ([rng.randint(-3, 3) for _ in range(3)] for _ in range(3))
        pts = [tuple(o[i] + s * u[i] + t * v[i] for i in range(3))
               for s, t in ((rng.randint(-2, 2), rng.randint(-2, 2))
                            for _ in range(rng.randint(3, 13)))]
        pts.append(tuple(rng.randint(-5, 5) for _ in range(3)))  # may land on the plane
        rng.shuffle(pts)
        yield "coplanar-but-one", pts
    for _ in range(300):
        corners = [tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(rng.randint(4, 8))]
        pts = list(corners)
        for _ in range(rng.randint(1, 6)):  # points on segments between corners
            a, b = rng.sample(corners, 2)
            k = rng.randint(0, 3)
            pts.append(tuple(Fraction(a[i] * (3 - k) + b[i] * k, 3) for i in range(3)))
        rng.shuffle(pts)
        yield "on-edges", pts
    for _ in range(50):
        yield "box", box_with_filling(rng, (0, 0, 0), tuple(rng.randint(1, 4) for _ in range(3)),
                                       rng.randint(0, 6))
    for _ in range(50):
        m = rng.randint(4, 7)
        A = TropMatrix.from_rows([[rng.randint(0, 6) for _ in range(m)] for _ in range(3)],
                                 Semiring.MAX)
        mat = lift_eval(default_lift(A), 10 ** 6)
        yield "lift-1e6", [tuple(mat[i][j] for i in range(3)) for j in range(A.cols)]


def test_hull_matches_triple_scan_oracle():
    sets = degenerate = 0
    for label, pts in _differential_sets(2024):
        got = hull_volume(pts)
        assert tuple(got) == brute_hull_volume(pts), (label, pts)
        sets += 1
        degenerate += got.volume == 0
    assert sets >= 1500
    assert degenerate >= 25  # rank-deficient sets are exercised too


def test_affine_rank_matches_elimination():
    rng = random.Random(77)
    ranks = set()
    for _ in range(400):
        k = rng.randint(1, 3)
        den = rng.choice((1, 3, 7))
        pts = [tuple(Fraction(rng.randint(0, 2 * den), den) for _ in range(k))
               for _ in range(rng.randint(1, 6))]
        scaled = [tuple(int(c * 21) for c in p) for p in pts]
        assert _affine_rank(pts) == _affine_rank(scaled) == brute_affine_rank(pts), pts
        ranks.add(_affine_rank(pts))
    assert ranks == {0, 1, 2, 3}


def test_box_of_160_points():
    # the corners of a box plus 152 points inside it, on its faces and on its
    # edges; a hull that tried every point triple would take minutes here
    pts = box_with_filling(random.Random(160), (2, 1, 3), (9, 5, 11), 152)
    assert len(pts) == 160
    assert hull_volume(pts) == (7 * 4 * 8, 6)

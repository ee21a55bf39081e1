"""Reference checks of the paper's examples, run by ``tropiso paper-suite``.

``CHECKS`` lists (name, check) pairs; each check returns (ok, detail).
Library calls go through their modules, so a tracer that wraps module
attributes sees them.
"""

from __future__ import annotations

from . import assignment, core, dequant, isodiametric, polytrope
from .core import Semiring, TropMatrix


def _unit(d: int, sr: Semiring) -> TropMatrix:
    return TropMatrix.from_rows(
        [[1 if i == j else 0 for j in range(d)] for i in range(d)], sr
    )


def _family(lam) -> TropMatrix:
    lam = core.as_rational(lam)
    return TropMatrix.from_rows(
        [[0, 1, 1], [1, 0, lam], [1, 2 - lam, 0]], Semiring.MIN
    )


_D4 = TropMatrix.from_rows(
    [[0, 1, 1, 1],
     [1, 0, "5/4", "3/4"],
     [1, "3/4", 0, "5/4"],
     [1, "5/4", "3/4", 0]],
    Semiring.MIN,
)

_LAMBDAS = (0, "1/2", 1, "3/2", 2)


def _chk_unit_diameter():
    bad = [d for d in range(2, 11) if core.tdiam(_unit(d, Semiring.MAX)) != 2]
    return not bad, f"d=2..10 (violations: {bad})"


def _chk_unit_volume():
    bad = [d for d in range(2, 9) if assignment.tvol(_unit(d, Semiring.MAX)) != 2]
    return not bad, f"d=2..8 (violations: {bad})"


def _chk_family_metrics():
    ok = all(core.tdiam(_family(l)) == 2 and assignment.tvol(_family(l)) == 2
             for l in _LAMBDAS)
    return ok, "tdiam = tvol = 2 across the family"


def _chk_family_idempotent():
    ok = all(core.trop_mat_mul(_family(l), _family(l)) == _family(l) for l in _LAMBDAS)
    return ok, "B (x) B = B across the family"


def _chk_family_kleene():
    ok = all(polytrope.kleene_star(_family(l)) == _family(l) for l in _LAMBDAS)
    return ok, "Kleene star fixes the family"


def _chk_family_conditions():
    ok = True
    for l in _LAMBDAS:
        rep = isodiametric.check_conditions(_family(l), isodiametric.StandardVariant.MIN)
        ok &= rep.classification is isodiametric.Classification.ISODIAMETRIC
        ok &= isodiametric.converse_check(_family(l), isodiametric.StandardVariant.MIN)
    return ok, "conditions hold and converse check passes"


def _chk_sampler_family_shape():
    ok = True
    for seed in range(5):
        B = isodiametric.sample_isodiametric(3, seed)
        lam = B.entries[1][2]
        ok &= B == _family(lam)
    return ok, "3x3 samples have the one-parameter family shape"


def _chk_free_parameters():
    ok = (isodiametric.free_parameter_count(3) == 1
          and isodiametric.free_parameter_count(5) == 6)
    return ok, "parameter counts 1 (d=3) and 6 (d=5)"


def _chk_d4_facets():
    P = polytrope.build_polytrope(_D4)
    return len(P.irredundant) == 12, f"{len(P.irredundant)} irredundant facets"


def _chk_d4_profile():
    P = polytrope.build_polytrope(_D4)
    got = sorted(P.facet_profile.values())
    want = [4, 4, 4, 5, 5, 5, 5, 5, 5, 6, 6, 6]
    return got == want, f"profile {got}"


def _chk_d4_hexagons():
    on = polytrope.facet_incidence(polytrope.build_polytrope(_D4))
    hexes = [f for f, vs in on.items() if len(vs) == 6]
    pairs = [(f, g) for a, f in enumerate(hexes) for g in hexes[a + 1:]
             if len(on[f] & on[g]) >= 2]
    return not pairs, f"3 hexagons, {len(pairs)} adjacent pairs"


def _chk_hexagon_markers():
    P = polytrope.build_polytrope(_family(1))
    svg = polytrope.render_svg(P)
    reds = svg.count('fill="red"')
    whites = svg.count('fill="white"')
    ok = len(P.vertices) == 6 and reds == 3 and whites == 3
    return ok, f"6 vertices, {reds} red + {whites} white markers"


def _chk_degenerate_generators():
    ok = True
    for l in (0, 2):
        P = polytrope.build_polytrope(_family(l))
        mask = polytrope.nonredundant_generator_mask(_family(l))
        cols = {
            (c[1] - c[0], c[2] - c[0])
            for j, c in enumerate(map(_family(l).col, range(3)))
            if mask[j]
        }
        ok &= cols == set(P.vertices)
    return ok, "generator markers coincide with the vertices at the ends"


def _chk_qvol_values():
    A = TropMatrix.from_rows([[0, 0, 0], [0, 0, 0]], Semiring.MAX)
    B = TropMatrix.from_rows([[0, -1, -2], [0, -2, -4]], Semiring.MAX)
    va = dequant.qvol_plus(A, compute_parity=False).value
    vb = dequant.qvol_plus(B, compute_parity=False).value
    return (va, vb) == (0, -1), f"values {va}, {vb}"


CHECKS = [
    ("unit-matrix-diameter", _chk_unit_diameter),
    ("unit-matrix-volume", _chk_unit_volume),
    ("family-metrics", _chk_family_metrics),
    ("family-idempotent", _chk_family_idempotent),
    ("family-kleene-fixed", _chk_family_kleene),
    ("family-conditions", _chk_family_conditions),
    ("sampler-family-shape", _chk_sampler_family_shape),
    ("free-parameter-count", _chk_free_parameters),
    ("d4-facet-count", _chk_d4_facets),
    ("d4-facet-profile", _chk_d4_profile),
    ("d4-hexagon-adjacency", _chk_d4_hexagons),
    ("hexagon-markers", _chk_hexagon_markers),
    ("degenerate-generators", _chk_degenerate_generators),
    ("qvol-upper-values", _chk_qvol_values),
]

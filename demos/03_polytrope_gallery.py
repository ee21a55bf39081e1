"""Polytropes of near-isodiametric matrices: exact geometry and pictures.

A near-isodiametric min-plus matrix equals its own Kleene star, so its
tropical column span is an ordinary convex polytope cut out by the
difference constraints x_i - x_j <= b_ij.  This demo walks the planar
one-parameter family (hexagons degenerating to triangles at the ends),
renders each member to SVG, and prints the full facet census of a generic
4x4 example whose polytope has 12 facets and 20 vertices.

SVG files and JSON reports are written to demos/output/.
"""

import json
from fractions import Fraction
from pathlib import Path

from tropiso import (
    Semiring,
    TropMatrix,
    build_polytrope,
    genericity_check,
    kleene_star,
    polytrope_report,
    render_svg,
    tconv_membership,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "demos" / "output"
OUT.mkdir(exist_ok=True)


def family(lam):
    lam = Fraction(lam)
    return TropMatrix.from_rows(
        [[0, 1, 1], [1, 0, lam], [1, 2 - lam, 0]], Semiring.MIN
    )


print("== the planar family ==")
for lam in (0, Fraction(1, 2), 1, Fraction(3, 2), 2):
    B = family(lam)
    P = build_polytrope(B)
    tag = str(lam).replace("/", "_")
    (OUT / f"family_{tag}.svg").write_text(render_svg(P))
    print(f"lambda={str(lam):4s}: {len(P.irredundant)} facets, "
          f"{len(P.vertices)} vertices, simple={genericity_check(P)}")
print(f"(SVG gallery written to {OUT.relative_to(ROOT)})")

print("\n== membership in the tropical span ==")
B = family(1)
print("column 2 of B:", tconv_membership(B, B.col(1)))
print("far translate of column 1:",
      tconv_membership(B, [c + s for c, s in zip(B.col(0), (3, 0, 0))]))

print("\n== a generic 4x4 example ==")
D4 = TropMatrix.from_rows(
    [[0, 1, 1, 1],
     [1, 0, Fraction(5, 4), Fraction(3, 4)],
     [1, Fraction(3, 4), 0, Fraction(5, 4)],
     [1, Fraction(5, 4), Fraction(3, 4), 0]],
    Semiring.MIN,
)
print("Kleene star fixes it:", kleene_star(D4) == D4)
P4 = build_polytrope(D4)
profile = sorted(P4.facet_profile.values())
print(f"{len(P4.irredundant)} facets with vertex counts {profile}")
print(f"{len(P4.vertices)} vertices, simple polytope: {genericity_check(P4)}")
report_path = OUT / "d4_report.json"
report_path.write_text(json.dumps(polytrope_report(P4), indent=2, sort_keys=True))
print("full report written to", report_path.relative_to(ROOT))

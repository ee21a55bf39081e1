import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tropiso

SRC = str(Path(__file__).resolve().parents[1] / "src")

LIBRARY = ("assignment", "core", "dequant", "errors", "geometry", "isodiametric",
           "matio", "polytrope")
SUBMODULES = (*LIBRARY, "cli", "paper_suite")

EXPORTS = {
    # assignment
    "AssignmentCertificate", "ParityMethod", "ParityReport", "ParityVerdict", "Permutation",
    "certificate", "enumerate_optima", "lex_optimal_permutation", "parity_report",
    "second_best", "tdet", "tvol",
    # core
    "Semiring", "TropMatrix", "as_rational", "tdist", "tdiam", "translate", "trop_add",
    "trop_identity", "trop_mat_mul",
    # dequant
    "BoundReport", "LiftSpec", "QvolResult", "SlopeResult", "bar_matrix",
    "cauchy_binet_check", "default_lift", "dequant_slope", "idempotent_measure_check",
    "lift_eval", "qvol", "qvol_plus", "sign_generic", "tper", "volume_bound_check",
    # errors
    "BottomEntryError", "DegenerateHullError", "DimensionError", "DomainError",
    "FormatError", "NegativeCycleError", "NotSignGenericError", "ParityUnknownError",
    "SamplerLimitError", "TropicalError", "UnboundedPolytopeError",
    # geometry
    "HullMeasure", "convex_hull_2d", "hull_volume",
    # isodiametric
    "Classification", "IsoReport", "StandardForm", "StandardVariant", "apply_trail",
    "check_conditions", "converse_check", "free_parameter_count", "is_near_isodiametric",
    "is_standard", "negate_complement", "sample_isodiametric", "standardize_and_check",
    "to_standard",
    # matio
    "dumps_matrix_json", "load_matrix", "loads_matrix_json", "matrix_from_csv",
    "matrix_to_csv", "save_matrix",
    # polytrope
    "Polytrope", "build_polytrope", "enumerate_vertices", "facet_incidence",
    "facet_profile", "genericity_check", "irredundant_facets", "kleene_star",
    "polytrope_report", "project_to_cone", "render_svg", "tconv_membership",
}


def test_export_names_are_pinned():
    assert len(EXPORTS) == 82
    assert len(tropiso.__all__) == len(set(tropiso.__all__))
    assert set(tropiso.__all__) == EXPORTS | set(LIBRARY)
    assert set(dir(tropiso)) >= EXPORTS | set(LIBRARY)


def test_each_export_is_its_module_attribute():
    for name in EXPORTS:
        value = getattr(tropiso, name)
        assert name in vars(tropiso)  # bound on first access
        assert value is getattr(sys.modules[value.__module__], name)
        assert value.__module__.rsplit(".", 1)[1] in LIBRARY


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_resolve(name):
    assert getattr(tropiso, name) is importlib.import_module(f"tropiso.{name}")


def test_star_import_binds_the_exports_and_library_modules():
    namespace = {}
    exec("from tropiso import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS | set(LIBRARY)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="module 'tropiso' has no attribute 'nope'"):
        tropiso.nope
    assert not hasattr(tropiso, "nope")
    with pytest.raises(ImportError):
        exec("from tropiso import nope", {})


def test_import_loads_no_submodule():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    code = "import sys, tropiso; print(*sorted(m for m in sys.modules if 'tropiso' in m))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout.split() == ["tropiso"]

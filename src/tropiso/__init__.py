"""tropiso: exact tropical metric geometry.

Tropical distances, diameters and volumes of matrices over the min-plus and
max-plus semirings; standard forms and the isodiametric condition systems;
Kleene stars and exact polytrope geometry; and the dequantized tropical
volume with its log-limit semantics.

``import tropiso`` loads no module: each name below is imported from its
module on first access and then bound here (PEP 562), so a process that
reads ``tropiso.tdiam`` never loads the polytrope or dequantization code.
"""

import importlib

# every exported name, by the module that defines it
_EXPORTS = {
    "assignment": (
        "AssignmentCertificate", "ParityMethod", "ParityReport", "ParityVerdict",
        "Permutation", "certificate", "enumerate_optima", "lex_optimal_permutation",
        "parity_report", "second_best", "tdet", "tvol",
    ),
    "core": (
        "Semiring", "TropMatrix", "as_rational", "tdist", "tdiam", "translate",
        "trop_add", "trop_identity", "trop_mat_mul",
    ),
    "dequant": (
        "BoundReport", "LiftSpec", "QvolResult", "SlopeResult", "bar_matrix",
        "cauchy_binet_check", "default_lift", "dequant_slope", "idempotent_measure_check",
        "lift_eval", "qvol", "qvol_plus", "sign_generic", "tper", "volume_bound_check",
    ),
    "errors": (
        "BottomEntryError", "DegenerateHullError", "DimensionError", "DomainError",
        "FormatError", "NegativeCycleError", "NotSignGenericError", "ParityUnknownError",
        "SamplerLimitError", "TropicalError", "UnboundedPolytopeError",
    ),
    "geometry": ("HullMeasure", "convex_hull_2d", "hull_volume"),
    "isodiametric": (
        "Classification", "IsoReport", "StandardForm", "StandardVariant", "apply_trail",
        "check_conditions", "converse_check", "free_parameter_count",
        "is_near_isodiametric", "is_standard", "negate_complement", "sample_isodiametric",
        "standardize_and_check", "to_standard",
    ),
    "matio": (
        "dumps_matrix_json", "load_matrix", "loads_matrix_json", "matrix_from_csv",
        "matrix_to_csv", "save_matrix",
    ),
    "polytrope": (
        "Polytrope", "build_polytrope", "enumerate_vertices", "facet_incidence",
        "facet_profile", "genericity_check", "irredundant_facets", "kleene_star",
        "polytrope_report", "project_to_cone", "render_svg", "tconv_membership",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "paper_suite"}

__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})

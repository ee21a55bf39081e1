"""tropiso: exact tropical metric geometry.

Tropical distances, diameters and volumes of matrices over the min-plus and
max-plus semirings; standard forms and the isodiametric condition systems;
Kleene stars and exact polytrope geometry; and the dequantized tropical
volume with its log-limit semantics.
"""

from .assignment import (
    AssignmentCertificate,
    ParityMethod,
    ParityReport,
    ParityVerdict,
    Permutation,
    certificate,
    enumerate_optima,
    lex_optimal_permutation,
    parity_report,
    second_best,
    tdet,
    tvol,
)
from .core import (
    Semiring,
    TropMatrix,
    as_rational,
    tdist,
    tdiam,
    translate,
    trop_add,
    trop_identity,
    trop_mat_mul,
)
from .dequant import (
    BoundReport,
    LiftSpec,
    QvolResult,
    SlopeResult,
    bar_matrix,
    cauchy_binet_check,
    default_lift,
    dequant_slope,
    idempotent_measure_check,
    lift_eval,
    qvol,
    qvol_plus,
    sign_generic,
    tper,
    volume_bound_check,
)
from .errors import (
    BottomEntryError,
    DegenerateHullError,
    DimensionError,
    DomainError,
    FormatError,
    NegativeCycleError,
    NotSignGenericError,
    ParityUnknownError,
    SamplerLimitError,
    TropicalError,
    UnboundedPolytopeError,
)
from .geometry import HullMeasure, convex_hull_2d, hull_volume
from .isodiametric import (
    Classification,
    IsoReport,
    StandardForm,
    StandardVariant,
    apply_trail,
    check_conditions,
    converse_check,
    free_parameter_count,
    is_near_isodiametric,
    is_standard,
    negate_complement,
    sample_isodiametric,
    standardize_and_check,
    to_standard,
)
from .matio import (
    dumps_matrix_json,
    load_matrix,
    loads_matrix_json,
    matrix_from_csv,
    matrix_to_csv,
    save_matrix,
)
from .polytrope import (
    Polytrope,
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
    tconv_membership,
)

__version__ = "0.1.0"

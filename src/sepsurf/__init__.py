"""Separable implicit surfaces f(x) + g(y) + h(z) = 0.

Construction of the constant-curvature families, on-surface sampling and
meshing, Gaussian curvature evaluation by two independent routes, and a
numerical classifier for the constant-curvature branches.
"""

from .expr import (
    EvalDomainError,
    ExprError,
    Func1D,
    Jet3,
    ParseError,
    differentiate,
    evaluate,
    parse_expr,
    print_expr,
)
from .families import (
    ConicalPower,
    DegenerateSurfaceError,
    ExpCylinder,
    GeneralizedCone,
    InvalidFamilyError,
    PRESETS,
    RightCylinder,
    RotationalCGC,
    RotationalParabolic,
    TabulatedFunc1D,
    Translation,
    admissible_box,
    build_surface,
    family_from_json,
    family_to_json,
    preset_box,
    preset_surface,
    rotational_profile,
)
from .geometry import (
    ImplicitJet2,
    LevelState,
    SeparableSurface,
    SingularPointError,
    curvature_batch,
    gauss_curvature_implicit,
    gauss_curvature_separable,
    implicit_jet,
    k2_residual,
    level_state,
    transform_jet,
)
from .sampler import (
    GridSpec,
    Mesh,
    export_obj,
    export_report,
    marching_cubes,
    sample_points,
    solve_axis,
    solve_many,
)
from .verify import (
    ClassificationResult,
    ConstancyReport,
    StructureEvidence,
    Tolerances,
    TooFewPointsError,
    check_constant_K,
    classify,
    collect_samples,
    estimate_structure,
    run_theorem_suite,
)

__version__ = "0.1.0"

"""Greedy moment-matching model reduction with residual-based error estimators.

Build a parametric linear system (``from_first_order``,
``from_second_order``, a manifest, or a synthetic generator), pick one of
the seven output-error estimators, and let ``run_greedy`` grow the
projection bases until the worst estimate over a training grid meets the
tolerance. Everything the estimators need online is reduced-order; exact
errors and envelope diagnostics are available for validation.
"""

__version__ = "0.1.0"

from .errors import (
    AllSamplesSingularError,
    DimensionMismatchError,
    ManifestError,
    MissingParameterError,
    MissingWorkspaceRomError,
    ProjectionMismatchError,
    RomgridError,
    SingularAtSampleError,
    SingularMatrixError,
    SingularReducedSystemError,
    UnknownParameterNameError,
    ZeroToNegativePowerError,
)
from .estimators import (
    EstimateBreakdown,
    EstimatorKind,
    EstimatorWorkspace,
    SensitivityReport,
    delta_r,
    evaluate,
    sensitivity_report,
    true_error,
)
from .generators import (
    generate_synthetic,
    mimo_block,
    random_stable,
    rc_ladder,
    symmetric_second_order,
)
from .greedy import (
    GreedyConfig,
    GreedyResult,
    SelectedPoints,
    StopReason,
    run_greedy,
    select_points,
    validate,
)
from .grids import DEFAULT_FREQUENCY_SPEC, parse_grid
from .linalg import LUFactorization, lu_factor, orthonormalize_append
from .manifest import load_system, save_system
from .moments import (
    expansion_block,
    krylov_block,
    multimoment_block,
)
from .projection import (
    Basis,
    ReducedModel,
    reduce_system,
)
from .reports import (
    EffectivityReport,
    EffectivityRow,
    IterationRecord,
    read_trace,
    write_report,
    write_trace_csv,
    write_trace_json,
)
from .system import (
    LAPLACE,
    AffineMatrix,
    Monomial,
    ParametricSystem,
    frequency_point,
    from_first_order,
    from_second_order,
)

__all__ = [
    "__version__",
    "AffineMatrix",
    "AllSamplesSingularError",
    "Basis",
    "DimensionMismatchError",
    "EffectivityReport",
    "EffectivityRow",
    "EstimateBreakdown",
    "EstimatorKind",
    "EstimatorWorkspace",
    "GreedyConfig",
    "GreedyResult",
    "IterationRecord",
    "LAPLACE",
    "LUFactorization",
    "ManifestError",
    "MissingParameterError",
    "MissingWorkspaceRomError",
    "Monomial",
    "ParametricSystem",
    "ProjectionMismatchError",
    "ReducedModel",
    "RomgridError",
    "SelectedPoints",
    "SensitivityReport",
    "SingularAtSampleError",
    "SingularMatrixError",
    "SingularReducedSystemError",
    "StopReason",
    "UnknownParameterNameError",
    "ZeroToNegativePowerError",
    "delta_r",
    "evaluate",
    "expansion_block",
    "DEFAULT_FREQUENCY_SPEC",
    "frequency_point",
    "from_first_order",
    "from_second_order",
    "generate_synthetic",
    "krylov_block",
    "load_system",
    "lu_factor",
    "mimo_block",
    "multimoment_block",
    "orthonormalize_append",
    "parse_grid",
    "random_stable",
    "rc_ladder",
    "read_trace",
    "reduce_system",
    "run_greedy",
    "save_system",
    "select_points",
    "sensitivity_report",
    "symmetric_second_order",
    "true_error",
    "validate",
    "write_report",
    "write_trace_csv",
    "write_trace_json",
]

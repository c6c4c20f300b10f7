"""Symbolic-numeric engine for the time-dependent Hamilton geometry of
momenta: metrics and Christoffel symbols, d-tensor fields, semisprays,
nonlinear connections, and adapted frames on the phase space (t, x, p),
with numeric verification of every transformation law at sampled points.
"""

from .charts import (
    CoordChange,
    TransitionData,
    induced_point,
    scalar_to_new_chart,
    transition,
)
from .dtensor import (
    DTensor,
    IndexKind,
    h_normalization,
    liouville,
    metric_hamiltonian,
    momentum_liouville,
    verify_dtensor,
    vertical_metrical,
)
from .errors import (
    ChartInverseError,
    DimensionError,
    DomainError,
    ExprSyntaxError,
    JethamError,
    MissingSubstitutionError,
    ProblemFormatError,
    RegularityError,
    SignatureMismatchError,
)
from .expr import (
    Components,
    Expr,
    Point,
    Var,
    compose,
    const,
    diff,
    evaluate,
    parse,
    pvar,
    tvar,
    xvar,
)
from .frames import (
    adapted_frames,
    pairing,
    verify_adapted_tensoriality,
)
from .metrics import (
    SpaceMetric,
    TimeMetric,
    christoffel_space,
    christoffel_time,
    compatibility_residuals,
    inverse_space,
    inverse_time,
    transform_space_metric,
    transform_time_metric,
)
from .nlconn import (
    NonlinearConnection,
    canonical_connection,
    connection_from_spray,
    verify_connection_law,
)
from .problem import Problem, load_problem, problem_from_dict
from .report import CheckRecord, Report, report_to_json, residual
from .spray import (
    MomentumSemispray,
    canonical_spatial,
    canonical_temporal,
    verify_spatial_law,
    verify_temporal_law,
)

__version__ = "0.1.0"

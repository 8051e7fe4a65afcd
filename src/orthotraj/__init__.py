"""Curves orthogonal to the line family y = m x - 2m - m^3.

Closed-form geometry (``core_model``), cubic slope roots (``roots``),
the integrating-factor first integral (``exact_ode``), implicit-ODE
tracing (``tracer``), geometric validation (``geometry_analysis``),
verification suites (``verification``), and the CLI / SVG front end
(``cli_plot``).
"""

from .core_model import (
    PARABOLA_NORMALS,
    CurveSample,
    Line,
    LineFamily,
    Point,
    TrajectoryCurve,
    curve_point,
    curve_slope,
    curve_velocity,
    cusp_parameters,
    line_at,
    ode_c_residual,
    ode_o_residual,
    orthogonal_foot,
)
from .errors import (
    ConfigError,
    DegenerateFootError,
    DegenerateInputError,
    DegeneratePointError,
    DomainError,
    IndeterminatePolynomialError,
    NoBracketError,
    NoBranchError,
    OrthoTrajError,
    UnsupportedFamilyError,
)
from .exact_ode import (
    DifferentialForm,
    exactness_defect,
    integrating_factor,
    potential,
    raw_form,
    scaled_form,
    solve_for_xy,
)
from .geometry_analysis import (
    ConicFit,
    IntersectionRecord,
    classify_conic,
    conic_fit,
    fit_conic,
    intersections,
    is_parabola,
)
from .roots import CubicCoeffs, RootSet, bracketed_root, real_roots_cubic, slopes_at
from .tracer import TraceConfig, TraceResult, trace_classic, trace_orthogonal

__version__ = "0.1.0"

__all__ = [
    "PARABOLA_NORMALS",
    "CurveSample",
    "Line",
    "LineFamily",
    "Point",
    "TrajectoryCurve",
    "curve_point",
    "curve_slope",
    "curve_velocity",
    "cusp_parameters",
    "line_at",
    "ode_c_residual",
    "ode_o_residual",
    "orthogonal_foot",
    "CubicCoeffs",
    "RootSet",
    "bracketed_root",
    "real_roots_cubic",
    "slopes_at",
    "DifferentialForm",
    "exactness_defect",
    "integrating_factor",
    "potential",
    "raw_form",
    "scaled_form",
    "solve_for_xy",
    "TraceConfig",
    "TraceResult",
    "trace_classic",
    "trace_orthogonal",
    "ConicFit",
    "IntersectionRecord",
    "classify_conic",
    "conic_fit",
    "fit_conic",
    "intersections",
    "is_parabola",
    "OrthoTrajError",
    "DomainError",
    "DegeneratePointError",
    "DegenerateFootError",
    "UnsupportedFamilyError",
    "IndeterminatePolynomialError",
    "NoBracketError",
    "NoBranchError",
    "DegenerateInputError",
    "ConfigError",
    "__version__",
]

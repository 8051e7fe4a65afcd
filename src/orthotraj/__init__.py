"""Curves orthogonal to the line family y = m x - 2m - m^3.

Closed-form geometry (``core_model``), cubic slope roots (``roots``),
the integrating-factor first integral (``exact_ode``), implicit-ODE
tracing (``tracer``), geometric validation (``geometry_analysis``),
verification suites (``verification``), and the CLI / SVG front end
(``cli_plot``).  ``_EXPORTS`` is the one list of package exports, each
group its module's ``__all__``.  Importing the package loads no module:
the first lookup of an export imports the module defining it and binds
the name here (PEP 562), so ``slopes_at`` loads only ``roots`` and
``errors``.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core_model": ("Point", "Line", "LineFamily", "TrajectoryCurve", "CurveSample",
                   "PARABOLA_NORMALS", "line_at", "curve_point", "curve_velocity", "curve_slope",
                   "ode_c_residual", "ode_o_residual", "orthogonal_foot", "cusp_parameters"),
    "roots": ("RootSet", "slopes_at", "bracketed_root"),
    "exact_ode": ("DifferentialForm", "raw_form", "scaled_form", "integrating_factor",
                  "exactness_defect", "potential", "solve_for_xy"),
    "tracer": ("TraceConfig", "TraceResult", "trace_orthogonal"),
    "geometry_analysis": ("IntersectionRecord", "ConicFit", "intersections", "fit_conic",
                          "conic_fit", "classify_conic", "is_parabola"),
    "errors": ("OrthoTrajError", "DomainError", "DegeneratePointError", "DegenerateFootError",
               "NoBracketError", "NoBranchError", "DegenerateInputError", "ConfigError"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:  # e.g. a submodule, which the import system then loads
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

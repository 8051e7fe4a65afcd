"""The package's public names.

``orthotraj`` star-imports its modules and builds ``__all__`` from
theirs, so this pins the exported set: no duplicates, every name
resolves, and nothing leaks (a module without ``__all__`` would export
``math`` and ``np``).
"""

import orthotraj

EXPORTS = {
    "PARABOLA_NORMALS", "CurveSample", "Line", "LineFamily", "Point",
    "TrajectoryCurve", "curve_point", "curve_slope", "curve_velocity",
    "cusp_parameters", "line_at", "ode_c_residual", "ode_o_residual",
    "orthogonal_foot",
    "RootSet", "bracketed_root", "slopes_at",
    "DifferentialForm", "exactness_defect", "integrating_factor", "potential",
    "raw_form", "scaled_form", "solve_for_xy",
    "TraceConfig", "TraceResult", "trace_classic", "trace_orthogonal",
    "ConicFit", "IntersectionRecord", "classify_conic", "conic_fit",
    "fit_conic", "intersections", "is_parabola",
    "OrthoTrajError", "DomainError", "DegeneratePointError",
    "DegenerateFootError", "NoBracketError",
    "NoBranchError", "DegenerateInputError", "ConfigError",
    "__version__",
}


def test_public_api():
    names = orthotraj.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(orthotraj, name)
    assert set(names) == EXPORTS

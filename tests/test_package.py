"""The package's public names and what importing it loads.

``orthotraj`` star-imports its modules and builds ``__all__`` from
theirs, so this pins the exported set: no duplicates, every name
resolves, and nothing leaks (a module without ``__all__`` would export
``math``).  numpy loads only where the intersection scan, the conic fit
and the verify suites use it: not on import, not for a trace and not
for ``verify --help``.
"""

import os
import subprocess
import sys

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


_NUMPY_STEPS = """
import contextlib, io, sys
seen = []
import orthotraj
seen.append("numpy" in sys.modules)
from orthotraj import cli_plot
with contextlib.redirect_stdout(io.StringIO()):
    assert cli_plot.run(["trace", "--x0", "1", "--y0", "2"]) == 0
    seen.append("numpy" in sys.modules)
    assert cli_plot.run(["verify", "--help"]) == 0
    seen.append("numpy" in sys.modules)
orthotraj.intersections(1.0, orthotraj.TrajectoryCurve(0.0), -10, 10)
seen.append("numpy" in sys.modules)
print(seen)
"""


def test_numpy_loads_only_where_used():
    # A fresh interpreter, importing the same package as this test.
    src = os.path.dirname(os.path.dirname(orthotraj.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_STEPS], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    # import, trace, verify --help: no numpy; the scan of intersections: numpy.
    assert proc.stdout.strip() == "[False, False, False, True]"

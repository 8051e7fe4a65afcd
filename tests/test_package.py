"""The package's public names, what importing it loads, and its records.

``orthotraj`` loads a module on the first lookup of one of its exports,
from one table that must match each module's ``__all__``.  This pins the
exported set (no duplicates, every name resolves, nothing leaks), the
lazy namespace (star-import, ``dir``, one binding per name, unknown
names), and which of its modules each entry point loads: importing the
package loads none, a slope query only ``errors`` and ``roots``, a
trace neither the ODE forms nor ``geometry_analysis``, and ``intersect``
and ``verify --help`` no tracer.  No module under ``src/orthotraj``
imports numpy, and no step loads it: not import, a trace, ``verify
--help``, ``intersections``, ``classify`` or the conic fit; with numpy
unimportable, ``trace``, ``plot``, ``intersect``, ``classify`` and every
verify suite still run.  No command loads ``dataclasses``: every record is a NamedTuple, except
``RootSet``, a ``__slots__`` class.  The records are immutable, the
checked ones (``TrajectoryCurve``, ``TraceConfig``) check on every
construction, and ``RootSet`` is sized and iterated by its roots, and
its repr rebuilds it.
"""

import ast
import math
import os
import pickle
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import orthotraj
from orthotraj import (
    PARABOLA_NORMALS,
    DomainError,
    Point,
    RootSet,
    TraceConfig,
    TrajectoryCurve,
    conic_fit,
    intersections,
    line_at,
    orthogonal_foot,
    raw_form,
    slopes_at,
    trace_orthogonal,
)
from orthotraj.cli_plot import CurveSpec, PlotSpec
from orthotraj.verification import CheckResult

EXPORTS = {
    "PARABOLA_NORMALS", "CurveSample", "Line", "LineFamily", "Point",
    "TrajectoryCurve", "curve_point", "curve_slope", "curve_velocity",
    "cusp_parameters", "line_at", "ode_c_residual", "ode_o_residual",
    "orthogonal_foot",
    "RootSet", "bracketed_root", "slopes_at",
    "DifferentialForm", "exactness_defect", "integrating_factor", "potential",
    "raw_form", "scaled_form", "solve_for_xy",
    "TraceConfig", "TraceResult", "trace_orthogonal",
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


def test_lazy_namespace_contract():
    for module, names in orthotraj._EXPORTS.items():
        assert list(names) == import_module(f"orthotraj.{module}").__all__, module
    star = {}
    exec("from orthotraj import *", star)
    assert set(star) - {"__builtins__"} == set(orthotraj.__all__) == EXPORTS
    assert EXPORTS <= set(dir(orthotraj))
    assert orthotraj.slopes_at is orthotraj.roots.slopes_at is vars(orthotraj)["slopes_at"]


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
    assert cli_plot.run(["classify", "-C", "1"]) == 0
    seen.append("numpy" in sys.modules)
orthotraj.intersections(1.0, orthotraj.TrajectoryCurve(0.0), -10, 10)
seen.append("numpy" in sys.modules)
orthotraj.conic_fit(orthotraj.TrajectoryCurve(0.0))
seen.append("numpy" in sys.modules)
print(seen)
"""


def _fresh_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``argv`` in a fresh interpreter importing the same
    package as this test."""
    src = os.path.dirname(os.path.dirname(orthotraj.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=60, env=env
    )


def test_numpy_loads_only_where_used():
    proc = _fresh_python(_NUMPY_STEPS)
    assert proc.returncode == 0, proc.stderr
    # import, trace, verify --help, classify, intersections, the conic fit: none loads numpy.
    assert proc.stdout.strip() == str([False] * 6)


def test_no_module_imports_numpy():
    for path in sorted(Path(orthotraj.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "numpy" for n in names), f"{path.name}:{node.lineno}"


_WITHOUT_NUMPY = """
import contextlib, io, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from orthotraj import cli_plot
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli_plot.run(["trace", "--x0", "1", "--y0", "2"]))
    codes.append(cli_plot.run(["plot", "--preset", "fig1a", "-o", sys.argv[1]]))
    codes.append(cli_plot.run(["intersect", "-m", "1", "-C", "0"]))
    codes.append(cli_plot.run(["classify", "-C", "1"]))
    for suite in ("exactness", "potential", "ode-identity", "orthogonality", "extra-crossing",
                  "conic", "cusps", "tracer", "figure"):
        codes.append(cli_plot.run(["verify", "--suite", suite]))
print(codes)
"""


def test_numpy_free_paths_run_without_numpy(tmp_path):
    proc = _fresh_python(_WITHOUT_NUMPY, str(tmp_path / "f.svg"))
    assert proc.returncode == 0, proc.stderr
    # trace, plot, intersect, classify, then all nine suites: all exit 0.
    assert proc.stdout.strip() == str([0] * 13), proc.stderr


# The first two lines run before anything sets sys.modules["dataclasses"],
# which would itself put the name in sys.modules.
_WITHOUT_DATACLASSES = """
import contextlib, io, sys
import orthotraj
seen = ["dataclasses" in sys.modules]
import orthotraj.cli_plot
seen.append("dataclasses" in sys.modules)
sys.modules["dataclasses"] = None  # any import of dataclasses now raises ImportError
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["trace", "--x0", "1", "--y0", "2"], ["intersect", "-m", "1", "-C", "0"],
                 ["classify", "-C", "1"], ["plot", "--preset", "fig1a", "-o", sys.argv[1]],
                 ["verify", "--suite", "all"]):
        codes.append(orthotraj.cli_plot.run(argv))
print(seen, codes)
"""


def test_no_command_loads_dataclasses(tmp_path):
    # A fresh interpreter: pytest itself has loaded dataclasses here.
    proc = _fresh_python(_WITHOUT_DATACLASSES, str(tmp_path / "f.svg"))
    assert proc.returncode == 0, proc.stderr
    # Neither import loads it; trace, intersect, classify, plot, verify all exit 0.
    assert proc.stdout.strip() == "[False, False] [0, 0, 0, 0, 0]", proc.stderr


_PRINT_LOADED = """
import sys
print(sorted(m.removeprefix("orthotraj.") for m in sys.modules if m.startswith("orthotraj.")))
"""
_UNKNOWN_NAME = """
import orthotraj
try:
    orthotraj.no_such_name
except AttributeError as exc:
    print(exc)
"""


def test_unknown_name_raises_at_once_and_loads_nothing():
    proc = _fresh_python(_UNKNOWN_NAME + _PRINT_LOADED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "module 'orthotraj' has no attribute 'no_such_name'", "[]"
    ]


_CLI = """
import contextlib, io, sys
from orthotraj import cli_plot
with contextlib.redirect_stdout(io.StringIO()):
    assert cli_plot.run(sys.argv[1:]) == 0
"""
_TRACE = """
import orthotraj as ot
ot.trace_orthogonal(ot.TraceConfig(start=ot.Point(1.0, 2.0), max_arc=0.05))
"""
_TRACING = ["core_model", "errors", "roots", "tracer"]


@pytest.mark.parametrize(
    "code, argv, loaded",
    [
        ("import orthotraj", [], []),
        ("import orthotraj.roots", [], ["errors", "roots"]),
        ("from orthotraj import slopes_at", [], ["errors", "roots"]),
        (_TRACE, [], _TRACING),
        (_CLI, ["trace", "--x0", "1", "--y0", "2"], ["cli_plot", *_TRACING]),
        (_CLI, ["verify", "--help"], ["cli_plot", "core_model", "errors"]),
        (_CLI, ["intersect", "-m", "1", "-C", "0"],
         ["cli_plot", "core_model", "errors", "geometry_analysis", "roots"]),
    ],
    ids=["package", "import-roots", "from-package", "trace", "cli-trace", "cli-verify-help",
         "cli-intersect"],
)
def test_each_entry_point_loads_only_its_modules(code, argv, loaded):
    proc = _fresh_python(code + _PRINT_LOADED, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(loaded)


_CURVE = TrajectoryCurve(0.0)
# One instance of every record type, with one of its fields.
RECORDS = [
    (Point(1.0, 2.0), "x"),
    (line_at(PARABOLA_NORMALS, 1.0), "slope"),
    (_CURVE, "C"),
    (orthogonal_foot(PARABOLA_NORMALS, 1.0, _CURVE), "point"),
    (slopes_at(3.0, 1.0), "roots"),
    (raw_form(), "M"),
    (TraceConfig(), "tol"),
    (trace_orthogonal(TraceConfig(start=Point(1.0, 2.0), max_arc=0.05)), "samples"),
    (intersections(1.0, _CURVE, -5.0, 5.0)[0], "t"),
    (conic_fit(_CURVE), "residual"),
    (CheckResult("claim", True, "detail"), "passed"),
    (CurveSpec(0.0), "C"),
    (PlotSpec(), "lines"),
]
RECORD_IDS = [type(rec).__name__ for rec, _ in RECORDS]


@pytest.mark.parametrize("record, field", RECORDS, ids=RECORD_IDS)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):  # no instance __dict__ to take a new name
        record.undeclared = 0.0


def test_records_are_tuples_of_their_values():
    assert line_at(PARABOLA_NORMALS, 1.0) == (1.0, -3.0)
    assert TrajectoryCurve(2.0) == (2.0,)
    (C,) = TrajectoryCurve(2.0)
    assert C == 2.0


@pytest.mark.parametrize(
    "make",
    [
        lambda: TrajectoryCurve(math.inf),
        lambda: TrajectoryCurve(math.nan),
        lambda: TraceConfig(step=0.0),
        lambda: TraceConfig(1.0, 2.0, 1.0, -1.0),  # positional max_arc
        lambda: TrajectoryCurve(1.0)._replace(C=math.inf),
        lambda: TraceConfig()._replace(tol=math.nan),
    ],
    ids=["curve-inf", "curve-nan", "step-0", "max-arc-negative", "curve-replace", "config-replace"],
)
def test_checked_records_reject_bad_values(make):
    with pytest.raises(DomainError):
        make()


@pytest.mark.parametrize(
    "record",
    [TrajectoryCurve(-4.0), TraceConfig(start=Point(1.0, 2.0), step=0.5),
     slopes_at(3.0, -1.0)],
    ids=["TrajectoryCurve", "TraceConfig", "RootSet"],
)
def test_records_survive_pickle(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


def test_rootset_is_sized_and_iterated_by_its_roots():
    rs = slopes_at(3.0, 1.0)  # p^3 + p^2 - 1 has one real root
    assert len(rs) == len(rs.roots) == 1
    assert list(rs) == list(rs.roots)
    three = slopes_at(3.0, -0.1)
    assert len(three) == 3 and tuple(three) == three.roots


def test_rootset_repr_rebuilds_it():
    rs = slopes_at(3.0, -0.1)
    assert repr(rs) == f"RootSet(roots={rs.roots!r}, multiplicities={rs.multiplicities!r})"
    assert eval(repr(rs), {"RootSet": RootSet}) == rs


def test_rootset_equal_and_hashed_by_value():
    a, b = slopes_at(3.0, 1.0), slopes_at(3.0, 1.0)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != slopes_at(3.0, 2.0)
    assert a != (a.roots, a.multiplicities)
    assert RootSet((), ()) == RootSet(roots=(), multiplicities=())

"""Acceptance gate: the nine headline properties at their stated tolerances.

Each test runs one criterion through the verification suites and prints
a single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to see them).  Tolerances live in the suites; nothing is loosened here.

  1. exactness pipeline: raw-form defect 2p^2+1 and exact scaled form,
     both to 1e-8 on the (y, p) grid, and the scaled form equal to
     mu(p) = 1/(p sqrt(1+p^2)) times the raw form to 1e-14 relative
  2. potential/parametrization consistency (1e-9 / 1e-12)
  3. on-curve identity of the implicit slope equation (1e-9 relative)
  4. orthogonality at scale: 1000 random (m, C) feet (incidence, and
     the curve's tangent, by 4th-order central differences of its points,
     normal to the line, to 1e-9) and exactly one crossing at a right
     angle each (on the velocity), at t = -m
  5. the non-orthogonal second crossing of (m=1, C=0) at t=3, (9, 6),
     slope product 1/3 (1e-8)
  6. parabola degeneration: the verdict is parabola iff C = 0, with
     conic ~ y^2 - 4x at C = 0 and residual >= 1e-3 for C != 0, and each
     member on its sextic F_C = 0 (1e-14 relative to its terms)
  7. cusp census: 0/1/2 cusps for C > -2 / = -2 / < -2, with
     t = +-0.766421 (1e-6) at C = -4
  8. tracer fidelity: closed-form agreement 1e-5, potential drift
     <= 10*tol, classic first integrals conserved to 1e-6
  9. figure reproduction: deterministic well-formed SVG, 8 curve paths
     across the presets, one dashed per panel, lines m = 1, 2, -3

The names of the 30 checks are pinned, so a changed tolerance or a
dropped check shows in the diff.  The checks must also fail when their
property does: a nan residual fails and reads nan, and a curve whose
points are tilted off the foot's right angle fails the tangent check.
A scan that returns one crossing of the m = 1 line fails both
extra-crossing checks, and an SVG that does not parse fails both
figure checks.
"""

import math

import pytest

from orthotraj import verification
from orthotraj.core_model import Point
from orthotraj.verification import SUITES

CHECK_NAMES = {
    "exactness": [
        "raw form defect equals 2p^2+1 (tol 1e-8)",
        "scaled form is exact (tol 1e-8)",
        "scaled form = mu(p) * raw form (rel tol 1e-14)",
    ],
    "potential": [
        "potential(solve_for_xy(p, C)) = C (tol 1e-9)",
        "solve_for_xy(p, C) = curve_point(C, 1/p) for p > 0 (tol 1e-12)",
    ],
    "ode-identity": ["on-curve residual of y p^3 = p^2 (2-x) + 1 (rel tol 1e-9)"],
    "orthogonality": [
        "foot incidence on the line (tol 1e-9)",
        "curve tangent at the foot is normal to the line (tol 1e-9)",
        "exactly one right-angle crossing per (m, C) on [-10, 10], at t = -m",
    ],
    "extra-crossing": [
        "orthogonal crossing at t=-1, point (1, -2)",
        "non-orthogonal crossing at t=3, point (9, 6), product 1/3",
    ],
    "conic": [
        "C=0 classifies as parabola with conic proportional to y^2 - 4x",
        "every tested C != 0 is non-conic with residual >= 1e-3",
        "members lie on their sextic F_C(x, y) = 0 (rel tol 1e-14)",
    ],
    "cusps": [
        "cusp count for C=0 is 0",
        "cusp count for C=1 is 0",
        "cusp count for C=-1 is 0",
        "cusp count for C=-2 is 1",
        "cusp count for C=-4 is 2",
        "velocity vanishes at reported cusps of C=-4",
        "C < -2 members cross themselves at (1 + C^2/4, 0), t = +-sqrt(C^2/4 - 1)",
        "C >= -2 members meet the axis only at t = 0",
    ],
    "tracer": [
        "traces match closed-form curves (tol 1e-5)",
        "potential drift <= 10*tol along traces",
        "classic hyperbola-pair conserves its first integral (tol 1e-6)",
        "classic monopole conserves its first integral (tol 1e-6)",
        "classic shifted-monopole conserves its first integral (tol 1e-6)",
    ],
    "figure": [
        "fig1a: deterministic well-formed SVG with 4 curves, one dashed, 3 lines",
        "fig1b: deterministic well-formed SVG with 4 curves, one dashed, 3 lines",
        "presets total 8 curve paths, one dashed each",
    ],
}

CRITERIA = [
    ("1 exactness pipeline", "exactness"),
    ("2 potential/parametrization consistency", "potential"),
    ("3 on-curve ODE identity", "ode-identity"),
    ("4 orthogonality theorem at desk scale", "orthogonality"),
    ("5 non-orthogonal extra crossing", "extra-crossing"),
    ("6 parabola degeneration dichotomy", "conic"),
    ("7 cusp regime", "cusps"),
    ("8 tracer fidelity", "tracer"),
    ("9 figure reproduction", "figure"),
]


@pytest.mark.parametrize("label,suite", CRITERIA, ids=[c[0].replace(" ", "-") for c in CRITERIA])
def test_acceptance_criterion(label, suite):
    results = SUITES[suite]()
    assert [r.name for r in results] == CHECK_NAMES[suite]
    assert all(isinstance(r.passed, bool) for r in results)  # a report writes them as JSON
    passed = all(r.passed for r in results)
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {label}")
    for r in results:
        print(f"    [{'ok' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    failures = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert passed, f"criterion {label} failed: " + "; ".join(failures)


def test_every_check_name_is_pinned():
    assert list(CHECK_NAMES) == list(SUITES)
    assert sum(map(len, CHECK_NAMES.values())) == 30


def _check(results, name):
    (check,) = [r for r in results if r.name == name]
    return check


@pytest.mark.parametrize("y_nan,p_nan", [(-10.0, 0.1), (10.0, -0.1)])
def test_nan_defect_fails(monkeypatch, y_nan, p_nan):
    # The first and the last grid point: max() drops a nan unless it
    # comes first, and 0.0 came first in the old accumulators.
    defect = verification.exactness_defect
    monkeypatch.setattr(verification, "exactness_defect", lambda form, y, p, h: (
        math.nan if (y, p) == (y_nan, p_nan) else defect(form, y, p, h)))
    results = verification.suite_exactness()
    for name in ("raw form defect equals 2p^2+1 (tol 1e-8)", "scaled form is exact (tol 1e-8)"):
        check = _check(results, name)
        assert not check.passed and check.detail.endswith(" = nan")


def test_nan_trace_deviation_fails(monkeypatch):
    monkeypatch.setattr(verification, "trace_deviation", lambda curve, result: math.nan)
    check = _check(verification.suite_tracer(), "traces match closed-form curves (tol 1e-5)")
    assert not check.passed
    assert check.detail == "max deviation = nan over C in {-1, 0, 1, 3}"


def test_trace_deviation_keeps_a_nan_sample():
    class Result:
        samples = [(Point(2.0, 2.0), 1.0), (Point(math.nan, 2.0), 1.0), (Point(1.0, 3.0), 1.0)]

    assert math.isnan(verification.trace_deviation(verification.TrajectoryCurve(-1.0), Result))


def test_tangent_check_sees_tilted_points(monkeypatch):
    # y += 1e-6 t^2 leaves curve_velocity as it is, but turns the tangent
    # of the points at t = -m by about 2e-6 m.
    point = verification.curve_point
    monkeypatch.setattr(verification, "curve_point", lambda curve, t: Point(
        point(curve, t).x, point(curve, t).y + 1e-6 * t * t))
    check = _check(verification.suite_orthogonality(),
                   "curve tangent at the foot is normal to the line (tol 1e-9)")
    assert not check.passed
    assert 1e-5 < float(check.detail.rsplit(" = ", 1)[1]) < 1e-4


def test_one_crossing_fails_the_extra_crossing_checks(monkeypatch):
    scan = verification.intersections
    monkeypatch.setattr(verification, "intersections", lambda *args: scan(*args)[:1])
    results = verification.suite_extra_crossing()
    assert [r.passed for r in results] == [False, False]
    assert {r.detail for r in results} == {"expected 2 records, got 1"}


def test_malformed_svg_fails_the_figure_checks(monkeypatch):
    from orthotraj import cli_plot

    monkeypatch.setattr(cli_plot, "render_figure", lambda spec: "<svg")
    results = verification.suite_figure()
    assert not any(r.passed for r in results)
    assert results[0].detail == "curves=0, dashed=0, lines=0, deterministic=True"

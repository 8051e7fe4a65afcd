"""Runnable verification suites for every headline property.

Each suite checks one claim at its stated tolerance and reports
structured pass/fail results.  The suites back both the ``verify`` CLI
subcommand and the acceptance test module; each embeds its own
independent reference (closed forms, complex-step derivatives, conserved
quantities, brute-force scans) rather than trusting the code path it
exercises.  Every "worst residual <= tol" check is built by ``_bound``,
which writes the tolerance into the check's name once and fails on a nan
residual; the few checks that print two values or a custom name are
built by hand with the same nan rule, through ``_worst``.  The suites
are scalar Python: every grid comes from ``core_model.linspace`` and the
orthogonality pairs from a seeded ``random.Random``, and the conic fit is
exact integer arithmetic.  No array library is used.
"""

import math
import random
from typing import NamedTuple

from .core_model import (
    PARABOLA_NORMALS,
    TrajectoryCurve,
    curve_point,
    curve_velocity,
    cusp_parameters,
    line_at,
    linspace,
    ode_o_residual,
    orthogonal_foot,
)
from .exact_ode import (_H, exactness_defect, integrating_factor, potential, raw_form,
                        scaled_form, solve_for_xy)
from .geometry_analysis import classify_conic, conic_fit, intersections
from .tracer import TraceConfig, trace_orthogonal

__all__ = ["CheckResult", "SUITES", "run_suites"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _worst(residuals) -> float:
    """The largest residual, 0 for none, and nan if any is nan: max()
    alone would skip a nan that is not first."""
    return max(residuals, key=lambda r: (math.isnan(r), r), default=0.0)


def _bound(claim, tol, measured, residuals, note="", rel=False) -> CheckResult:
    """The check "worst residual <= tol", named by the claim and its
    tolerance, detailed by the measured quantity's worst value; a nan
    residual fails and reads nan."""
    worst = _worst(residuals)
    bound = f"{'rel ' * rel}tol {tol:g}".replace("e-0", "e-")
    return CheckResult(f"{claim} ({bound})", worst <= tol, f"{measured} = {worst:.3e}{note}")


# The p values of the verification grid: +-[0.1, 10], 25 of each sign.
_GRID_P = linspace(0.1, 10.0, 25) + linspace(-10.0, -0.1, 25)


def _grid_yp():
    """The shared verification grid: y in [-10, 10], p in ``_GRID_P``."""
    return [(y, p) for y in linspace(-10.0, 10.0, 20) for p in _GRID_P]


def suite_exactness():
    """Defect of the raw form equals 2p^2 + 1; the scaled form is exact and
    is mu(p) times the raw form."""
    raw = raw_form()
    scaled = scaled_form()
    grid = _grid_yp()
    # Each gap relative to its term's scale: M~ = sqrt(1+p^2) and
    # (|p y| + 2/p^2) / sqrt(1+p^2), the sum of N~'s two terms.  Both
    # M read p alone, so the M gap runs over the grid's distinct p.
    gap_M = _worst(abs(scaled.M(0.0, p) - integrating_factor(p) * raw.M(0.0, p))
                   / math.sqrt(1.0 + p * p) for p in _GRID_P)
    gap_N = _worst(abs(scaled.N(y, p) - integrating_factor(p) * raw.N(y, p))
                   * math.sqrt(1.0 + p * p) / (abs(p * y) + 2.0 / (p * p)) for y, p in grid)
    tol_mu = 1e-14
    return [
        _bound("raw form defect equals 2p^2+1", 1e-8, "max |defect - (2p^2+1)|",
               (abs(exactness_defect(raw, y, p) - (2.0 * p * p + 1.0)) for y, p in grid)),
        _bound("scaled form is exact", 1e-8, "max |defect|",
               (abs(exactness_defect(scaled, y, p)) for y, p in grid)),
        CheckResult(
            f"scaled form = mu(p) * raw form (rel tol {tol_mu:g})",
            gap_M <= tol_mu and gap_N <= tol_mu,
            f"max relative gap M = {gap_M:.3e}, N = {gap_N:.3e}",
        ),
    ]


def suite_potential():
    """Level-set and parametrization consistency of the first integral.
    The level check reads p alone, so it runs over the grid's distinct p."""
    return [
        _bound("potential(solve_for_xy(p, C)) = C", 1e-9, "max |F - C|",
               (abs(potential(solve_for_xy(p, float(C)).y, p) - C)
                for C in range(-4, 5) for p in _GRID_P)),
        _bound("solve_for_xy(p, C) = curve_point(C, 1/p) for p > 0", 1e-12, "max coordinate gap",
               (gap for C in map(float, range(-4, 5)) for p in linspace(0.1, 10.0, 50)
                for a in [solve_for_xy(p, C)] for b in [curve_point(TrajectoryCurve(C), 1.0 / p)]
                for gap in (abs(a.x - b.x), abs(a.y - b.y)))),
    ]


def suite_ode_identity():
    """The closed-form curves satisfy the implicit slope equation."""
    def relative_residuals(curve):
        for t in linspace(-6.0, 6.0, 1201):
            if abs(t) < 1e-3:
                continue
            x, y = curve_point(curve, t)
            p = 1.0 / t
            scale = max(1.0, abs(y * p**3), abs(p * p * (2.0 - x)))
            yield abs(ode_o_residual(x, y, p)) / scale

    return [
        _bound("on-curve residual of y p^3 = p^2 (2-x) + 1", 1e-9, "max relative residual",
               (r for C in (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0)
                for r in relative_residuals(TrajectoryCurve(C))), rel=True)
    ]


def _random_foot_pairs():
    """1000 seeded (m, C) pairs, |m| in [0.1, 3] and C in [-5, 5].  No
    foot sits on a cusp: the foot's velocity factor 2 + C (1 + m^2)^-1.5
    is at least 0.05 in magnitude over these draws."""
    rng = random.Random(20260810)
    return [(rng.uniform(0.1, 3.0) * (1.0 if rng.random() < 0.5 else -1.0),
             rng.uniform(-5.0, 5.0)) for _ in range(1000)]


def _right_angle_defect(m: float, v) -> float:
    """|v . (1, m)| / (|v| sqrt(1 + m^2)) for a curve tangent v: the cosine
    of the angle between the curve and the slope-m line, 0 where they meet
    at a right angle, inf at a cusp, where v = (0, 0)."""
    vx, vy = v
    norm = math.hypot(1.0, m) * math.hypot(vx, vy)
    return abs(vx + m * vy) / norm if norm else math.inf


def suite_orthogonality():
    """Foot incidence; the tangent at the foot t = -m, read as H v from the
    imaginary parts of the point at the complex step t + iH (the angle does
    not depend on H), since the velocity (t g, g) has v . (1, m) = (t + m) g
    = 0 at the foot whatever the points; and crossing uniqueness (on v)."""
    pairs = _random_foot_pairs()
    unique_failures = 0
    for m, C in pairs:
        curve = TrajectoryCurve(C)
        right = [r.t for r in intersections(m, curve, -10.0, 10.0)
                 if _right_angle_defect(m, curve_velocity(curve, r.t)) <= 1e-9]
        unique_failures += right != [-m]
    return [
        _bound("foot incidence on the line", 1e-9, "max |y - (mx - 2m - m^3)|",
               (abs(foot.point.y - line_at(PARABOLA_NORMALS, m).y_at(foot.point.x))
                for m, C in pairs
                for foot in [orthogonal_foot(PARABOLA_NORMALS, m, TrajectoryCurve(C))]),
               f" over {len(pairs)} pairs"),
        _bound("curve tangent at the foot is normal to the line", 1e-9,
               "max |v . (1, m)| / (|v| sqrt(1 + m^2))",
               (_right_angle_defect(m, (z.x.imag, z.y.imag)) for m, C in pairs
                for z in [curve_point(TrajectoryCurve(C), complex(-m, _H))])),
        CheckResult(
            "exactly one right-angle crossing per (m, C) on [-10, 10], at t = -m",
            unique_failures == 0,
            f"{unique_failures} pairs without exactly one crossing at a right angle (tol 1e-9)",
        ),
    ]


def suite_extra_crossing():
    """The m=1 line cuts the parabola a second, non-orthogonal time."""
    recs = intersections(1.0, TrajectoryCurve(0.0), -5.0, 5.0)
    ok_count = len(recs) == 2
    tol = 1e-8  # on every coordinate and on the slope product
    checks = []
    if ok_count:
        first, second = recs
        ok_foot = first.orthogonal and _worst(
            map(abs, (first.t + 1.0, first.point.x - 1.0, first.point.y + 2.0))) <= tol
        ok_extra = not second.orthogonal and _worst(map(abs, (
            second.t - 3.0, second.point.x - 9.0, second.point.y - 6.0,
            second.slope_product - 1.0 / 3.0))) <= tol
        detail = (
            f"t = {first.t:.9f} (orthogonal={first.orthogonal}), "
            f"t = {second.t:.9f} at ({second.point.x:.6f}, {second.point.y:.6f}), "
            f"slope product {second.slope_product:.9f}"
        )
    else:
        ok_foot = ok_extra = False
        detail = f"expected 2 records, got {len(recs)}"
    checks.append(
        CheckResult("orthogonal crossing at t=-1, point (1, -2)", ok_count and ok_foot, detail)
    )
    checks.append(
        CheckResult(
            "non-orthogonal crossing at t=3, point (9, 6), product 1/3",
            ok_count and ok_extra,
            detail,
        )
    )
    return checks


def _sextic(C, x, y):
    """F_C(x, y), the resultant in t of member C's equations (x - t^2)^2
    (1 + t^2) = C^2 and y - 2t + t (x - t^2) = 0, and the sum of its 23
    terms' magnitudes.  Plain arithmetic, so it runs exactly on ``Fraction``."""
    c2, x2, y2 = C * C, x * x, y * y
    c4, x3, y4 = c2 * c2, x2 * x, y2 * y2
    terms = (y4 * y2, x2 * y4, -10 * x * y4, y4, -8 * x3 * y2, 32 * x2 * y2, -8 * x * y2,
             16 * x2 * x2, -32 * x3, 16 * x2,
             -3 * c2 * y4, -2 * c2 * x2 * y2, 2 * c2 * x * y2, -20 * c2 * y2, -8 * c2 * x3,
             -8 * c2 * x2, 32 * c2 * x, -16 * c2,
             c4 * x2, 8 * c4 * x, 3 * c4 * y2, -8 * c4, -c4 * c2)
    return sum(terms), sum(map(abs, terms))


def suite_conic():
    """C = 0 is the parabola y^2 = 4x; every other member is non-conic, a
    sextic F_C = 0 on which its points lie.  The verdict comes from
    ``classify_conic``, and the exact conic fit is the evidence that agrees:
    at C = 0 it is y^2 - 4x with residual 0, and for C != 0 its conic
    through five points misses the sixth."""
    parab = conic_fit(TrajectoryCurve(0.0))
    members = (-4.0, -2.0, -1.0, 1.0, 2.0, 4.0)
    fits = [(conic_fit(TrajectoryCurve(C)), C) for C in members]
    closest, C_closest = min(fits, key=lambda fit_C: fit_C[0].residual)
    return [
        CheckResult("C=0 classifies as parabola with conic exactly y^2 - 4x and residual 0",
                    classify_conic(TrajectoryCurve(0.0)) == "parabola"
                    and parab == ((0.0, 0.0, -0.25, 1.0, 0.0, 0.0), 0.0),
                    f"coefficients (x^2, xy, y^2, x, y, 1) = "
                    f"{', '.join(f'{v:g}' for v in parab.coeffs)}, residual = {parab.residual:g}"),
        CheckResult("every tested C != 0 is non-conic with residual > 0",
                    all(classify_conic(TrajectoryCurve(C)) == "non-conic"
                        and fit.residual > 0.0 for fit, C in fits),
                    f"smallest residual {closest.residual:.3e} at C={C_closest:g}"),
        _bound("members lie on their sextic F_C(x, y) = 0", 1e-14, "max |F_C| / sum |terms|",
               (abs(F) / scale for C in (0.0, *members) for curve in [TrajectoryCurve(C)]
                for t in linspace(-3.0, 3.0, 50)
                for F, scale in [_sextic(C, *curve_point(curve, t))]),
               " over C in {-4, -2, -1, 0, 1, 2, 4}", rel=True),
    ]


def suite_cusps():
    """Cusp census: none for C > -2, one at C = -2, a pair for C < -2;
    a C < -2 member crosses itself on the axis, and no other does."""
    checks = []
    # Each row: C, the expected cusps, and their tolerance (C = -2's is exact).
    for C, expected, tol in ((0.0, (), 0.0), (1.0, (), 0.0), (-1.0, (), 0.0),
                             (-2.0, (0.0,), 0.0), (-4.0, (-0.766421, 0.766421), 1e-6)):
        got = cusp_parameters(TrajectoryCurve(C))
        ok = len(got) == len(expected) and all(abs(g - e) <= tol for g, e in zip(got, expected))
        detail = f"C={C:g}: cusps at {[f'{t:.9f}' for t in got]}"
        checks.append(CheckResult(f"cusp count for C={C:g} is {len(expected)}", ok, detail))

    # The census must agree with the velocity: both components vanish
    # exactly at the reported parameters and nowhere else on a fine grid.
    curve = TrajectoryCurve(-4.0)
    cusps = cusp_parameters(curve)
    speeds = [math.hypot(*curve_velocity(curve, t)) for t in cusps]
    checks.append(
        CheckResult(
            "velocity vanishes at reported cusps of C=-4",
            len(speeds) == 2 and _worst(speeds) <= 1e-12,
            f"speeds {['%.3e' % s for s in speeds]}",
        )
    )

    # The double point: y = t (2 + C / sqrt(1 + t^2)) vanishes at t = 0
    # and, for C < -2 alone, at t = +-sqrt(C^2/4 - 1), where x is even in
    # t, so both parameters land on (1 + C^2/4, 0).  The axis meetings are
    # counted as sign changes of y on a grid that skips t = 0.
    grid = linspace(-10.0, 10.0, 400)

    def axis_meetings(curve):
        ys = [curve_point(curve, t).y for t in grid]
        return sum((u > 0.0) != (v > 0.0) for u, v in zip(ys, ys[1:]))

    gaps = []
    counts = {}
    for C in (-10.0, -4.0, -2.5):
        curve = TrajectoryCurve(C)
        t_star = math.sqrt(C * C / 4.0 - 1.0)
        x_star = 1.0 + C * C / 4.0
        for t in (-t_star, t_star):
            pt = curve_point(curve, t)
            gaps.append(math.hypot(pt.x - x_star, pt.y) / x_star)
        counts[C] = axis_meetings(curve)
    worst_gap = _worst(gaps)
    checks.append(
        CheckResult(
            "C < -2 members cross themselves at (1 + C^2/4, 0), t = +-sqrt(C^2/4 - 1)",
            worst_gap <= 1e-12 and all(n == 3 for n in counts.values()),
            f"max gap / (1 + C^2/4) = {worst_gap:.3e}; axis meetings {counts}",
        )
    )
    counts = {C: axis_meetings(TrajectoryCurve(C)) for C in (-2.0, -1.0, 0.0, 4.0)}
    checks.append(
        CheckResult(
            "C >= -2 members meet the axis only at t = 0",
            all(n == 1 for n in counts.values()),
            f"axis meetings {counts}",
        )
    )
    return checks


def trace_deviation(curve: TrajectoryCurve, result) -> float:
    """Max gap |P(1/p) - sample| over the trace samples.

    P(1/p) is the closed-form point whose slope is the sample's own
    tracked p, so the gap bounds the sample's distance to the curve and
    checks the tracked slope as well.
    """
    return _worst(math.hypot(ref.x - pt.x, ref.y - pt.y)
                  for pt, p in result.samples for ref in [curve_point(curve, 1.0 / p)])


def closed_form_arc(C: float, a: float, b: float) -> float:
    """The arc of member C between parameters a and b: |A(v) - A(u)|,
    A(t) = t sqrt(1 + t^2) + asinh t + C atan t, summed over the pieces
    between the cusps, where the signed speed dA/dt changes sign."""

    def A(t):
        return t * math.sqrt(1.0 + t * t) + math.asinh(t) + C * math.atan(t)

    inside = (c for c in cusp_parameters(TrajectoryCurve(C)) if min(a, b) < c < max(a, b))
    cuts = sorted([a, b, *inside])
    return sum(abs(A(v) - A(u)) for u, v in zip(cuts, cuts[1:]))


def suite_tracer():
    """Traces from the slope cubic's start root reproduce the closed form,
    conserve the normal offset, lie on their member's sextic, keep their
    samples within 2 step of arc and end each leg on its arc budget."""
    tol, step, max_arc = 1e-8, 1e-2, 20.0
    deviations, drifts, sextic, chords, arcs = [], [], [], [], []
    for C in (-4.0, -1.0, 0.0, 1.0, 3.0):
        curve = TrajectoryCurve(C)
        start = curve_point(curve, 1.0)
        cfg = TraceConfig(start=start, initial_slope_hint=1.0, step=step, max_arc=max_arc)
        res = trace_orthogonal(cfg)
        deviations.append(trace_deviation(curve, res))
        drifts.append(res.potential_drift)
        pts = [pt for pt, _ in res.samples]
        sextic.extend(abs(F) / scale for pt in pts[::25] for F, scale in [_sextic(C, *pt)])
        chords.extend(math.hypot(b.x - a.x, b.y - a.y) for a, b in zip(pts, pts[1:]))
        arcs.extend(abs(closed_form_arc(C, 1.0, 1.0 / p) - max_arc) / max_arc
                    for _, p in (res.samples[0], res.samples[-1]))
    worst_drift, worst_chord = _worst(drifts), _worst(chords)
    over = " over C in {-4, -1, 0, 1, 3}"
    return [
        _bound("traces match closed-form curves", 1e-5, "max deviation", deviations, over),
        CheckResult(
            "potential drift <= 10*tol along traces",
            worst_drift <= 10.0 * tol,
            f"max drift = {worst_drift:.3e} (bound {10.0 * tol:.1e})",
        ),
        _bound("trace samples lie on their sextic F_C(x, y) = 0", 1e-14,
               "max |F_C| / sum |terms|", sextic, " at every 25th sample", rel=True),
        CheckResult(
            "no chord between trace samples exceeds 2*step",
            worst_chord <= 2.0 * step,
            f"max chord = {worst_chord:.6f} (2*step = {2.0 * step:g})",
        ),
        _bound("each leg's closed-form arc equals max_arc", 1e-12,
               "max |arc - max_arc| / max_arc", arcs, rel=True),
    ]


def suite_figure():
    """Preset figures are deterministic, well-formed, and complete."""
    import xml.etree.ElementTree as ET

    from .cli_plot import preset_spec, render_figure

    checks = []
    total_curves = 0
    total_dashed = 0
    for name in ("fig1a", "fig1b"):
        spec = preset_spec(name)
        svg_a = render_figure(spec)
        svg_b = render_figure(spec)
        deterministic = svg_a == svg_b
        try:
            root = ET.fromstring(svg_a)
            well_formed = True
        except ET.ParseError:
            root = None
            well_formed = False
        n_curve = n_line = n_dashed = 0
        if root is not None:
            for el in root.iter():
                if el.tag.endswith("path"):
                    cls = el.get("class", "")
                    if cls == "curve":
                        n_curve += 1
                        if el.get("stroke-dasharray"):
                            n_dashed += 1
                    elif cls == "family-line":
                        n_line += 1
        total_curves += n_curve
        total_dashed += n_dashed
        checks.append(
            CheckResult(
                f"{name}: deterministic well-formed SVG with 4 curves, "
                f"one dashed, 3 lines",
                deterministic
                and well_formed
                and n_curve == 4
                and n_dashed == 1
                and n_line == 3
                and spec.lines == (1.0, 2.0, -3.0),
                f"curves={n_curve}, dashed={n_dashed}, lines={n_line}, "
                f"deterministic={deterministic}",
            )
        )
    checks.append(
        CheckResult(
            "presets total 8 curve paths, one dashed each",
            total_curves == 8 and total_dashed == 2,
            f"total curves = {total_curves}, dashed = {total_dashed}",
        )
    )
    return checks


SUITES = {
    "exactness": suite_exactness,
    "potential": suite_potential,
    "ode-identity": suite_ode_identity,
    "orthogonality": suite_orthogonality,
    "extra-crossing": suite_extra_crossing,
    "conic": suite_conic,
    "cusps": suite_cusps,
    "tracer": suite_tracer,
    "figure": suite_figure,
}


def run_suites(names=None):
    """Run the named suites (all by default); returns (report, all_passed).

    ``report`` is a list of (suite_name, [CheckResult, ...]) pairs.
    """
    report = [(name, SUITES[name]()) for name in (SUITES if names is None else names)]
    return report, all(r.passed for _, results in report for r in results)

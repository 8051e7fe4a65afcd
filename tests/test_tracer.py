"""Tracer tests.

Covers:
  - the parabola trace: stays on y^2 = 4x, covers x in [0.1, 9]
  - closed-form agreement for C in {-1, 0, 1, 3} from t0 = 1, measured
    as the gap |P(1/p) - sample| that the verify tracer suite also uses
  - potential conservation (drift <= 10 * 1e-8), also across the sharp
    vertex of a member just above the cusp boundary C = -2; the drift is
    that of the normal offset (q (y - q) - x) / sqrt(1 + q^2)
  - slope-equation residual at every sample
  - sample spacing bounded by twice the configured step, each end spends
    its arc budget with no sample gap under 1e-3 among its last four
    samples
  - ``tol`` has no effect: the samples are the same at tol 1e-15 and 1,
    and both legs still end ``arc-limit``
  - cusps are crossed: a C = -4 trace has a sample on each closed-form
    cusp parameter, to 4 ulp of q, and a trace that starts on a cusp
    runs both ways
  - the vertical-tangent vertex is crossed: the trace reaches y < 0 on
    the closed form and runs its arc budget both ways
  - the forward end runs along +x from the start, for either sign of q
    and of D = 3q^2 + 2 - x
  - the drift equals max |F - C| recomputed from the samples to the
    rounding of q = 1/p, the start sample appears once, and every sample
    point is a Point, on the parabola and on a cusped member; a sample
    off its member shows in the drift
  - the walk's shared checks (sample spacing, each end's arc budget, no
    sliver of a step at an end) hold on the parabola and on a member
    with two cusps, started between them
  - a far start, (1e300, 0.5), whose one ulp of q holds more arc than
    the budget, is its own trace; the arc stays finite next to
    |q| = 1e154, where its unhalved sums overflow
  - ``TraceResult`` has the fields samples, potential_drift and
    end_reasons, the one record of how each leg ended
  - every hint picks the root nearest it, however far, and no hint is
    the hint 0
  - error cases: no slope branch, a start slope from ``slopes_at`` that
    does not solve the cubic (p = 0 or spurious), a missing or
    non-finite start, bad config (non-positive or non-finite step,
    max_arc or tol, a nan slope hint, max_arc / step past 1e6), and a
    ``domain`` keyword, as TraceConfig has no box
"""
import math
import sys
import types

import pytest

from orthotraj import (
    DomainError,
    NoBranchError,
    Point,
    TraceConfig,
    TraceResult,
    TrajectoryCurve,
    cusp_parameters,
    curve_point,
    ode_o_residual,
    slopes_at,
    trace_orthogonal,
)
from orthotraj import tracer


def closed_form_gap(curve, result):
    """Max gap between each sample and the curve point sharing its slope.

    Every sample carries the tracked slope p; 1/p is the curve parameter
    of the matching closed-form point, so the gap bounds the deviation
    without reusing any tracer machinery.
    """
    worst = 0.0
    for pt, p in result.samples:
        ref = curve_point(curve, 1.0 / p)
        worst = max(worst, math.hypot(ref.x - pt.x, ref.y - pt.y))
    return worst


# Each case is (start, hint), and its hint is the start's slope p0: the
# parabola, and C = -4 between its two cusps.
STARTS = [
    pytest.param(Point(1.0, 2.0), 1.0, id="orthogonal"),
    pytest.param(curve_point(TrajectoryCurve(-4.0), 0.5), 2.0, id="cusped"),
]


@pytest.mark.parametrize("start,hint", STARTS)
class TestSharedStepper:
    """What every leg of the walk shares, on a smooth member and across
    cusps: its sample spacing and where it ends."""

    def test_sample_spacing(self, start, hint):
        cfg = TraceConfig(start=start, initial_slope_hint=hint, max_arc=20.0)
        res = trace_orthogonal(cfg)
        assert len(res.samples) > 100
        for (a, _), (b, _) in zip(res.samples, res.samples[1:]):
            chord = math.hypot(b.x - a.x, b.y - a.y)
            assert chord <= 2.0 * cfg.step * (1.0 + 1e-9)

    def test_each_end_spends_its_arc_budget(self, start, hint):
        # At this spacing and curvature the chords of a half fall short of
        # its arc by about 2e-6 relative; the end lands on max_arc.
        cfg = TraceConfig(start=start, initial_slope_hint=hint, max_arc=5.0)
        res = trace_orthogonal(cfg)
        assert res.end_reasons == ("arc-limit", "arc-limit")
        pts = [pt for pt, _ in res.samples]
        i = pts.index(start)
        for half in (pts[: i + 1], pts[i:]):
            chords = sum(math.hypot(b.x - a.x, b.y - a.y) for a, b in zip(half, half[1:]))
            assert cfg.max_arc * (1.0 - 1e-5) <= chords <= cfg.max_arc * (1.0 + 1e-12)

    @pytest.mark.parametrize("max_arc", [0.5, 5.0, 20.0])
    def test_no_tiny_gap_at_an_end(self, start, hint, max_arc):
        # A block that would leave a sliver of a block before a leg's end
        # runs on to the end, so no end takes an extra sliver of a step.
        cfg = TraceConfig(start=start, initial_slope_hint=hint, max_arc=max_arc)
        pts = [pt for pt, _ in trace_orthogonal(cfg).samples]
        gaps = [math.hypot(b.x - a.x, b.y - a.y) for a, b in zip(pts, pts[1:])]
        assert min(gaps[:3] + gaps[-3:]) >= 1e-3


class TestTraceOrthogonal:
    def test_parabola_trace(self):
        res = trace_orthogonal(TraceConfig(start=Point(1.0, 2.0), initial_slope_hint=1.0))
        xs = [pt.x for pt, _ in res.samples]
        assert min(xs) < 0.1 and max(xs) > 9.0
        for pt, _ in res.samples:
            if 0.1 <= pt.x <= 9.0:
                assert abs(pt.y * pt.y - 4.0 * pt.x) <= 1e-6

    def test_trace_from_level_sqrt2(self):
        # (0, 3) = solve_for_xy(1, sqrt(2)); the trace follows the
        # C = sqrt(2) member and conserves the potential.
        res = trace_orthogonal(TraceConfig(start=Point(0.0, 3.0)))
        assert res.potential_drift <= 1e-6
        assert closed_form_gap(TrajectoryCurve(math.sqrt(2.0)), res) <= 1e-5

    def test_no_branch_at_start(self):
        with pytest.raises(NoBranchError):
            trace_orthogonal(TraceConfig(start=Point(1.0, 0.0)))

    @pytest.mark.parametrize("y0", [-1e-6, -1e-9])
    def test_spurious_start_root_is_no_branch(self, y0):
        # Next to the axis slopes_at returns a root of smallest magnitude
        # that does not solve q^3 + 2q - y0 = 0: p = 1.1e-6 at y0 = -1e-6,
        # p = 0 at y0 = -1e-9; the one true root is p ~ 2 / y0.
        with pytest.raises(NoBranchError, match="does not solve the slope cubic"):
            trace_orthogonal(TraceConfig(start=Point(0.0, y0)))

    def test_far_hint_picks_the_nearest_root(self):
        # Every hint picks a root, however far: at (1, 2) the one root is
        # p = 1; at (5, 2), 2p^3 + 3p^2 - 1 = (p + 1)^2 (2p - 1).
        for start, hint, p0 in (((1.0, 2.0), 3.0, 1.0), ((5.0, 2.0), 7.0, 0.5), ((5.0, 2.0), -7.0, -1.0)):
            res = trace_orthogonal(TraceConfig(start=Point(*start), initial_slope_hint=hint, max_arc=1.0))
            assert (Point(*start), p0) in res.samples
            assert res.end_reasons == ("arc-limit", "arc-limit")

    def test_no_hint_is_the_hint_zero(self):
        # At (8, 1) the cubic has three roots; the default start takes the
        # one of smallest |p|, the root nearest the hint 0.
        assert len(slopes_at(8.0, 1.0).roots) == 3
        cfg = TraceConfig(start=Point(8.0, 1.0), max_arc=5.0)
        assert trace_orthogonal(cfg) == trace_orthogonal(cfg._replace(initial_slope_hint=0.0))

    def test_closed_form_agreement(self):
        for C in (-1.0, 0.0, 1.0, 3.0):
            curve = TrajectoryCurve(C)
            start = curve_point(curve, 1.0)
            res = trace_orthogonal(
                TraceConfig(start=start, initial_slope_hint=1.0, max_arc=40.0)
            )
            assert closed_form_gap(curve, res) <= 1e-5
            assert res.potential_drift <= 10.0 * 1e-8

    def test_sample_residuals(self):
        cfg = TraceConfig(start=Point(1.0, 2.0), initial_slope_hint=1.0, max_arc=20.0)
        res = trace_orthogonal(cfg)
        for pt, p in res.samples:
            resid = ode_o_residual(pt.x, pt.y, p)
            scale = max(1.0, abs(pt.y * p**3), abs(p * p * (2.0 - pt.x)))
            assert abs(resid) <= 1e-6 * scale

    def test_cusped_member_crosses_both_cusps(self):
        # C = -4 has its cusps at t = +-0.76642, where D = 3q^2 + 2 - x
        # changes sign; the walk lands a block on each, so each is the
        # q = 1/p of a sample.
        curve = TrajectoryCurve(-4.0)
        start = curve_point(curve, 1.0)
        res = trace_orthogonal(TraceConfig(start=start, initial_slope_hint=1.0))
        assert res.end_reasons == ("arc-limit", "arc-limit")
        qs = [1.0 / p for _, p in res.samples]
        for t_cusp in cusp_parameters(curve):
            assert min(abs(q - t_cusp) for q in qs) <= 4.0 * math.ulp(t_cusp)
        assert closed_form_gap(curve, res) <= 1e-5
        assert res.potential_drift <= 10.0 * 1e-8

    def test_cusp_start_runs_both_ways(self):
        # (5, 2) lies on the evolute: q = -1 is the double root there, the
        # cusp of the member C = G(5, -1) = -4 sqrt(2), where the speed is 0.
        res = trace_orthogonal(TraceConfig(start=Point(5.0, 2.0), initial_slope_hint=-1.0))
        assert res.end_reasons == ("arc-limit", "arc-limit")
        i = res.samples.index((Point(5.0, 2.0), -1.0))
        assert 0 < i < len(res.samples) - 1
        assert closed_form_gap(TrajectoryCurve(-4.0 * math.sqrt(2.0)), res) <= 1e-5
        assert res.potential_drift <= 10.0 * 1e-8

    def test_vertex_crossing_matches_the_closed_form(self):
        # Tracing the parabola down through its vertex: q = dx/dy passes
        # through 0 there, so the trace goes on below the x-axis.
        res = trace_orthogonal(TraceConfig(start=Point(1.0, 2.0), initial_slope_hint=1.0))
        assert res.end_reasons == ("arc-limit", "arc-limit")
        assert min(pt.y for pt, _ in res.samples) < -1.0
        assert closed_form_gap(TrajectoryCurve(0.0), res) <= 1e-5
        assert res.potential_drift <= 10.0 * 1e-8

    def test_sharp_vertex_keeps_the_drift_bound(self):
        # Just above C = -2 the member turns sharply at its vertex near
        # (2, 0), where an integrated trace drifted by up to 1.4e-7.
        C, t0 = -1.9766814500895014, 1.270852772534034
        cfg = TraceConfig(
            start=curve_point(TrajectoryCurve(C), t0),
            initial_slope_hint=1.0 / t0,
            tol=1e-8,
            max_arc=20.0,
        )
        res = trace_orthogonal(cfg)
        assert min(pt.y for pt, _ in res.samples) < 0.0 < max(pt.y for pt, _ in res.samples)
        assert res.potential_drift <= 10.0 * cfg.tol

    @pytest.mark.parametrize(
        "C,t0",
        # D = 3q^2 + 2 - x > 0 at the first two starts, < 0 between the
        # cusps of C = -4 at the last two; q0 takes both signs.
        [(0.0, 1.0), (3.0, -2.0), (-4.0, 0.5), (-4.0, -0.5)],
    )
    def test_forward_runs_along_plus_x(self, C, t0):
        start = curve_point(TrajectoryCurve(C), t0)
        res = trace_orthogonal(TraceConfig(start=start, initial_slope_hint=1.0 / t0, max_arc=1.0))
        i = res.samples.index((start, 1.0 / t0))
        assert res.samples[i - 1][0].x < start.x < res.samples[i + 1][0].x

    @pytest.mark.parametrize(
        "start,hint,kw,ends",
        [
            (Point(1.0, 2.0), 1.0, {"tol": 1e-15}, ("arc-limit", "arc-limit")),
            # Next to a cusp, where the speed vanishes.
            (curve_point(TrajectoryCurve(-4.0), 1.0), 1.0, {"tol": 1e-11}, ("arc-limit", "arc-limit")),
        ],
        ids=["tol-1e-15", "cusped-tol-1e-11"],
    )
    def test_tol_under_the_rounding_still_runs(self, start, hint, kw, ends):
        # The samples are closed-form points, so tol has no effect: a tol
        # under the rounding of x and y gives the trace of a loose one.
        res = trace_orthogonal(TraceConfig(start=start, initial_slope_hint=hint, **kw))
        assert res.end_reasons == ends
        assert res.potential_drift <= 1e-10
        loose = trace_orthogonal(TraceConfig(start=start, initial_slope_hint=hint, tol=1.0))
        assert res == loose

    def test_drift_sees_an_error_off_the_curve(self, monkeypatch):
        # The offset drift is blind to phase error along the curve, not to
        # error across it: a sqrt 1e-6 too large moves each sample of the
        # C = 3 member along its normal by about 3e-6.
        kicked = types.SimpleNamespace(**vars(math))
        kicked.sqrt = lambda v: math.sqrt(v) * (1.0 + 1e-6)
        monkeypatch.setattr(tracer, "math", kicked)
        start = curve_point(TrajectoryCurve(3.0), 1.0)
        cfg = TraceConfig(start=start, initial_slope_hint=1.0, max_arc=20.0)
        assert trace_orthogonal(cfg).potential_drift > 10.0 * 1e-8

    def test_far_start_is_its_own_trace(self):
        # At (1e300, 0.5), q0 = -1e150, one ulp of q is 3.6e284 of arc: the
        # budget ends each leg on the start, to rounding.
        start = Point(1e300, 0.5)
        res = trace_orthogonal(TraceConfig(start=start, max_arc=1.0, step=0.1))
        ((pt, p0),) = res.samples
        assert pt == start and p0 == pytest.approx(-1e-150, rel=1e-15)
        assert res.end_reasons == ("arc-limit", "arc-limit")

    def test_arc_stays_finite_up_to_the_top_of_q(self):
        # 1 + a^2 + b^2 and b s_b + a s_a overflow past |q| = 9.5e153,
        # where q^2 does not; the halved sums keep the arc finite.
        a = -1e154
        arc = tracer._arc(-1.8613458069414505e230, a, math.nextafter(a, 0.0))
        assert 0.0 < arc < math.inf

    def test_result_fields(self):
        # end_reasons is the one record of how each leg ended.
        assert TraceResult._fields == ("samples", "potential_drift", "end_reasons")

    def test_config_validation(self):
        with pytest.raises(DomainError):
            TraceConfig(start=Point(0.0, 3.0), step=0.0)
        with pytest.raises(DomainError):
            TraceConfig(start=Point(0.0, 3.0), tol=-1.0)
        with pytest.raises(DomainError, match="TraceConfig.start is required"):
            trace_orthogonal(TraceConfig())
        with pytest.raises(DomainError, match="start must be finite"):
            trace_orthogonal(TraceConfig(start=Point(math.nan, 1.0)))

    @pytest.mark.parametrize("name", ["step", "max_arc", "tol"])
    def test_non_finite_config_is_rejected(self, name):
        # step=inf spun for seconds, max_arc=inf ran to the step limit and
        # tol=inf accepted every step, when an integrator made the samples.
        for value in (math.inf, math.nan):
            with pytest.raises(DomainError, match=name):
                TraceConfig(start=Point(1.0, 2.0), **{name: value})

    @pytest.mark.parametrize("kw", [{"max_arc": 1e300}, {"step": 1e-300}, {"max_arc": 2e4}])
    def test_more_than_1e6_steps_of_arc_is_rejected(self, kw):
        # A trace holds about max_arc / step samples: these would lay
        # samples until memory ran out.  Only the config is built.
        with pytest.raises(DomainError, match=r"max_arc / step"):
            TraceConfig(start=Point(1.0, 2.0), **kw)

    def test_1e6_steps_of_arc_is_accepted(self):
        assert TraceConfig(start=Point(1.0, 2.0), max_arc=1e4).max_arc == 1e4

    def test_nan_hint_is_rejected(self):
        # A nan hint is nearer no root than another, so min would trace
        # roots[0].
        with pytest.raises(DomainError):
            TraceConfig(start=Point(8.0, 1.0), initial_slope_hint=math.nan)

    @pytest.mark.parametrize(
        "domain",
        [
            (-5.0, 5.0, math.nan, 5.0),
            (-5.0, math.inf, -5.0, 5.0),
            (5.0, -5.0, -5.0, 5.0),
            (-5.0, 5.0, 5.0, 5.0),
            (-5.0, 5.0, -5.0),
            (-5.0, 5.0, -5.0, 5.0),
        ],
    )
    def test_bad_domain_is_rejected(self, domain):
        # The arc budget alone bounds a trace: TraceConfig has no box, so
        # any domain, a valid box too, is an unknown keyword.
        assert TraceConfig._fields == ("start", "initial_slope_hint", "step", "max_arc", "tol")
        with pytest.raises(TypeError, match="domain"):
            TraceConfig(start=Point(1.0, 2.0), domain=domain)


def offset(pt, p):
    # The normal offset of the sample from the parabola point P(q).
    q = 1.0 / p
    return (q * (pt.y - q) - pt.x) / math.sqrt(1.0 + q * q)


def offset_rounding(pt, p):
    # The rounding of ``offset``: its q = 1/p can differ from the walk's
    # q by an ulp.
    q = abs(1.0 / p)
    return 8.0 * sys.float_info.epsilon * (q * (abs(pt.y) + q) + abs(pt.x))


@pytest.mark.parametrize("start,p0", STARTS)
@pytest.mark.parametrize("kw", [{}, {"step": 1.0}], ids=["arc", "coarse"])
def test_samples_and_drift_in_one_pass(start, p0, kw):
    # The drift is max |F - F0| over the samples, made inside the walk;
    # recomputed from the merged samples, with the start's p as the
    # slope, it agrees to the rounding of F.
    res = trace_orthogonal(TraceConfig(start=start, initial_slope_hint=p0, max_arc=20.0, **kw))
    assert res.end_reasons == ("arc-limit", "arc-limit")
    assert all(type(pt) is Point for pt, _ in res.samples)
    assert res.samples.count((start, p0)) == 1
    assert [pt for pt, _ in res.samples].count(start) == 1
    f0 = offset(start, p0)
    recomputed = max(abs(offset(pt, p) - f0) for pt, p in res.samples)
    slack = max(offset_rounding(pt, p) for pt, p in res.samples)
    assert abs(res.potential_drift - recomputed) <= slack


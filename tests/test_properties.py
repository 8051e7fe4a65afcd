"""Property tests of the tracer over the trace domain, against the
closed form and two q-root oracles, and of the cusp census against
mpmath.

The tracer walks member C's closed form in q = 1/p = dx/dy, a root of
the monic cubic q^3 - (x - 2) q - y, so no root is solved along a trace:
these tests check that the walk stays on the cubic's roots, on the
member's sextic and within its chord and arc bounds.

Covers:
  - traces from any start t0 on any member C, cusped ones included:
    every sample lies within 1e-5 of the closed-form point of its own q
    and the drift of the normal offset (q (y - q) - x) / sqrt(1 + q^2)
    stays within 10 tol; the same over the whole plane, with |C| in
    [1e-3, 1e5] and |t0| in [1e-3, 1e3] log-uniform, where member C is
    also checked to be the offset curve P(t) + C n(t) of the parabola
    P(t) = (t^2, 2t), with |n| = 1
  - each leg of a trace on any member, cusped ones included, ends on
    its arc budget to 1e-9 of the closed-form arc, which is split at
    the cusps; also next to C = -2, where the cusps lie 1e-3 apart
  - trace samples lie on their member's sextic F_C to 8 eps of its
    terms, for |C| up to 1e6; no chord exceeds 2 step, over steps from
    1e-3 to 1; no sample sits at q = 0, where p = 1/q is infinite,
    between the two cusps of members just below C = -2
  - far starts, (2e6, 3e6) on q = 1414.2 and (1e16, 2e8) on member
    C = -1e16, end both legs on the budget to 1e-12 relative (mpmath
    arc); C = 0 at t0 = 1e8 cannot start, as ``slopes_at`` loses the
    root p = 1e-8 there (ROADMAP item 1)
  - the cusps solve C = -2 (1 + t^2)^(3/2) to 4 ulp of mpmath as
    C -> -2 and to 1e-13 relative, always finite, for |C| up to 1.7e308;
    each cusp is the parabola's centre of curvature (2 + 3t^2, -2t^3);
    at each cusp t the curve has no slope, its sample is not regular,
    the foot of the line of slope -t is degenerate, and that line's
    crossing at t is not orthogonal and has a nan slope product
  - at every sample off the collision band, a trace's q lies within
    1e-6 (1 + |r|) of r, the root nearest it of the q-cubic at the
    sample: r from ``slopes_at`` (as q = 1/p) where |y| >= 1e-3, and r
    exact (mpmath, 50 digits beyond the smallest root) anywhere, the
    near-axis band included, from box, evolute-band and near-axis starts
  - off the evolute a trace starts on each root it is given, keeps the
    drift within 10 tol and spends its arc budget both ways
  - a trace through the vertex passes q = 0 on the x-axis, at the
    vertex (-C, 0) of its member
  - the pinned end reasons of the tracer-suite starts, of trace
    workload starts (cusped and uncusped members) and of a member with
    two cusps next to its vertex

Box-point starts take their slope from ``slopes_at``, which near the
x-axis loses roots and returns spurious ones (ROADMAP item 1): at
(0, -1e-6) it adds p = 1.1e-6, which is no root.  So the mpmath test
hints each start with an exact root, and skips a start whose root
``slopes_at`` lost; the on-axis strategy waits for item 1.
"""

import math
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthotraj import (
    PARABOLA_NORMALS,
    DegenerateFootError,
    DegeneratePointError,
    NoBranchError,
    Point,
    TraceConfig,
    TrajectoryCurve,
    curve_point,
    curve_slope,
    cusp_parameters,
    intersections,
    orthogonal_foot,
    slopes_at,
    trace_orthogonal,
)
from orthotraj.core_model import sample
from orthotraj.verification import _sextic

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)
EPS = sys.float_info.epsilon

signs = st.sampled_from((-1.0, 1.0))


def log_uniform(lo, hi):
    """Either sign, magnitude 10^k with k uniform in [lo, hi]."""
    return st.builds(lambda sign, k: sign * 10.0**k, signs, st.floats(lo, hi))


@st.composite
def box_points(draw):
    x = draw(st.floats(-10.0, 10.0))
    y = draw(signs) * draw(st.floats(1e-3, 10.0))
    return x, y


@st.composite
def evolute_band(draw):
    """Points with 27y^2 = 4(x - 2)^3 (1 +- delta), delta = m 10^k, k = -12..-3."""
    a = draw(st.floats(1e-2, 10.0))
    delta = draw(signs) * draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-12, -3))
    y = draw(signs) * math.sqrt(4.0 * a**3 * (1.0 + delta) / 27.0)
    return 2.0 + a, y


@st.composite
def near_axis(draw):
    x = draw(st.floats(-10.0, 10.0))
    y = draw(signs) * 10.0 ** draw(st.floats(-300.0, -3.0))
    return x, y


@st.composite
def on_axis(draw):
    return draw(st.floats(-10.0, 10.0)), 0.0


def exact_roots(x, y):
    """Real roots of q^3 - (x - 2) q - y by mpmath, with 50 digits to spare
    beyond the smallest root, about y / (x - 2); on the axis, from the
    factors q (q^2 - (x - 2))."""
    if y == 0.0:
        with mpmath.workdps(50):
            a = mpmath.mpf(x) - 2
            return [0.0] + ([float(mpmath.sqrt(a)), float(-mpmath.sqrt(a))] if a > 0 else [])
    with mpmath.workdps(50 + max(0, -math.floor(math.log10(abs(y))))):
        # Near-triple roots, as at (2, -1e-138), need far more than 200 steps.
        qs = mpmath.polyroots([1, 0, -(mpmath.mpf(x) - 2), -mpmath.mpf(y)], maxsteps=2000, extraprec=200)
        # Relative: the complex pair of a tiny root, as at (2, -1e-120), has
        # an imaginary part far below any absolute floor.
        return [float(q.real) for q in qs if abs(q.imag) <= 1e-40 * abs(q)]


def off_collision_band(x, y):
    """Whether the q-cubic's discriminant 4a^3 - 27y^2 is not small against its terms."""
    a = x - 2.0
    return abs(4.0 * a**3 - 27.0 * y * y) >= 0.1 * (4.0 * abs(a) ** 3 + 27.0 * y * y)


def trace_from(pt, k, **kw):
    """The trace from pt on its k-th ``slopes_at`` root (mod the count)."""
    x, y = pt
    roots = slopes_at(x, y).roots
    p = roots[k % len(roots)]
    return p, trace_orthogonal(TraceConfig(start=Point(x, y), initial_slope_hint=p, **kw))


def assert_on_the_nearest_root(res, oracle):
    """Each sample's q off the collision band is within 1e-6 (1 + |r|)
    of the root r of ``oracle(x, y)`` nearest it; returns the count checked."""
    n = 0
    for pt, p in res.samples:
        if not off_collision_band(pt.x, pt.y):
            continue
        q = 1.0 / p
        roots = oracle(pt.x, pt.y)
        if roots is None:
            continue
        r = min(roots, key=lambda r: abs(r - q))
        assert abs(q - r) <= 1e-6 * (1.0 + abs(r))
        n += 1
    return n


@SETTINGS
@given(st.floats(-5.0, 5.0), signs, st.floats(0.3, 3.0))
# C = -2: the vertex is a cusp, where q = 0 and D = 0 at once.
@example(-2.0, 1.0, 0.5)
# Within 6e-4 of the cusp of C = -4 at t = 0.76642: the walk starts at
# nearly zero speed and crosses the cusp within its first blocks.
@example(-4.0, 1.0, 0.767)
def test_trace_follows_the_closed_form(C, sign, t_abs):
    assert_trace_follows(TrajectoryCurve(C), sign * t_abs)


def assert_trace_follows(curve, t0):
    """The trace from t0 on ``curve``: every sample within 1e-5 of the
    closed-form point of its own q, and a drift within 10 tol."""
    tol = 1e-8
    cfg = TraceConfig(
        start=curve_point(curve, t0), initial_slope_hint=1.0 / t0, max_arc=20.0
    )
    res = trace_orthogonal(cfg)
    for pt, p in res.samples:
        ref = curve_point(curve, 1.0 / p)
        assert math.hypot(ref.x - pt.x, ref.y - pt.y) <= 1e-5
    assert res.potential_drift <= 10.0 * tol


@SETTINGS
@given(log_uniform(-3.0, 5.0), log_uniform(-3.0, 3.0))
# For |q| past about 8 the drift of G(x, q) = (q^2 - x) sqrt(1 + q^2),
# which weighs phase error along the curve by |q|, read up to 9.4e-7 here.
@example(-0.6341008949286117, -990.2462580496584)
def test_trace_follows_the_offset_curve_over_the_whole_plane(C, t0):
    curve = TrajectoryCurve(C)
    s = math.sqrt(1.0 + t0 * t0)
    nx, ny = -1.0 / s, t0 / s
    x, y = curve_point(curve, t0)
    eps = sys.float_info.epsilon
    # C is the normal distance between members: |d(x, y)/dC| = |n| = 1.
    assert abs(math.hypot(nx, ny) - 1.0) <= 2.0 * eps
    assert abs(x - (t0 * t0 + C * nx)) <= 4.0 * eps * (t0 * t0 + abs(C))
    assert abs(y - (2.0 * t0 + C * ny)) <= 4.0 * eps * (2.0 * abs(t0) + abs(C))
    try:
        assert_trace_follows(curve, t0)
    except NoBranchError:
        return  # ``slopes_at`` lost the start root (ROADMAP item 1)


def closed_form_arc(C, a, b):
    """The arc of member C between parameters a and b.

    A(t) = t sqrt(1 + t^2) + asinh t + C atan t integrates the signed
    speed ds/dt = 2 sqrt(1 + t^2) + C / (1 + t^2), which changes sign at
    each cusp; the arc is |A(v) - A(u)| summed over the pieces between
    the cusps.
    """

    def A(t):
        return t * math.sqrt(1.0 + t * t) + math.asinh(t) + C * math.atan(t)

    tc = exact_cusp(C) if C <= -2.0 else math.inf
    cuts = sorted([a, b] + [c for c in (-tc, tc) if min(a, b) < c < max(a, b)])
    return sum(abs(A(v) - A(u)) for u, v in zip(cuts, cuts[1:]))


@SETTINGS
@given(st.floats(-5.0, 5.0), signs, st.floats(0.3, 3.0))
# Two cusps at t = +-0.0497, next to the vertex, and one a step away
# from the start.
@example(-2.0074, -1.0, 1.7613)
@example(-4.0, 1.0, 0.767)
def test_each_leg_spends_its_arc_budget_on_the_closed_form(C, sign, t_abs):
    t0 = sign * t_abs
    cfg = TraceConfig(
        start=curve_point(TrajectoryCurve(C), t0), initial_slope_hint=1.0 / t0, max_arc=20.0
    )
    res = trace_orthogonal(cfg)
    assert res.end_reasons == ("arc-limit", "arc-limit")
    for _, p in (res.samples[0], res.samples[-1]):
        assert abs(closed_form_arc(C, t0, 1.0 / p) - cfg.max_arc) <= 1e-9


def test_a_step_holding_both_cusps_keeps_the_arc_budget():
    # Next to C = -2 the two cusps lie about 1e-3 apart, inside the reach
    # of one block: a walk that took them in one block would count the arc
    # between them with the wrong sign, and this leg would miss its budget
    # by 2.7e-9.  Each cusp ends a piece, so the leg keeps its budget.
    C, t0 = -2.000001439476883, -1.1402659982292442
    cfg = TraceConfig(
        start=curve_point(TrajectoryCurve(C), t0), initial_slope_hint=1.0 / t0, max_arc=20.0
    )
    res = trace_orthogonal(cfg)
    assert res.end_reasons == ("arc-limit", "arc-limit")
    for _, p in (res.samples[0], res.samples[-1]):
        assert abs(closed_form_arc(C, t0, 1.0 / p) - cfg.max_arc) <= 1e-9


def walked_member(res, start):
    """The C a trace walks: the normal offset of its start sample, as the
    tracer forms it."""
    (p0,) = [p for pt, p in res.samples if pt == start]
    q0 = 1.0 / p0
    return (q0 * (start.y - q0) - start.x) / math.sqrt(1.0 + q0 * q0)


@SETTINGS
@given(log_uniform(-3.0, 6.0), log_uniform(-2.0, 2.0))
@example(-4.0, 0.767)
@example(1e6, -0.5)
def test_trace_samples_lie_on_their_sextic(C, t0):
    # Each sample is the closed-form point of its q on the walked member,
    # so it meets the bound of ``curve_point``'s own sextic property.
    start = Point(*curve_point(TrajectoryCurve(C), t0))
    try:
        res = trace_orthogonal(TraceConfig(start=start, initial_slope_hint=1.0 / t0, max_arc=2.0))
    except NoBranchError:
        return  # ``slopes_at`` lost the start root (ROADMAP item 1)
    C = walked_member(res, start)
    for pt, _ in res.samples:
        F, scale = _sextic(C, pt.x, pt.y)
        assert abs(F) <= 8 * EPS * scale, (C, t0, pt)


@SETTINGS
@given(st.floats(-5.0, 5.0), signs, st.floats(0.3, 3.0), st.floats(-2.0, 0.0))
# C > 1: the speed 2 s + C / s^2 peaks at the vertex, inside a block.
@example(4.5, -1.0, 0.3, -2.0)
def test_no_chord_exceeds_twice_the_step(C, sign, t_abs, k):
    step, t0 = 10.0**k, sign * t_abs
    cfg = TraceConfig(
        start=curve_point(TrajectoryCurve(C), t0), initial_slope_hint=1.0 / t0, step=step,
        max_arc=20.0,
    )
    pts = [pt for pt, _ in trace_orthogonal(cfg).samples]
    worst = max(math.hypot(b.x - a.x, b.y - a.y) for a, b in zip(pts, pts[1:]))
    assert worst <= 2.0 * step * (1.0 + 1e-9)


@SETTINGS
@given(st.floats(-7.5, -1.0), st.floats(0.25, 4.0))
@example(-3.5, 1.5)
def test_no_sample_sits_at_the_vertex_parameter(k, r):
    # Just below C = -2, at C = -2 - delta, the cusps +-c lie either side
    # of q = 0, where the speed is delta, and with r = 2 step / (delta c)
    # in [1, 2) one block spans both with two equal parts: its middle
    # node is q = 0 exactly, where p = 1/q is infinite.  Below
    # delta = 10^-7.5 ``slopes_at`` loses the start root (ROADMAP item 1).
    C = -2.0 - 10.0**k
    c = cusp_parameters(TrajectoryCurve(C))[-1]
    step = 0.5 * r * 10.0**k * c
    cfg = TraceConfig(
        start=curve_point(TrajectoryCurve(C), 2.0 * c), initial_slope_hint=0.5 / c, step=step,
        max_arc=100.0 * step,
    )
    res = trace_orthogonal(cfg)
    assert all(math.isfinite(p) and p != 0.0 for _, p in res.samples)
    assert min(pt.y for pt, _ in res.samples) < 0.0 < max(pt.y for pt, _ in res.samples)


@pytest.mark.parametrize(
    "start,hint,max_arc",
    [
        # q0 = 1414.2 on C = 3.0e6: one ulp of q is 6.4e-10 of arc.
        (Point(2e6, 3e6), None, 1e4),
        # q0 = -2e-8 on C = -1e16: one ulp of q is 3.3e-8 of arc.
        (Point(1e16, 2e8), -5e7, 1e6),
    ],
    ids=["q-1414", "C-minus-1e16"],
)
def test_far_starts_end_on_the_budget(start, hint, max_arc):
    # C = 0 at t0 = 1e8 cannot start, as ``slopes_at`` loses p = 1e-8
    # there; and an end can lie on the budget only to the arc of one ulp
    # of q, so each budget is large enough for 1e-12 of it to hold that.
    res = trace_orthogonal(
        TraceConfig(start=start, initial_slope_hint=hint, step=max_arc / 100.0, max_arc=max_arc)
    )
    C = walked_member(res, start)
    assert not cusp_parameters(TrajectoryCurve(C)) or abs(C) > 1e15  # no cusp within reach
    (p0,) = [p for pt, p in res.samples if pt == start]
    with mpmath.workdps(60):
        K = mpmath.mpf(C)

        def A(q):
            q = mpmath.mpf(q)
            return q * mpmath.sqrt(1 + q * q) + mpmath.asinh(q) + K * mpmath.atan(q)

        for _, p in (res.samples[0], res.samples[-1]):
            arc = abs(A(1.0 / p) - A(1.0 / p0))
            assert abs(arc - max_arc) <= 1e-12 * max_arc


@SETTINGS
@given(box_points(), st.integers(0, 2))
def test_continuation_picks_the_nearest_full_solve_root(pt, k):
    def full_solve(x, y):
        return [1.0 / r for r in slopes_at(x, y).roots] if abs(y) >= 1e-3 else None

    _, res = trace_from(pt, k, max_arc=2.0)
    assert_on_the_nearest_root(res, full_solve)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.one_of(box_points(), evolute_band(), near_axis()), st.integers(0, 2))
# A start 1e-10 above the axis: q ~ -1e-10 is the root nearest the axis.
@example((3.0, 1e-10), 2)
# A start inside a pair of roots 2e-5 apart, next to the cusp of its member.
@example((5.95647517597705, -3.029080263665009), 2)
def test_continuation_picks_the_nearest_exact_root(pt, k):
    # The start slope is the ``slopes_at`` root within 0.1 of 1/r, r the
    # k-th exact root; where ``slopes_at`` lost it (ROADMAP item 1) the
    # start raises and there is no trace to check.  Arc steps up to 0.5
    # keep the mpmath oracle to a few calls per trace.
    x, y = pt
    roots = exact_roots(x, y)
    cfg = TraceConfig(
        start=Point(x, y), initial_slope_hint=1.0 / roots[k % len(roots)], step=0.25, max_arc=2.0
    )
    try:
        res = trace_orthogonal(cfg)
    except NoBranchError:
        return
    assert_on_the_nearest_root(res, exact_roots)


@SETTINGS
@given(box_points())
# An integrated trace from here drifted by 1.1e-7 > 10 tol.
@example((0.0, -6.0))
def test_continuation_settles_on_each_root_off_the_evolute(pt):
    x, y = pt
    if not off_collision_band(x, y):
        return
    for k, p in enumerate(slopes_at(x, y).roots):
        _, res = trace_from(pt, k, max_arc=0.5)
        assert (Point(x, y), pytest.approx(p, rel=1e-12, abs=0.0)) in res.samples
        assert res.end_reasons == ("arc-limit", "arc-limit")
        assert res.potential_drift <= 10.0 * 1e-8


def test_vertex_root_settles_on_the_axis():
    # The member through (x, 0) with q = 0 there is C = G(x, 0) = -x; C = -3
    # is cusped.  Where q changes sign between two samples, y does too, and
    # the chord between them, taken in q to q = 0, meets the vertex.  Near
    # it x = -C + c q^2 + O(q^4) with c = 1 + C/2, so the chord's x is off
    # by -c qa qb; y = (2 + C) q + O(q^3) is odd in q.
    for x in (3.0, -1.0):
        C = -x
        cfg = TraceConfig(
            start=curve_point(TrajectoryCurve(C), 1.0), initial_slope_hint=1.0, max_arc=5.0
        )
        res = trace_orthogonal(cfg)
        crossings = []
        for (a, pa), (b, pb) in zip(res.samples, res.samples[1:]):
            qa, qb = 1.0 / pa, 1.0 / pb
            if (qa > 0.0) != (qb > 0.0):
                assert (a.y > 0.0) != (b.y > 0.0)
                w = qa / (qa - qb)
                xv = a.x + w * (b.x - a.x) + (1.0 + C / 2.0) * qa * qb
                crossings.append((xv, a.y + w * (b.y - a.y)))
        assert len(crossings) == 1
        xv, yv = crossings[0]
        assert xv == pytest.approx(x, abs=1e-6)
        assert yv == pytest.approx(0.0, abs=1e-6)

# (C, t0, max_arc, end reasons).  The first four are the verify tracer
# suite's starts, with twice the suite's arc budget; the next six are
# trace workload starts on cusped and uncusped members.  Every member
# traces its whole budget both ways, through the vertex and through its
# cusps (C <= -2); the sixth of them passes two cusps at t = +-0.0531,
# either side of its vertex.  The last one passes two cusps at
# t = +-0.0497, between which D, and with it the speed, is small.
PINNED_ENDS = [
    (-1.0, 1.0, 40.0, ("arc-limit", "arc-limit")),
    (0.0, 1.0, 40.0, ("arc-limit", "arc-limit")),
    (1.0, 1.0, 40.0, ("arc-limit", "arc-limit")),
    (3.0, 1.0, 40.0, ("arc-limit", "arc-limit")),
    (0.42504643943255616, -1.1120162304098826, 20.0, ("arc-limit", "arc-limit")),
    (-3.126793179579411, 0.5385513867058332, 20.0, ("arc-limit", "arc-limit")),
    (-2.532918340425475, -0.3865989503223274, 20.0, ("arc-limit", "arc-limit")),
    (-2.2464404338068973, -1.1315851596129136, 20.0, ("arc-limit", "arc-limit")),
    (-3.80908676375989, -2.539177107165723, 20.0, ("arc-limit", "arc-limit")),
    (-2.0084558412431455, -2.1956328064540727, 20.0, ("arc-limit", "arc-limit")),
    (-2.0074, -1.7613, 20.0, ("arc-limit", "arc-limit")),
]


@pytest.mark.parametrize("C,t0,max_arc,ends", PINNED_ENDS)
def test_end_reasons_pinned(C, t0, max_arc, ends):
    cfg = TraceConfig(
        start=curve_point(TrajectoryCurve(C), t0),
        initial_slope_hint=1.0 / t0,
        max_arc=max_arc,
    )
    assert trace_orthogonal(cfg).end_reasons == ends


def exact_cusp(C):
    """The cusp parameter t >= 0 of member C <= -2 by mpmath, 50 digits."""
    with mpmath.workdps(50):
        return float(mpmath.sqrt(mpmath.cbrt(-mpmath.mpf(C) / 2) ** 2 - 1))


def assert_cusps_are_degenerate(curve, cusps):
    """Every reported cusp is one to ``sample``, ``curve_slope``,
    ``orthogonal_foot`` and ``intersections`` alike."""
    for t in cusps:
        assert not sample(curve, t).regular
        with pytest.raises(DegeneratePointError):
            curve_slope(curve, t)
        with pytest.raises(DegenerateFootError):
            orthogonal_foot(PARABOLA_NORMALS, -t, curve)
        w = 2.0 * (1.0 + abs(t))
        (rec,) = [r for r in intersections(-t, curve, -w, w) if r.t == t]
        assert not rec.orthogonal and math.isnan(rec.slope_product)


@SETTINGS
@given(st.floats(-16.0, 0.0).map(lambda k: -2.0 * (1.0 + 10.0**k)))
# (C^2/4)^(1/3) - 1 cancels as C -> -2: it was 22% off here.
@example(-2.0000000000000004)
# The velocity at these cusps is (-8.9e-17, 2.2e-16), not exactly 0.
@example(-2.5)
def test_cusps_next_to_the_vertex_cusp(C):
    curve = TrajectoryCurve(C)
    cusps = cusp_parameters(curve)
    t = exact_cusp(C)
    assert cusps == ([-cusps[-1], cusps[-1]] if t else [0.0])
    assert abs(cusps[-1] - t) <= 4.0 * math.ulp(t)
    for tc in cusps:
        # Member -rho(tc) passes the parabola's centre of curvature at tc.
        x, y = curve_point(curve, tc)
        cx, cy = 2.0 + 3.0 * tc * tc, -2.0 * tc**3
        assert math.hypot(x - cx, y - cy) <= 1e-14 * (2.0 + 3.0 * tc * tc + 2.0 * abs(tc) ** 3)
    assert_cusps_are_degenerate(curve, cusps)


@SETTINGS
@given(st.floats(0.31, 308.23).map(lambda k: -(10.0**k)))
# C * C overflowed past |C| = 1.34e154: this read [-inf, inf].
@example(-1e300)
def test_cusps_of_huge_members(C):
    curve = TrajectoryCurve(C)
    cusps = cusp_parameters(curve)
    t = exact_cusp(C)
    assert cusps == [-cusps[-1], cusps[-1]]
    assert abs(cusps[-1] - t) <= 1e-13 * t
    assert_cusps_are_degenerate(curve, cusps)

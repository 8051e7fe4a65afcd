"""Intersection records and conic classification tests.

Covers:
  - the two crossings of the m = 1 line with the parabola, frozen from
    2t = t^2 - 3  =>  t in {-1, 3}
  - vertical-tangent crossing of the horizontal line at the vertex, at
    t = +0.0
  - empty windows, window validation (infinite ends and widths too, in
    the library and the CLI), a window so wide that t^2 overflows (no
    warning, both crossings found), record ordering
  - an independent dense-scan oracle for crossing counts and locations,
    including a second crossing 9.8e-4 from the foot
  - orthogonal uniqueness across an (m, C) grid, at exactly t = -m
  - a root at a window end taken with no solve
  - the cusp crossing m = 1.5, C = -125/32 at exactly t = 3/4, not
    orthogonal and with a nan slope product, and the same at t = m/2 for
    every double pair m = +-(2^k - 2^-k), C = -(2^k + 2^-k)^3 / 4,
    k = 1..8; no crossing near t = 1 for m = 1 and the double C nearest
    -2 sqrt(2), which lies strictly below k(1); the same 4 crossings on
    windows up to +-1e200
  - next to the foot cusp C = -2 (1 + m^2)^(3/2): a root of h 1.4e-15
    from the foot is a record of its own, and over C within relative
    10^-16..10^-8 of it (a Hypothesis property and 3,000 drawn pairs)
    the record count equals the exact count, or falls one short only
    where the refined root rounds onto the foot's own double
  - C within 10^-17..10^-1 (relative) of an extremum of k: the record
    count equals the exact count from Fraction squares, and every
    record lies on the line
  - finite records on a member with C = 1e308, and the crossing of a
    line of slope 1e200, where 2 + m^2 overflows
  - a slope product of +0.0, never -0.0, off the foot of m = 0
  - the exact conic fit: y^2 - 4x exactly, residual 0, at C = +-0.0 and
    through integer parabola points, a circle through its integer points,
    residual > 0 for C log-uniform in +-[1e-300, 1e300] and for parabola
    points with one moved by an ulp, residual 0 iff an independent
    Fraction 6x6 determinant is 0, the same conic from any order of
    points on it, coefficients over the largest (+0.0, never -0.0),
    degenerate inputs, points that are not finite (x, y) pairs, and
    members up to |C| = 1.7e308 with no error or warning
  - the parabola-iff-C=0 verdict, read from C, over the double range
"""

import math
import random
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orthotraj import (
    DegenerateInputError,
    DomainError,
    IntersectionRecord,
    TrajectoryCurve,
    classify_conic,
    conic_fit,
    curve_point,
    fit_conic,
    geometry_analysis,
    intersections,
    is_parabola,
)
from orthotraj.cli_plot import run
from orthotraj.roots import bracketed_root


def dense_scan_oracle(m, C, t_min, t_max, n=200_001):
    """Crossing parameters by brute bisection on a dense grid."""
    ts = np.linspace(t_min, t_max, n)
    s = np.sqrt(1.0 + ts * ts)
    vals = (2.0 * ts + C * ts / s) - (m * (ts * ts - C / s) - 2.0 * m - m**3)
    roots = [float(t) for t in ts[vals == 0.0]]
    sgn = np.sign(vals)
    for i in np.flatnonzero(sgn[:-1] * sgn[1:] < 0):
        a, b = float(ts[i]), float(ts[i + 1])
        fa = float(vals[i])
        for _ in range(100):
            mid = 0.5 * (a + b)
            s_m = math.sqrt(1.0 + mid * mid)
            fm = (2.0 * mid + C * mid / s_m) - (m * (mid * mid - C / s_m) - 2.0 * m - m**3)
            if fm == 0.0:
                a = b = mid
                break
            if (fm > 0.0) == (fa > 0.0):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    return sorted(roots)


def sign(v):
    return (v > 0) - (v < 0)


def exact_side(m, C, t):
    """The sign of C - k(t) = h(t) sqrt(1 + t^2) at a rational t, exactly:
    k = b sqrt(1 + t^2) with b = m t - 2 - m^2, and where C and b have one
    sign, |C| - |k| has the sign of C^2 - b^2 (1 + t^2)."""
    m, C, t = Fraction(m), Fraction(C), Fraction(t)
    b = m * t - 2 - m * m
    if sign(C) == sign(b):
        return sign(C) * sign(C * C - b * b * (1 + t * t))
    return sign(C) or -sign(b)


def exact_crossing_count(m, C, t_min, t_max):
    """Distinct crossings in [t_min, t_max], from exact signs of C - k at
    the window ends and at k's critical points m/2 and 1/m, which cut it
    into monotone pieces; the foot counts once, also where h(-m) = 0."""
    m = Fraction(m)
    crit = [m / 2] + ([1 / m] if m else [])
    cuts = [Fraction(t_min), *sorted(c for c in crit if t_min < c < t_max), Fraction(t_max)]
    sides = [exact_side(m, C, t) for t in cuts]
    count = sides.count(0) + sum(a * b < 0 for a, b in zip(sides, sides[1:]))
    return count + (t_min <= -m <= t_max and exact_side(m, C, -m) != 0)


class TestIntersections:
    def test_parabola_m1_two_crossings(self):
        recs = intersections(1.0, TrajectoryCurve(0.0), -5.0, 5.0)
        assert len(recs) == 2
        foot, extra = recs
        assert foot.t == pytest.approx(-1.0, abs=1e-10)
        assert foot.point.x == pytest.approx(1.0, abs=1e-9)
        assert foot.point.y == pytest.approx(-2.0, abs=1e-9)
        assert foot.orthogonal
        assert extra.t == pytest.approx(3.0, abs=1e-10)
        assert extra.point.x == pytest.approx(9.0, abs=1e-9)
        assert extra.point.y == pytest.approx(6.0, abs=1e-9)
        assert extra.slope_product == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert not extra.orthogonal
        assert all(type(r) is IntersectionRecord and r == IntersectionRecord(*r) for r in recs)

    def test_horizontal_line_at_vertex(self):
        recs = intersections(0.0, TrajectoryCurve(0.0), -5.0, 5.0)
        assert len(recs) == 1
        rec = recs[0]
        assert rec.t == 0.0 and math.copysign(1.0, rec.t) == 1.0
        assert rec.point.x == pytest.approx(0.0, abs=1e-9)
        assert rec.point.y == pytest.approx(0.0, abs=1e-9)
        assert math.isinf(rec.slope_product)
        assert rec.orthogonal

    def test_empty_window(self):
        # g(0) = 3 and g(2) = 3 with no sign change between.
        assert intersections(1.0, TrajectoryCurve(0.0), 0.0, 2.0) == []

    def test_window_validation(self):
        with pytest.raises(DomainError):
            intersections(1.0, TrajectoryCurve(0.0), 2.0, 2.0)
        with pytest.raises(DomainError):
            intersections(math.nan, TrajectoryCurve(0.0), -1.0, 1.0)
        # t = -1 and t = 3 lie in both windows, which have no finite width.
        with pytest.raises(DomainError):
            intersections(1.0, TrajectoryCurve(0.0), -math.inf, 5.0)
        assert run(["intersect", "-m", "1", "-C", "0", "--t-min=-1e308", "--t-max", "1e308"]) == 2

    def test_huge_window_warns_nothing(self):
        # h is taken at |t| = 1e200, where t * t overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recs = intersections(1.0, TrajectoryCurve(0.0), -1e200, 1e200)
        assert [r.t for r in recs] == pytest.approx([-1.0, 3.0], abs=1e-10)

    def test_huge_slope_finds_its_crossing_not_a_window_end(self):
        # 2 + m^2 overflows for |m| > 1.3e154: h was inf - inf = nan at the
        # window end, read as a root, and the crossing t = m + 2/m was lost.
        recs = intersections(1e200, TrajectoryCurve(0.0), -1e300, 1e300)
        assert [r.t for r in recs] == [-1e200, pytest.approx(1e200, rel=1e-15)]
        assert [r.orthogonal for r in recs] == [True, False]

    def test_slope_product_is_never_negative_zero(self):
        # m = 0 crosses C = -3 off the foot at t = +-sqrt(5)/2, where 0 / t
        # is -0.0 for t < 0.
        recs = intersections(0.0, TrajectoryCurve(-3.0), -10.0, 10.0)
        assert [r.t for r in recs] == pytest.approx([-math.sqrt(1.25), 0.0, math.sqrt(1.25)])
        for rec in recs[::2]:
            assert rec.slope_product == 0.0 and math.copysign(1.0, rec.slope_product) == 1.0

    def test_huge_constant_gives_finite_records(self):
        recs = intersections(-3.0, TrajectoryCurve(1e308), -10.0, 10.0)
        assert [r.t for r in recs] == [3.0]
        assert recs[0].point.y == pytest.approx(1e308 * (3.0 / math.sqrt(10.0)), rel=1e-15)

    def test_records_sorted_and_on_line(self):
        for m, C in ((1.0, -4.0), (-2.0, 1.0), (3.0, 4.0), (0.5, -3.0)):
            recs = intersections(m, TrajectoryCurve(C), -10.0, 10.0)
            ts = [r.t for r in recs]
            assert ts == sorted(ts)
            for r in recs:
                line_y = m * r.point.x - 2.0 * m - m**3
                assert abs(r.point.y - line_y) <= 1e-9
                ref = curve_point(TrajectoryCurve(C), r.t)
                assert abs(r.point.x - ref.x) <= 1e-9
                assert abs(r.point.y - ref.y) <= 1e-9

    def test_against_dense_scan_oracle(self):
        pairs = [(m, C) for m in (-2.0, -1.0, 1.0, 2.0) for C in (-4.0, 0.0, 1.0, 4.0)]
        # The foot and a second crossing 9.8e-4 apart.
        pairs.append((-0.7881322984535474, -4.125309922579596))
        for m, C in pairs:
            recs = intersections(m, TrajectoryCurve(C), -10.0, 10.0)
            oracle = dense_scan_oracle(m, C, -10.0, 10.0)
            assert len(recs) == len(oracle), (m, C)
            for rec, t_ref in zip(recs, oracle):
                assert rec.t == pytest.approx(t_ref, abs=1e-6)

    def test_orthogonal_uniqueness_grid(self):
        for m in (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0):
            for C in (-4.0, -1.0, 0.0, 1.0, 4.0):
                recs = intersections(m, TrajectoryCurve(C), -10.0, 10.0)
                orth = [r for r in recs if r.orthogonal]
                assert len(orth) == 1, (m, C)
                assert orth[0].t == -m

    def test_non_orthogonal_extra_exists(self):
        recs = intersections(1.0, TrajectoryCurve(0.0), -10.0, 10.0)
        assert any(not r.orthogonal for r in recs)

    def test_root_on_a_node_needs_no_solve(self, monkeypatch):
        # h = 3 - t on the parabola for m = 1: the window end t = 3 is the
        # root, and the piece after it, from 0 to negative, holds none.
        solves = []
        monkeypatch.setattr(geometry_analysis, "bracketed_root", lambda *args, **kw: solves.append(args))
        recs = intersections(1.0, TrajectoryCurve(0.0), 3.0, 4.0)
        assert [r.t for r in recs] == [3.0] and solves == []

    def test_representable_cusp_crossing(self):
        # m = 1.5 meets C = -125/32 at t = m/2 = 3/4: k(3/4) is exactly C,
        # so the critical point itself is the record.  C is the cusp
        # constant -2 (1 + t^2)^(3/2) at t = 3/4, so the line passes through
        # the cusp, where the member has no slope: no tangency.
        recs = intersections(1.5, TrajectoryCurve(-3.90625), -10.0, 10.0)
        assert [r.t for r in recs] == [-1.5, pytest.approx(0.6256, abs=1e-4), 0.75]
        assert not recs[-1].orthogonal and math.isnan(recs[-1].slope_product)

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_cusp_crossings_at_half_the_slope(self, k, sign):
        # k(m/2) = -(4 + m^2)^(3/2) / 4 is the cusp constant at t = m/2, and
        # m = +-(2^k - 2^-k), C = -(2^k + 2^-k)^3 / 4 are doubles that meet
        # it exactly: one record at m/2, the cusp, with no slope.
        m, C = sign * (2.0**k - 2.0**-k), -((2.0**k + 2.0**-k) ** 3) / 4.0
        root = (Fraction(2**k) + Fraction(1, 2**k)) / 2  # sqrt(1 + (m/2)^2)
        assert 1 + Fraction(m / 2) ** 2 == root**2 and Fraction(C) == -2 * root**3
        recs = intersections(m, TrajectoryCurve(C), -1e3, 1e3)
        assert len(recs) == exact_crossing_count(m, C, -1e3, 1e3)
        (rec,) = [r for r in recs if r.t == m / 2]
        assert not rec.orthogonal and math.isnan(rec.slope_product)

    def test_unrepresentable_tangency(self):
        # The line m = 1 touches C = -2 sqrt(2) at t = 1, but the double
        # C lies strictly below k(1) = -2 sqrt(2): no crossing near t = 1.
        C = -2.0 * math.sqrt(2.0)
        assert Fraction(C) ** 2 > 8
        recs = intersections(1.0, TrajectoryCurve(C), -10.0, 10.0)
        assert [r.t for r in recs] == [-1.0, pytest.approx(2.0 - math.sqrt(3.0), abs=1e-12)]

    def test_foot_cusp_is_one_record(self):
        # C = -2 (1 + m^2)^(3/2) puts a root of h on the foot, here a cusp:
        # (1 + 9/16)^(3/2) = 125/64 exactly.  For m = 0 it is also k's
        # critical point t = 0.
        for m, C in ((0.75, -3.90625), (0.0, -2.0)):
            (rec,) = intersections(m, TrajectoryCurve(C), -10.0, 10.0)
            assert rec.t == -m and not rec.orthogonal and math.isnan(rec.slope_product)

    def test_crossing_next_to_a_foot_cusp_is_its_own_record(self):
        # C lies 1.4e-16 (relative) from the foot cusp -2 (1 + m^2)^(3/2),
        # but not on it: h has a root at 2.7381417831149952, beside the
        # foot 2.7381417831149966, and both are crossings.
        m, C = -2.7381417831149966, -49.540530746555326
        recs = intersections(m, TrajectoryCurve(C), -10.0, 10.0)
        assert len(recs) == exact_crossing_count(m, C, -10.0, 10.0) == 2
        assert [r.t for r in recs] == [2.7381417831149952, -m]
        assert [r.orthogonal for r in recs] == [False, True]

    def test_wide_windows_keep_every_crossing(self):
        # A 10^4-node scan found 4 crossings here on (-10, 10) but only 2 on
        # (-1e5, 1e5), whose cells are 20 wide.
        m, curve = 0.33038275473218714, TrajectoryCurve(-2.8260680956508386)
        want = [r.t for r in intersections(m, curve, -10.0, 10.0)]
        assert len(want) == 4 and -m in want
        for w in (1e5, 1e200):
            assert [r.t for r in intersections(m, curve, -w, w)] == pytest.approx(want, abs=1e-12)


extremum_pairs = st.builds(
    lambda sign_m, k, at_half: (sign_m * 10.0**k, at_half), st.sampled_from((-1.0, 1.0)),
    st.floats(-3.0, 3.0), st.booleans(),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(extremum_pairs, st.sampled_from((-1.0, 1.0)), st.floats(1.0, 17.0))
@example((1.5, True), 1.0, 17.0)
def test_crossings_next_to_an_extremum(pair, side, u):
    # C = k(c) (1 +- 10^-u) at a critical point c of k: two crossings a
    # hair apart, one (a cusp at m/2, a tangency at 1/m) or none, decided
    # by exact squares.
    (m, at_half), w = pair, 1e4
    c = 0.5 * m if at_half else 1.0 / m
    C = (m * c - 2.0 - m * m) * math.sqrt(1.0 + c * c) * (1.0 + side * 10.0**-u)
    # Next to the foot cusp C = -2 (1 + m^2)^(3/2) a root of h can round
    # onto the foot: test_crossings_next_to_the_foot_cusp covers that.
    assume(abs(C + 2.0 * (1.0 + m * m) ** 1.5) > 1e-9 * abs(C))
    recs = intersections(m, TrajectoryCurve(C), -w, w)
    assert len(recs) == exact_crossing_count(m, C, -w, w)
    for r in recs:
        (x, y), line = r.point, m * r.point.x - 2.0 * m - m**3
        # Rounding of the line's own terms bounds the residual's scale.
        assert abs(y - line) <= 1e-9 * (1.0 + abs(y) + abs(m * x) + abs(m) ** 3)


def assert_foot_neighbour_counted(m, C):
    """The record count of the slope-m line with member C on [-10, 10]
    equals the exact count, or falls one short where the root of h that
    ``bracketed_root`` refines is the foot's own double; it never exceeds
    it."""
    refined = []

    def spy(*args, **kw):
        refined.append(bracketed_root(*args, **kw))
        return refined[-1]

    with mock.patch.object(geometry_analysis, "bracketed_root", spy):
        n = len(intersections(m, TrajectoryCurve(C), -10.0, 10.0))
    want = exact_crossing_count(m, C, -10.0, 10.0)
    assert n == want or (n == want - 1 and -m in refined), (m, C, n, want)
    return n == want


foot_cusp_pairs = st.builds(
    lambda m, side, u: (m, -2.0 * (1.0 + m * m) ** 1.5 * (1.0 + side * 10.0**u)),
    st.sampled_from((-1.0, 1.0)).flatmap(lambda s: st.floats(0.1, 3.0).map(lambda a: s * a)),
    st.sampled_from((-1.0, 1.0)), st.floats(-16.0, -8.0),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(foot_cusp_pairs)
def test_crossings_next_to_the_foot_cusp(pair):
    # C = -2 (1 + m^2)^(3/2) (1 +- 10^u): a root of h within rounding
    # distance of the foot, which is a crossing of its own.
    assert_foot_neighbour_counted(*pair)


def test_foot_cusp_draw_counts_every_crossing():
    # 3,000 pairs drawn as above: the count falls short of the exact count
    # only on the 17 whose refined root rounds onto the foot.
    rng = random.Random(7)
    matched = 0
    for _ in range(3000):
        m = rng.uniform(0.1, 3.0) * rng.choice((-1.0, 1.0))
        C = -2.0 * (1.0 + m * m) ** 1.5 * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16, -8))
        matched += assert_foot_neighbour_counted(m, C)
    assert matched >= 2983


def det6(points):
    """The 6x6 determinant of the rows (x^2, xy, y^2, x, y, 1), by Gaussian
    elimination in Fraction: an oracle apart from the fit's integer minors."""
    rows = [[x * x, x * y, y * y, x, y, Fraction(1)]
            for x, y in ((Fraction(x), Fraction(y)) for x, y in points)]
    det = Fraction(1)
    for k in range(6):
        pivot = next((i for i in range(k, 6) if rows[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot], det = rows[pivot], rows[k], -det
        det *= rows[k][k]
        for i in range(k + 1, 6):
            f = rows[i][k] / rows[k][k]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return det


PARABOLA = [(float(t * t), 2.0 * t) for t in (-3, -2, -1, 1, 2, 3)]
Y2_4X = (0.0, 0.0, -0.25, 1.0, 0.0, 0.0)  # y^2 - 4x over its largest coefficient, -4
CIRCLE = [(5.0, 0.0), (3.0, 4.0), (0.0, 5.0), (-4.0, 3.0), (-5.0, 0.0), (-3.0, -4.0), (4.0, -3.0)]
log_uniform_C = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-300.0, 300.0)).map(
    lambda sign_k: sign_k[0] * 10.0 ** sign_k[1])


class TestFitConic:
    def test_parabola_samples(self):
        for fit in (conic_fit(TrajectoryCurve(0.0)), conic_fit(TrajectoryCurve(-0.0)),
                    fit_conic(PARABOLA)):
            assert fit == (Y2_4X, 0.0)
            assert all(math.copysign(1.0, v) == 1.0 for v in fit.coeffs if v == 0.0)
            assert math.copysign(1.0, fit.residual) == 1.0
            assert fit.discriminant() == 0.0

    def test_circle_samples(self):
        # x^2 + y^2 - 25 over its largest coefficient, -25.
        fit = fit_conic(CIRCLE)
        assert fit == ((-0.04, 0.0, -0.04, 0.0, 0.0, 1.0), 0.0)
        assert fit.discriminant() < 0.0  # ellipse-type

    def test_c4_samples_not_conic(self):
        assert fit_conic([curve_point(TrajectoryCurve(4.0), t) for t in range(-3, 4)]).residual > 0
        assert conic_fit(TrajectoryCurve(4.0)).residual > 0.0

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(log_uniform_C)
    @example(1e-300)
    @example(-1e300)
    def test_every_member_off_C0_leaves_a_residual(self, C):
        curve = TrajectoryCurve(C)
        assert conic_fit(curve).residual > 0.0
        assert classify_conic(curve) == "non-conic"

    @pytest.mark.parametrize("moved", range(6))
    def test_a_point_an_ulp_off_the_parabola(self, moved):
        pts = list(PARABOLA)
        x, y = pts[moved]
        pts[moved] = (x, math.nextafter(y, math.inf))
        assert fit_conic(pts).residual > 0.0

    def test_residual_is_zero_iff_the_determinant_is(self):
        sets = [PARABOLA, CIRCLE[:6], CIRCLE[1:], [(k, 1 / Fraction(k)) for k in (1, 2, 3, -1, 5, 7)],
                [curve_point(TrajectoryCurve(C), t) for C in (1.0,) for t in range(-2, 4)],
                PARABOLA[:5] + [(1.0, 2.5)], CIRCLE[:5] + [(1.0, 1.0)]]
        for pts in sets:
            assert (fit_conic(pts).residual == 0.0) == (det6(pts) == 0)
        assert [det6(pts) == 0 for pts in sets] == [True] * 4 + [False] * 3

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=6, max_size=6))
    def test_residual_is_zero_iff_the_determinant_is_on_small_lattices(self, pts):
        try:
            fit = fit_conic(pts)
        except DegenerateInputError:
            return
        assert (fit.residual == 0.0) == (det6(pts) == 0)

    def test_permutation_invariance(self):
        # Points on one conic give that conic, exactly, in any order.
        rng = random.Random(23)
        for pts, expected in ((PARABOLA, Y2_4X), (CIRCLE, (-0.04, 0.0, -0.04, 0.0, 0.0, 1.0))):
            for _ in range(5):
                pts = rng.sample(pts, len(pts))
                assert fit_conic(pts) == (expected, 0.0)

    def test_unit_norm(self):
        # Divided by the coefficient of largest magnitude, which reads 1.0.
        for C in (-4.0, -1.0, 1.0, 1e-6, 1e154):
            coeffs = conic_fit(TrajectoryCurve(C)).coeffs
            assert 1.0 in coeffs and max(map(abs, coeffs)) == 1.0

    def test_too_few_points(self):
        for n in (0, 5):
            with pytest.raises(DegenerateInputError, match="at least 6"):
                fit_conic(PARABOLA[:n])

    def test_collinear_points(self):
        for pts in ([(float(t), 2.0 * t + 1.0) for t in range(6)],
                    # Four of the first five on the x-axis, or two of them equal.
                    [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 1.0), (3.0, 0.0), (1.0, 1.0)],
                    PARABOLA[:2] + PARABOLA[:4]):
            with pytest.raises(DegenerateInputError, match="no unique conic"):
                fit_conic(pts)

    @pytest.mark.parametrize("pts", [[(0.0, 1.0, 2.0)] * 6, [1.0] * 6],
                             ids=["triples", "scalars"])
    def test_points_must_be_pairs(self, pts):
        with pytest.raises(DomainError, match=r"finite \(x, y\) pairs"):
            fit_conic(pts)

    def test_non_finite_points(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match=r"finite \(x, y\) pairs"):
                fit_conic([(0.0, bad)] + PARABOLA)

    def test_huge_members_fit(self):
        # Past |C| ~ 1e154 a float fit's squares overflow; integers do not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for C in (1e300, 4e307, 1e308, -1.7e308, sys.float_info.max):
                fit = conic_fit(TrajectoryCurve(C))
                assert fit.residual > 0.0 and all(map(math.isfinite, fit.coeffs))
            circle = [(1e160 + 1e150 * math.cos(a), 1e150 * math.sin(a)) for a in range(6)]
            assert all(map(math.isfinite, fit_conic(circle).coeffs))


class TestClassification:
    def test_dichotomy(self):
        for C in (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0):
            assert is_parabola(TrajectoryCurve(C)) == (C == 0.0)

    def test_parabola_class(self):
        assert classify_conic(TrajectoryCurve(0.0)) == "parabola"

    def test_non_conic_class(self):
        for C in (-4.0, 1.0, 4.0):
            assert classify_conic(TrajectoryCurve(C)) == "non-conic"

    def test_verdict_reads_C_over_the_double_range(self):
        # A fit of 200 samples on t in [-3, 3] called the members 1e-6 and
        # -1e-300 parabolas, 1e-3 and 1e3 inconclusive, and 1e9 and 1e78
        # other conics (near circles of radius C): each is a sextic.
        for C in (0.0, -0.0):
            assert classify_conic(TrajectoryCurve(C)) == "parabola"
            assert is_parabola(TrajectoryCurve(C))
        rng = random.Random(26)
        drawn = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0) for _ in range(200)]
        for C in [1e-6, -1e-300, 1e-3, 1e3, 1e9, 1e78] + drawn:
            assert classify_conic(TrajectoryCurve(C)) == "non-conic"
            assert not is_parabola(TrajectoryCurve(C))

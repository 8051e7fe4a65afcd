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
    including a second crossing within one scan cell of the foot
  - orthogonal uniqueness across an (m, C) grid, at exactly t = -m
  - the scan grid shared per window: records bit-identical to an
    uncached copy of the scan on interleaved windows (huge ones too),
    the shared arrays read-only, and a root on a grid node taken with
    no refinement of the cells beside it
  - finite records on a member with C = 1e308
  - conic fits: parabola and circle to machine residual, C != 0 members
    rejected, permutation invariance, degenerate inputs, coordinates so
    large that the fit overflows (its mean too, with no warning), and
    huge circles with tiny quadratic coefficients
  - the parabola-iff-C=0 dichotomy
"""

import math
import warnings

import numpy as np
import pytest

from orthotraj import (
    ConicFit,
    DegenerateInputError,
    DomainError,
    IntersectionRecord,
    TrajectoryCurve,
    bracketed_root,
    classify_conic,
    conic_fit,
    curve_point,
    fit_conic,
    geometry_analysis,
    intersections,
    is_parabola,
)
from orthotraj.cli_plot import run
from orthotraj.core_model import sample


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


def uncached_intersections(m, curve, t_min, t_max):
    """``intersections`` as it was before the scan grid was shared: the
    grid and sqrt(1 + t^2) built on every call, signs from ``np.sign``."""
    C = curve.C
    a = 2.0 + m * m

    def h(t):
        return a - m * t + C / math.sqrt(1.0 + t * t)

    ts = np.linspace(t_min, t_max, 10_000)
    with np.errstate(over="ignore"):
        vals = a - m * ts + C / np.sqrt(1.0 + ts * ts)
    roots = [float(t) for t in ts[vals == 0.0]]
    sign = np.sign(vals)
    for i in np.flatnonzero((sign[:-1] * sign[1:]) < 0.0):
        roots.append(bracketed_root(h, float(ts[i]), float(ts[i + 1]), tol=1e-12))
    foot = -m + 0.0
    if t_min <= foot <= t_max:
        roots = [r for r in roots if abs(r - foot) > 1e-8]
        roots.append(foot)
    roots.sort()
    merged = []
    for r in roots:
        if not merged or abs(r - merged[-1]) > 1e-8:
            merged.append(r)
    records = []
    for t in merged:
        at = sample(curve, t)
        product = (m / t if t else math.inf) if at.regular else math.nan
        records.append(IntersectionRecord(t, at.point, product, t == -m and at.regular))
    return records


def record_bits(rec):
    """A record as exact bit patterns, so that nan, -0.0 and the last bit count."""
    return (rec.t.hex(), rec.point.x.hex(), rec.point.y.hex(), rec.slope_product.hex(), rec.orthogonal)


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
        # The scan grid reaches |t| = 1e200, where t * t overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recs = intersections(1.0, TrajectoryCurve(0.0), -1e200, 1e200)
        assert [r.t for r in recs] == pytest.approx([-1.0, 3.0], abs=1e-10)

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
        # The foot and a second crossing 9.8e-4 apart, inside one cell of
        # the 10^4-point scan.
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

    def test_shared_grid_matches_the_uncached_scan(self):
        # Windows interleaved so that each call after the first on
        # (-10, 10) reads a grid built for an earlier call.
        rng = np.random.default_rng(19)
        pairs = [
            (float(rng.uniform(0.1, 3.0) * rng.choice((-1.0, 1.0))), float(rng.uniform(-5.0, 5.0)))
            for _ in range(25)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for window in ((-10.0, 10.0), (-5.0, 5.0), (-1e200, 1e200), (0.0, 2.0), (-10.0, 10.0)):
                for m, C in pairs:
                    got = intersections(m, TrajectoryCurve(C), *window)
                    want = uncached_intersections(m, TrajectoryCurve(C), *window)
                    assert [record_bits(r) for r in got] == [record_bits(r) for r in want], (m, C, window)

    def test_root_on_a_node_needs_no_solve(self, monkeypatch):
        # h = 3 - t on the parabola for m = 1: the first node of [3, 4] is
        # the root, and the cell after it, from 0 to negative, is no cell.
        solves = []
        monkeypatch.setattr(geometry_analysis, "bracketed_root", lambda *args, **kw: solves.append(args))
        recs = intersections(1.0, TrajectoryCurve(0.0), 3.0, 4.0)
        assert [r.t for r in recs] == [3.0] and solves == []

    def test_shared_grid_is_read_only(self):
        intersections(1.0, TrajectoryCurve(0.0), -10.0, 10.0)
        for arr in geometry_analysis._scan_grid(-10.0, 10.0):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestFitConic:
    def test_parabola_samples(self):
        pts = [curve_point(TrajectoryCurve(0.0), t) for t in np.linspace(-3, 3, 50)]
        fit = fit_conic(pts)
        assert fit.residual_rms <= 1e-10
        target = np.array([0.0, 0.0, 1.0, -4.0, 0.0, 0.0])
        target /= np.linalg.norm(target)
        assert abs(float(np.dot(fit.coeffs, target))) >= 1.0 - 1e-8
        assert abs(fit.discriminant()) <= 1e-10

    def test_circle_samples(self):
        pts = [
            (2.0 * math.cos(a), 2.0 * math.sin(a))
            for a in np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False)
        ]
        fit = fit_conic(pts)
        assert fit.residual_rms <= 1e-10
        assert fit.discriminant() < 0.0  # ellipse-type
        assert fit.classify() == "other-conic"

    def test_c4_samples_not_conic(self):
        pts = [curve_point(TrajectoryCurve(4.0), t) for t in np.linspace(-3, 3, 50)]
        assert fit_conic(pts).residual_rms >= 1e-3

    def test_permutation_invariance(self):
        pts = [curve_point(TrajectoryCurve(2.0), t) for t in np.linspace(-3, 3, 60)]
        base = fit_conic(pts).residual_rms
        rng = np.random.default_rng(23)
        for _ in range(5):
            perm = rng.permutation(len(pts))
            assert abs(fit_conic([pts[i] for i in perm]).residual_rms - base) <= 1e-12

    def test_unit_norm(self):
        pts = [curve_point(TrajectoryCurve(1.0), t) for t in np.linspace(-3, 3, 40)]
        fit = fit_conic(pts)
        assert np.linalg.norm(fit.coeffs) == pytest.approx(1.0, abs=1e-12)

    def test_too_few_points(self):
        pts = [curve_point(TrajectoryCurve(0.0), t) for t in np.linspace(-1, 1, 11)]
        with pytest.raises(DegenerateInputError):
            fit_conic(pts)

    def test_collinear_points(self):
        pts = [(float(t), 2.0 * t + 1.0) for t in np.linspace(-3, 3, 30)]
        with pytest.raises(DegenerateInputError):
            fit_conic(pts)

    def test_non_finite_points(self):
        with pytest.raises(DomainError):
            fit_conic([(0.0, math.nan)] + [(float(i), float(i * i)) for i in range(15)])

    def test_overflowing_fit(self):
        # Spread so wide that the RMS radius overflows...
        with pytest.raises(DomainError):
            fit_conic([curve_point(TrajectoryCurve(1e300), t) for t in np.linspace(-3, 3, 50)])
        # ...or a circle so far out that its mapped coefficients do.
        circle = [
            (1e160 + 1e150 * math.cos(a), 1e150 * math.sin(a))
            for a in np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False)
        ]
        with pytest.raises(DomainError):
            fit_conic(circle)
        # ...or points so large that their mean overflows, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for C in (4e307, 1e308):
                with pytest.raises(DomainError):
                    conic_fit(TrajectoryCurve(C))

    def test_discriminant_test_is_scale_free(self):
        # Far from its small features the curve is a circle of radius
        # ~|C|: the quadratic coefficients are ~1/C^2, far below any
        # absolute floor, and must still read as an ellipse.
        for C in (1e78, 1e100, 1e150):
            assert classify_conic(TrajectoryCurve(C)) == "other-conic"
        assert ConicFit((-1e-156, 0.0, -1e-156, 0.0, 0.0, 1.0), 0.0).classify() == "other-conic"
        # With no quadratic part the form is a line, not a parabola,
        # although b^2 - 4ac = 0.
        assert ConicFit((0.0, 0.0, 0.0, 0.6, 0.8, 0.0), 0.0).classify() == "other-conic"


class TestClassification:
    def test_dichotomy(self):
        for C in (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0):
            assert is_parabola(TrajectoryCurve(C)) == (C == 0.0)

    def test_parabola_class(self):
        assert classify_conic(TrajectoryCurve(0.0)) == "parabola"

    def test_non_conic_class(self):
        for C in (-4.0, 1.0, 4.0):
            assert classify_conic(TrajectoryCurve(C)) == "non-conic"

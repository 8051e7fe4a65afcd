"""Closed-form geometry tests.

Covers:
  - the one line family: intercepts against hand values and, bit for
    bit, against Horner's rule on the coefficients (0, -2, 0, -1)
  - curve parametrization and the parabola identity at C = 0, and
    points of members with |C| up to the float maximum against mpmath
  - a complex step t + iH of curve_point reads the velocity; no other
    function of the module takes a complex argument
  - every point lies on its member's sextic: |F_C(x, y)| <= 8 eps
    sum |terms| in floats and in mpmath at 50 digits, for C and t across
    magnitudes where no term overflows or goes subnormal
  - velocity formulas validated against central finite differences
  - slope = 1/t universality (also via a finite-difference quotient)
  - both ODE residual forms, on lines and on curves
  - orthogonal feet: incidence, slope product, vertical-tangent case,
    degenerate (cusp) feet
  - cusp census and sign-change consistency of the velocity
  - exact mirror symmetry about the x-axis
  - the grid nodes of ``linspace`` against numpy.linspace, bit for bit
"""

import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orthotraj import (
    PARABOLA_NORMALS,
    DegenerateFootError,
    DegeneratePointError,
    DomainError,
    LineFamily,
    TrajectoryCurve,
    curve_point,
    curve_slope,
    curve_velocity,
    cusp_parameters,
    line_at,
    ode_c_residual,
    ode_o_residual,
    orthogonal_foot,
)
from orthotraj.core_model import linspace
from orthotraj.verification import _sextic

C_GRID = (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0)


def fd_velocity(curve, t, h=1e-6):
    xp, yp = curve_point(curve, t + h)
    xm, ym = curve_point(curve, t - h)
    return ((xp - xm) / (2 * h), (yp - ym) / (2 * h))


class TestLineFamily:
    def test_reference_intercepts(self):
        zero = line_at(PARABOLA_NORMALS, 0.0)
        assert zero.slope == 0.0 and zero.intercept == 0.0
        line = line_at(PARABOLA_NORMALS, 1.0)
        assert line.slope == 1.0 and line.intercept == -3.0
        assert line_at(PARABOLA_NORMALS, -2.0).intercept == 12.0

    def test_horner_matches_direct(self):
        for m in np.linspace(-3, 3, 61):
            assert PARABOLA_NORMALS.f(float(m)) == pytest.approx(
                -2.0 * m - m**3, rel=1e-14, abs=1e-14
            )

    def test_the_one_family(self):
        assert LineFamily() == PARABOLA_NORMALS
        ms = [0.0, -0.0, 1e-300, -1e-300, 1e-5, 0.7, -3.0, 1e100, -1e300]
        for m in ms:
            horner = 0.0
            for c in (-1.0, 0.0, -2.0, 0.0):
                horner = horner * m + c
            assert PARABOLA_NORMALS.f(m).hex() == horner.hex()

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            line_at(PARABOLA_NORMALS, math.inf)

    def test_line_residual_is_zero_on_the_line(self):
        # A line point always satisfies its own family equation.
        for m in np.linspace(-3.0, 3.0, 121):
            line = line_at(PARABOLA_NORMALS, float(m))
            for x in np.linspace(-10.0, 10.0, 21):
                y = line.y_at(float(x))
                resid = ode_c_residual(float(x), y, float(m))
                scale = max(1.0, abs(y), abs(m * x), abs(m) ** 3)
                assert abs(resid) <= 1e-12 * scale


EPS = sys.float_info.epsilon
# +-10^k, k in [-60, 40]: past that, the sextic's terms overflow or go subnormal.
SIGNED_MAGNITUDE = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-60.0, 40.0)).map(
    lambda sign_k: sign_k[0] * 10.0 ** sign_k[1])


class TestCurvePoint:
    def test_parabola_member(self):
        pt = curve_point(TrajectoryCurve(0.0), 1.0)
        assert pt == (1.0, 2.0)
        assert pt.y**2 == pytest.approx(4.0 * pt.x, abs=1e-15)

    def test_direct_substitution(self):
        assert curve_point(TrajectoryCurve(3.0), 0.0) == (-3.0, 0.0)
        assert curve_point(TrajectoryCurve(-4.0), 0.0) == (4.0, 0.0)

    def test_c0_is_parabola_everywhere(self):
        curve = TrajectoryCurve(0.0)
        for t in np.linspace(-4, 4, 101):
            x, y = curve_point(curve, float(t))
            assert y * y == pytest.approx(4.0 * x, abs=1e-12)

    def test_mirror_symmetry_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            C = float(rng.uniform(-6, 6))
            t = float(rng.uniform(-5, 5))
            curve = TrajectoryCurve(C)
            x1, y1 = curve_point(curve, t)
            x2, y2 = curve_point(curve, -t)
            assert x2 == x1
            assert y2 == -y1

    def test_huge_constants_against_mpmath(self):
        # y = 2t + C (t / s): C t alone would overflow for |C| near the
        # float maximum, though y is finite.  Each coordinate is within
        # 4 ulp of its larger term (the terms may cancel).
        rng = random.Random(20)
        cases = [
            (C, t)
            for C in (1e308, -1e308, 1.7976931348623157e308)
            for t in (-3.0, 1e-300, 0.5, 1e150)
        ]
        for _ in range(400):
            C = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 308.25)
            t = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-5.0, 150.0)
            cases.append((C, t))
        with mpmath.workdps(40):
            for C, t in cases:
                x, y = curve_point(TrajectoryCurve(C), t)
                T, K = mpmath.mpf(t), mpmath.mpf(C)
                s = mpmath.sqrt(1 + T * T)
                for got, terms in ((x, (T * T, -K / s)), (y, (2 * T, K * T / s))):
                    assert math.isfinite(got), (C, t)
                    scale = float(max(abs(v) for v in terms))
                    assert abs(got - float(sum(terms))) <= 4 * math.ulp(scale), (C, t)
        foot = orthogonal_foot(PARABOLA_NORMALS, -3.0, TrajectoryCurve(1e308))
        assert foot.point.y == pytest.approx(1e308 * (3.0 / math.sqrt(10.0)), rel=1e-15)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(SIGNED_MAGNITUDE, SIGNED_MAGNITUDE)
    @example(0.0, 3.0)
    @example(-4.0, 0.766421)  # next to a cusp, where x = t^2 - C/s cancels
    @example(1e50, 1e-60)
    def test_points_lie_on_their_sextic(self, C, t):
        # |F_C| / sum |terms| read at most 1.96 eps in floats and 1.2 eps
        # in mpmath over 3e5 draws (moderate, next to cusps, and |C|, |t|
        # in 1e+-300); 8 eps leaves a margin of 4.  Below min / eps the
        # terms' rounding is absolute (subnormal), and F can read as much
        # as its whole scale, so the property holds above it.
        x, y = curve_point(TrajectoryCurve(C), t)
        F, scale = _sextic(C, x, y)
        assume(sys.float_info.min / EPS <= scale < math.inf)
        assert abs(F) <= 8 * EPS * scale, (C, t)
        with mpmath.workdps(50):
            F, scale = _sextic(mpmath.mpf(C), mpmath.mpf(x), mpmath.mpf(y))
            assert abs(F) <= 8 * EPS * scale, (C, t)

    def test_rejects_non_finite(self):
        for t in (math.nan, complex(math.nan, 1e-150), complex(1.0, math.inf)):
            with pytest.raises(DomainError):
                curve_point(TrajectoryCurve(0.0), t)
        with pytest.raises(DomainError):
            TrajectoryCurve(math.inf)

    def test_complex_step_reads_the_velocity(self):
        # Im curve_point(t + iH) = H (dx/dt, dy/dt) with no difference taken,
        # and the real part is the point at t.
        H = 2.0**-500
        rng = random.Random(12)
        for _ in range(400):
            curve = TrajectoryCurve(rng.uniform(-5.0, 5.0))
            t = rng.uniform(-4.0, 4.0)
            z = curve_point(curve, complex(t, H))
            v = curve_velocity(curve, t)
            scale = 1.0 + math.hypot(*v)
            assert abs(z.x.imag / H - v[0]) <= 1e-14 * scale
            assert abs(z.y.imag / H - v[1]) <= 1e-14 * scale
            assert (z.x.real, z.y.real) == pytest.approx(curve_point(curve, t), rel=1e-15, abs=1e-15)

    def test_only_curve_point_takes_a_complex_t(self):
        with pytest.raises(TypeError):
            curve_velocity(TrajectoryCurve(0.0), 1j)
        with pytest.raises(TypeError):
            ode_o_residual(1.0, 1j, 1.0)


class TestCurveVelocity:
    def test_known_values(self):
        assert curve_velocity(TrajectoryCurve(0.0), 1.0) == (2.0, 2.0)
        assert curve_velocity(TrajectoryCurve(0.0), 0.0) == (0.0, 2.0)
        assert curve_velocity(TrajectoryCurve(-2.0), 0.0) == (0.0, 0.0)

    def test_matches_finite_differences(self):
        # The closed-form derivative must agree with a central-difference
        # oracle (step 1e-6) to 1e-6 everywhere it is used.
        rng = np.random.default_rng(11)
        for _ in range(400):
            C = float(rng.uniform(-5, 5))
            t = float(rng.uniform(-4, 4))
            curve = TrajectoryCurve(C)
            vx, vy = curve_velocity(curve, t)
            fx, fy = fd_velocity(curve, t)
            assert vx == pytest.approx(fx, abs=1e-6)
            assert vy == pytest.approx(fy, abs=1e-6)

    def test_common_factor_structure(self):
        # dx/dt = t * dy/dt for every C and t.
        for C in C_GRID:
            for t in np.linspace(-3, 3, 41):
                vx, vy = curve_velocity(TrajectoryCurve(C), float(t))
                assert vx == pytest.approx(t * vy, rel=1e-12, abs=1e-12)


class TestCurveSlope:
    def test_parabola_slope(self):
        assert curve_slope(TrajectoryCurve(0.0), 2.0) == 0.5

    def test_slope_is_c_independent(self):
        assert curve_slope(TrajectoryCurve(7.0), 2.0) == pytest.approx(0.5, abs=1e-12)
        # Finite-difference quotient oracle.
        curve = TrajectoryCurve(7.0)
        h = 1e-6
        xp, yp = curve_point(curve, 2.0 + h)
        xm, ym = curve_point(curve, 2.0 - h)
        assert (yp - ym) / (xp - xm) == pytest.approx(0.5, abs=1e-6)

    def test_slope_universality(self):
        for C in C_GRID:
            curve = TrajectoryCurve(C)
            for t in np.linspace(-4, 4, 81):
                t = float(t)
                if t == 0.0:
                    continue
                vx, vy = curve_velocity(curve, t)
                if max(abs(vx), abs(vy)) == 0.0:
                    continue
                assert abs(curve_slope(curve, t) - 1.0 / t) <= 1e-9
                h = 1e-6
                xp, yp = curve_point(curve, t + h)
                xm, ym = curve_point(curve, t - h)
                assert (yp - ym) / (xp - xm) == pytest.approx(1.0 / t, abs=1e-6)

    def test_vertical_tangent_signal(self):
        assert curve_slope(TrajectoryCurve(5.0), 0.0) == math.inf

    def test_cusp_is_degenerate(self):
        with pytest.raises(DegeneratePointError):
            curve_slope(TrajectoryCurve(-2.0), 0.0)


class TestOdeResiduals:
    def test_line_equation_examples(self):
        assert ode_c_residual(5.0, 2.0, 1.0) == 0.0
        assert ode_c_residual(0.0, 0.0, 0.0) == 0.0
        assert ode_c_residual(1.0, 2.0, 1.0) == 4.0

    def test_orthogonal_equation_examples(self):
        assert ode_o_residual(1.0, 2.0, 1.0) == 0.0
        assert ode_o_residual(3.0, 0.0, 1.0) == 0.0

    def test_on_curve_identity(self):
        # Substituting the parametrization with p = 1/t satisfies the
        # orthogonal ODE identically, for every C.
        for C in C_GRID + (2.0,):
            curve = TrajectoryCurve(C)
            for t in np.linspace(-6, 6, 601):
                t = float(t)
                if abs(t) < 1e-3:
                    continue
                x, y = curve_point(curve, t)
                p = 1.0 / t
                resid = ode_o_residual(x, y, p)
                scale = max(1.0, abs(y * p**3), abs(p * p * (2.0 - x)))
                assert abs(resid) <= 1e-9 * scale

    def test_specific_on_curve_point(self):
        x, y = curve_point(TrajectoryCurve(2.0), 1.5)
        assert ode_o_residual(x, y, 1.0 / 1.5) == pytest.approx(0.0, abs=1e-12)


class TestOrthogonalFoot:
    def test_parabola_feet(self):
        foot = orthogonal_foot(PARABOLA_NORMALS, 1.0, TrajectoryCurve(0.0))
        assert foot.t == -1.0
        assert foot.point == (1.0, -2.0)
        line = line_at(PARABOLA_NORMALS, 1.0)
        assert line.y_at(foot.point.x) == pytest.approx(foot.point.y, abs=1e-12)
        assert 1.0 * curve_slope(TrajectoryCurve(0.0), foot.t) == pytest.approx(-1.0)

        foot = orthogonal_foot(PARABOLA_NORMALS, -2.0, TrajectoryCurve(0.0))
        assert foot.t == 2.0
        assert foot.point == (4.0, 4.0)
        assert line_at(PARABOLA_NORMALS, -2.0).y_at(4.0) == pytest.approx(4.0)

    def test_horizontal_line_meets_vertical_tangent(self):
        foot = orthogonal_foot(PARABOLA_NORMALS, 0.0, TrajectoryCurve(5.0))
        assert foot.t == 0.0
        assert foot.point == (-5.0, 0.0)
        assert foot.velocity[0] == 0.0 and foot.velocity[1] > 0.0

    def test_incidence_and_product_random(self):
        rng = np.random.default_rng(20260810)
        n = 0
        while n < 1000:
            m = float(rng.uniform(0.1, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
            C = float(rng.uniform(-5.0, 5.0))
            if abs(2.0 + C * (1.0 + m * m) ** -1.5) < 1e-3:
                continue
            n += 1
            foot = orthogonal_foot(PARABOLA_NORMALS, m, TrajectoryCurve(C))
            line = line_at(PARABOLA_NORMALS, m)
            assert abs(foot.point.y - line.y_at(foot.point.x)) <= 1e-9
            assert abs(m * (1.0 / foot.t) + 1.0) <= 1e-9

    def test_cusp_foot_is_degenerate(self):
        # t = -m lands exactly on a cusp when m^2 = (C^2/4)^(1/3) - 1.
        m = math.sqrt((16.0 / 4.0) ** (1.0 / 3.0) - 1.0)
        with pytest.raises(DegenerateFootError):
            orthogonal_foot(PARABOLA_NORMALS, m, TrajectoryCurve(-4.0))


class TestCusps:
    def test_census(self):
        assert cusp_parameters(TrajectoryCurve(0.0)) == []
        assert cusp_parameters(TrajectoryCurve(1.0)) == []
        assert cusp_parameters(TrajectoryCurve(-1.0)) == []
        assert cusp_parameters(TrajectoryCurve(-2.0)) == [0.0]
        got = cusp_parameters(TrajectoryCurve(-4.0))
        assert len(got) == 2
        assert got[0] == pytest.approx(-0.7664209365408798, abs=1e-12)
        assert got[1] == pytest.approx(+0.7664209365408798, abs=1e-12)

    def test_velocity_vanishes_at_cusps(self):
        for C in (-2.0, -3.0, -4.0, -10.0):
            curve = TrajectoryCurve(C)
            for t in cusp_parameters(curve):
                vx, vy = curve_velocity(curve, t)
                assert abs(vx) <= 1e-12 and abs(vy) <= 1e-12

    def test_velocity_changes_sign_across_cusps(self):
        for C in (-3.0, -4.0, -8.0):
            curve = TrajectoryCurve(C)
            for tc in cusp_parameters(curve):
                if tc == 0.0:
                    continue
                eps = 1e-4
                before = curve_velocity(curve, tc - eps)
                after = curve_velocity(curve, tc + eps)
                assert before[0] * after[0] < 0.0
                assert before[1] * after[1] < 0.0

    def test_dy_dt_positive_without_cusps(self):
        for C in (-1.9, -1.0, 0.0, 2.0, 5.0):
            curve = TrajectoryCurve(C)
            for t in np.linspace(-6, 6, 241):
                assert curve_velocity(curve, float(t))[1] > 0.0


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestLinspace:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(FINITE, FINITE, st.integers(2, 2000))
    @example(-3.0, 3.0, 200)
    @example(-0.0, -1.0, 2)
    @example(1e308, -7e307, 2000)
    def test_nodes_are_numpys_bit_for_bit(self, a, b, n):
        """For finite a, b with b - a finite.  numpy takes a separate branch,
        (j / (n - 1)) (b - a), when the step (b - a) / (n - 1) is 0 (b = a,
        or a subnormal b - a); ``linspace`` does not, so that case is
        excluded."""
        assume(math.isfinite(b - a) and (b - a) / (n - 1) != 0.0)
        ours = [v.hex() for v in linspace(a, b, n)]
        # numpy also forms (n - 1) step, which may overflow; it then sets
        # that last node to b.
        with np.errstate(over="ignore"):
            theirs = np.linspace(a, b, n).tolist()
        assert ours == [v.hex() for v in theirs]

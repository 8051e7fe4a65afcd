"""Integrating-factor pipeline tests.

Covers:
  - raw form values and its constant non-exactness defect 2p^2 + 1
  - the integrating factor and the pointwise raw -> scaled relation
  - exactness of the scaled form, by complex-step derivatives
  - gradient consistency dF/dy = M~, dF/dp = N~ (finite differences)
  - the potential's level values on the curve family, including the
    sign flip of the level on the t < 0 half of each curve
  - parametric solution vs curve_point, and hand-checked points
  - mu at |p| past 1.3e154, where p sqrt(1 + p^2) overflows and mu is
    a subnormal
  - singular-domain errors at p = 0, and errors for a non-finite y, p
    or C, which returned nan or inf
  - at the ends of the float range: x = 1/p^2 and N's 2/p^2 overflow to
    inf rather than divide by an underflowed p * p, F and the solution
    hold past the overflow of p * p, and a complex step that overflows,
    or that is a root of 1 + p^2, raises ``DomainError``
"""

import math

import numpy as np
import pytest

from orthotraj import (
    DomainError,
    TrajectoryCurve,
    curve_point,
    exactness_defect,
    integrating_factor,
    potential,
    raw_form,
    scaled_form,
    solve_for_xy,
)

YS = np.linspace(-10.0, 10.0, 20)
PS = np.concatenate([np.linspace(0.1, 10.0, 25), np.linspace(-10.0, -0.1, 25)])


class TestRawForm:
    def test_values(self):
        form = raw_form()
        assert form.M(0.0, 1.0) == 2.0
        assert form.N(0.0, 1.0) == 2.0
        assert form.M(1.0, 2.0) == 10.0
        assert form.N(1.0, 2.0) == 5.0

    def test_singular_at_p0(self):
        form = raw_form()
        with pytest.raises(DomainError):
            form.N(1.0, 0.0)
        with pytest.raises(DomainError):
            form.M(1.0, 0.0)


class TestScaledForm:
    def test_M_is_y_independent(self):
        form = scaled_form()
        assert {form.M(y, 1.0) for y in (-5.0, 0.0, 7.0)} == {math.sqrt(2.0)}

    def test_N_value(self):
        assert scaled_form().N(2.0, 1.0) == pytest.approx(2.0 * math.sqrt(2.0))

    def test_N_overflows_to_inf_at_tiny_p(self):
        # p * p underflows to 0 at p = 1e-170, so 2/p^2 is formed as 2/p/p.
        assert scaled_form().N(1.0, 1e-170) == math.inf

    def test_singular_at_p0(self):
        form = scaled_form()
        # The whole form's domain excludes p = 0, even though the M
        # component alone would extend continuously (to 1) there.
        with pytest.raises(DomainError):
            form.M(1.0, 0.0)
        with pytest.raises(DomainError):
            form.N(1.0, 0.0)


class TestExactnessDefect:
    def test_raw_defect_examples(self):
        form = raw_form()
        assert exactness_defect(form, 0.0, 1.0) == pytest.approx(3.0, abs=1e-8)
        # Defect is independent of y.
        assert exactness_defect(form, 5.0, 2.0) == pytest.approx(9.0, abs=1e-8)

    def test_scaled_defect_example(self):
        assert exactness_defect(scaled_form(), 1.0, 1.0) == pytest.approx(0.0, abs=1e-8)

    def test_raw_defect_grid(self):
        form = raw_form()
        for y in YS:
            for p in PS:
                d = exactness_defect(form, float(y), float(p))
                assert d == pytest.approx(2.0 * p * p + 1.0, abs=1e-12)

    def test_scaled_defect_grid(self):
        form = scaled_form()
        for y in YS:
            for p in PS:
                assert abs(exactness_defect(form, float(y), float(p))) <= 1e-12

    def test_domain_guards(self):
        # p = 0 and a non-finite y or p still raise; there is no step to guard.
        for y, p in ((0.0, 0.0), (0.0, -0.0), (math.nan, 1.0), (0.0, math.inf)):
            with pytest.raises(DomainError):
                exactness_defect(raw_form(), y, p)

    def test_step_past_the_float_range_is_a_domain_error(self):
        # Past |p| = 1.3e154, 1 + p^2 overflows at the step p + iH, and the
        # message names that step.
        with pytest.raises(DomainError, match=r"complex step t, got \(1e\+160\+"):
            exactness_defect(scaled_form(), 1.0, 1e160)
        # Under |p| = 1.5e-154, 2/p^2 is inf, and Python before 3.14 divides
        # the complex (inf + xj) by the float root as complex division,
        # which reads nan; 3.14 divides by parts and reads the exact 0.
        try:
            d = exactness_defect(scaled_form(), 1.0, 1e-160)
        except DomainError as exc:
            assert "1e-160" in str(exc)
        else:
            assert d == 0.0

    @pytest.mark.parametrize("p", [1j, -1j], ids=["+i", "-i"])
    def test_step_at_a_root_of_1_plus_p2_is_a_domain_error(self, p):
        # sqrt(1 + p^2) is 0 at p = +-i, and N divides by it.
        with pytest.raises(DomainError, match="nonzero for a complex step") as exc:
            scaled_form().N(1.0, p)
        assert str(exc.value).endswith(repr(p))


class TestIntegratingFactor:
    def test_values(self):
        assert integrating_factor(1.0) == pytest.approx(1.0 / math.sqrt(2.0))
        assert integrating_factor(-1.0) == pytest.approx(-1.0 / math.sqrt(2.0))

    def test_singular(self):
        with pytest.raises(DomainError):
            integrating_factor(0.0)

    @pytest.mark.parametrize("p, mu", [(1e155, 1e-310), (-1e155, -1e-310), (1e160, 1e-320)])
    def test_past_the_overflow_of_p_times_s(self, p, mu):
        # mu = 1/p^2 there, a subnormal; 1 / (p s) read 0.0 once p s overflowed.
        assert integrating_factor(p) == pytest.approx(mu, rel=0.0, abs=1e-323)

    def test_scaled_is_mu_times_raw(self):
        raw = raw_form()
        scaled = scaled_form()
        for y in (-3.0, 0.0, 2.0):
            for p in (-5.0, -0.3, 0.5, 2.0, 8.0):
                mu = integrating_factor(p)
                assert mu * raw.M(y, p) == pytest.approx(scaled.M(y, p), rel=1e-12)
                assert mu * raw.N(y, p) == pytest.approx(scaled.N(y, p), rel=1e-12)

    def test_mu2_product_example(self):
        assert integrating_factor(2.0) * raw_form().M(0.0, 2.0) == pytest.approx(
            scaled_form().M(0.0, 2.0), abs=1e-12
        )


class TestPotential:
    def test_parabola_level(self):
        assert potential(2.0, 1.0) == 0.0

    def test_zero_on_first_factor(self):
        for p in (-4.0, -0.7, 0.3, 2.0, 9.0):
            assert potential(2.0 / p, p) == pytest.approx(0.0, abs=1e-12)

    def test_curve_level_value(self):
        # On the C = 3 curve at t = 2 (p = 1/2) the potential is 3.
        x, y = curve_point(TrajectoryCurve(3.0), 2.0)
        assert potential(y, 0.5) == pytest.approx(3.0, abs=1e-12)

    def test_gradient_consistency(self):
        # dF/dy = M~ and dF/dp = N~: the defining property of the
        # potential, checked by central differences (step 1e-6).
        form = scaled_form()
        h = 1e-6
        for y in YS:
            for p in PS:
                y = float(y)
                p = float(p)
                dFdy = (potential(y + h, p) - potential(y - h, p)) / (2.0 * h)
                dFdp = (potential(y, p + h) - potential(y, p - h)) / (2.0 * h)
                assert dFdy == pytest.approx(form.M(y, p), abs=1e-6)
                assert dFdp == pytest.approx(form.N(y, p), abs=1e-6)

    def test_singular(self):
        with pytest.raises(DomainError):
            potential(1.0, 0.0)

    def test_past_the_overflow_of_p_squared(self):
        # p * p overflows at p = 1e170, so sqrt(1 + p^2) is |p| there: it
        # read inf, and so did F, whose true value is 1.
        assert potential(3e-170, 1e170) == pytest.approx(1.0, rel=4e-16)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("v", NON_FINITE, ids=repr)
class TestNonFinite:
    def test_y(self, v):
        for call in (
            lambda: potential(v, 1.0),
            lambda: raw_form().N(v, 1.0),
            lambda: raw_form().M(v, 1.0),
            lambda: scaled_form().N(v, 1.0),
            lambda: exactness_defect(raw_form(), v, 1.0),
        ):
            with pytest.raises(DomainError, match="y must be finite"):
                call()

    def test_p(self, v):
        for call in (
            lambda: potential(1.0, v),
            lambda: raw_form().N(1.0, v),
            lambda: integrating_factor(v),
            lambda: solve_for_xy(v, 1.0),
        ):
            with pytest.raises(DomainError, match="p must be finite"):
                call()

    def test_C(self, v):
        with pytest.raises(DomainError, match="C must be finite"):
            solve_for_xy(1.0, v)


class TestSolveForXY:
    def test_hand_values(self):
        assert solve_for_xy(1.0, 0.0) == (1.0, 2.0)
        assert solve_for_xy(2.0, 0.0) == (0.25, 1.0)
        pt = solve_for_xy(1.0, math.sqrt(2.0))
        assert pt.x == pytest.approx(0.0, abs=1e-15)
        assert pt.y == pytest.approx(3.0, abs=1e-15)

    def test_singular(self):
        with pytest.raises(DomainError):
            solve_for_xy(0.0, 1.0)

    @pytest.mark.parametrize("p", [1e-160, 1e-170])
    def test_tiny_p_overflows_x_to_inf(self, p):
        # p * p underflows to 0 at p = 1e-170, so 1/p^2 is formed as 1/p/p.
        pt = solve_for_xy(p, 1.0)
        assert pt.x == math.inf and pt.y == pytest.approx(2.0 / p)

    def test_past_the_overflow_of_p_squared(self):
        # At p = 1e170, sqrt(1 + p^2) is |p| and C (p / s) is C: the root read
        # inf, and x = 0.0, y = 2e-170 came back for (-1, 3e-170).
        x, y = solve_for_xy(1e170, 1.0)
        assert x == -1.0 and y == pytest.approx(3e-170, rel=4e-16)

    def test_level_set_roundtrip(self):
        # potential(solve_for_xy(p, C)) recovers C on both p signs.
        for C in range(-4, 5):
            for p in PS:
                p = float(p)
                pt = solve_for_xy(p, float(C))
                assert potential(pt.y, p) == pytest.approx(float(C), abs=1e-9)

    def test_matches_curve_point_for_positive_p(self):
        for C in range(-4, 5):
            curve = TrajectoryCurve(float(C))
            for p in np.linspace(0.1, 10.0, 50):
                p = float(p)
                a = solve_for_xy(p, float(C))
                b = curve_point(curve, 1.0 / p)
                assert abs(a.x - b.x) <= 1e-12
                assert abs(a.y - b.y) <= 1e-12

    def test_negative_t_branch_flips_level(self):
        # The t-parametrization merges the two sign branches: for t < 0
        # the potential level of curve C is -C.
        for C in (-3.0, -1.0, 1.5, 4.0):
            curve = TrajectoryCurve(C)
            for t in (-0.2, -1.0, -2.5, -7.0):
                x, y = curve_point(curve, t)
                assert potential(y, 1.0 / t) == pytest.approx(-C, abs=1e-9)

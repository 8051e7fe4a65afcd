"""Slope-cubic and bracketed root finder tests.

Covers:
  - the slope cubic y p^3 + (x - 2) p^2 - 1 = 0 at hand-checked points:
    one root, the double roots on the evolute, the x-axis quadratic
  - no spurious triple root for large |y|, and the two axis roots
    +-1/sqrt(x - 2) kept apart however small they are
  - completeness against the numpy companion-matrix solver (10^4 points)
  - completeness against a literal brute-force sign scan of the slope
    equation over p in [-1000, 1000] at resolution 1e-3 (subset)
  - residual bound |y r^3 + (x - 2) r^2 - 1| <= 1e-9 * max(|y|, |x - 2|, 1)
    * max(1, |r|)^3
  - odd root count off the x-axis, p = 0 never a root, non-finite input
  - Illinois false-position bracketing: convergence, errors (a non-finite
    bracket included), a root on either end, cross-check
    with the closed-form cusp parameters, a bracket 2e196 wide, a root
    whose bracket stops at adjacent floats, wider than tol, and a
    near-tangent scan cell that plain false position crawled through
"""

import math

import mpmath
import numpy as np
import pytest

from orthotraj import (
    DomainError,
    NoBracketError,
    bracketed_root,
    cusp_parameters,
    slopes_at,
    TrajectoryCurve,
)


class TestSlopesAt:
    def test_parabola_point(self):
        rs = slopes_at(1.0, 2.0)
        assert rs.roots == (1.0,)

    def test_double_root(self):
        # On the evolute 27y^2 = 4(x - 2)^3: 2p^3 + 3p^2 - 1 = (p + 1)^2 (2p - 1)
        # and -2p^3 + 3p^2 - 1 = -(p - 1)^2 (2p + 1).
        rs = slopes_at(5.0, 2.0)
        assert rs.multiplicities == (2, 1)
        assert rs.roots == pytest.approx((-1.0, 0.5), abs=1e-8)
        rs = slopes_at(5.0, -2.0)
        assert rs.multiplicities == (1, 2)
        assert rs.roots == pytest.approx((-0.5, 1.0), abs=1e-8)

    def test_x_axis_degeneration(self):
        assert slopes_at(3.0, 0.0).roots == (-1.0, 1.0)
        assert slopes_at(1.0, 0.0).roots == ()
        assert slopes_at(2.0, 0.0).roots == ()  # the constant -1 alone
        assert slopes_at(-1e308, 0.0).roots == ()  # even where 4(x - 2) overflows

    def test_no_spurious_triple_root(self):
        # The slope cubic has no triple root; far out it has one real root.
        rs = slopes_at(2.0, 1e10)
        assert rs.multiplicities == (1,)
        assert rs.roots == pytest.approx((4.641588833612778892e-4,), rel=1e-12)
        rs = slopes_at(100002.0, 1e12)
        assert rs.multiplicities == (1,)
        assert rs.roots == pytest.approx((9.996667777530864225e-5,), rel=1e-12)
        # Q^2 underflows here, so the root is still inexact (ROADMAP item 1),
        # but it has the sign of y and nothing divides by P = 0.
        for y in (1e200, -1e200):
            (r,) = slopes_at(2.0, y).roots
            assert math.copysign(1.0, r) == math.copysign(1.0, y) and r != 0.0

    def test_far_axis_roots_stay_apart(self):
        # +-1/sqrt(x - 2) are two simple roots however small they get.
        rs = slopes_at(1e300, 0.0)
        assert rs.multiplicities == (1, 1)
        assert rs.roots == pytest.approx((-1e-150, 1e-150), rel=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            slopes_at(math.inf, 0.0)
        with pytest.raises(DomainError):
            slopes_at(0.0, math.nan)

    def test_zero_never_a_root(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            rs = slopes_at(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
            assert all(r != 0.0 for r in rs.roots)

    def test_odd_count_off_axis(self):
        rng = np.random.default_rng(13)
        for _ in range(3000):
            x = float(rng.uniform(-10, 10))
            y = float(rng.uniform(-10, 10))
            if abs(y) < 1e-6:
                continue
            n = sum(slopes_at(x, y).multiplicities)
            assert n in (1, 3)

    def test_residual_bound_random(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            x = float(rng.uniform(-10, 10))
            y = float(rng.uniform(-10, 10))
            scale = max(abs(y), abs(x - 2.0), 1.0)
            for r in slopes_at(x, y).roots:
                residual = (y * r + (x - 2.0)) * r * r - 1.0
                assert abs(residual) <= 1e-9 * scale * max(1.0, abs(r)) ** 3

    def test_matches_companion_matrix_oracle(self):
        # Independent oracle: numpy's eigenvalue-based solver.
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            x = float(rng.uniform(-10, 10))
            y = float(rng.uniform(-10, 10))
            mine = []
            rs = slopes_at(x, y)
            for r, mult in zip(rs.roots, rs.multiplicities):
                mine.extend([r] * mult)
            ref = np.roots([y, x - 2.0, 0.0, -1.0])
            ref = sorted(float(z.real) for z in ref if abs(z.imag) <= 1e-8 * max(1.0, abs(z)))
            assert len(mine) == len(ref), (x, y, mine, ref)
            for a, b in zip(mine, ref):
                assert a == pytest.approx(b, rel=1e-6, abs=1e-6)

    def test_brute_force_sign_scan_subset(self):
        # Literal scan of the slope equation over p in [-1000, 1000] at
        # resolution 1e-3 for a seeded subset of points; scan roots and
        # solver roots must match within 1e-6, with no extras either way.
        ps = np.arange(-1000.0, 1000.0 + 1e-3, 1e-3)
        p2 = ps * ps
        p3 = p2 * ps
        rng = np.random.default_rng(17)
        for _ in range(120):
            x = float(rng.uniform(-10, 10))
            y = float(rng.uniform(-10, 10))
            vals = y * p3 + (x - 2.0) * p2 - 1.0
            sgn = np.sign(vals)
            idx = np.flatnonzero(sgn[:-1] * sgn[1:] < 0)

            def f(p, x=x, y=y):
                return ((y * p + (x - 2.0)) * p) * p - 1.0

            scan_roots = [
                bracketed_root(f, float(ps[i]), float(ps[i + 1]), tol=1e-12)
                for i in idx
            ]
            scan_roots.extend(float(p) for p in ps[vals == 0.0])
            scan_roots.sort()

            solver_roots = [r for r in slopes_at(x, y).roots if abs(r) <= 1000.0]
            assert len(scan_roots) == len(solver_roots), (x, y)
            for a, b in zip(scan_roots, solver_roots):
                assert a == pytest.approx(b, abs=1e-6)


class TestBracketedRoot:
    def test_polynomial_root(self):
        r = bracketed_root(lambda t: t * t - 2.0 * t - 3.0, 2.0, 4.0, tol=1e-12)
        assert r == pytest.approx(3.0, abs=1e-10)

    def test_no_bracket(self):
        with pytest.raises(NoBracketError):
            bracketed_root(lambda t: t - 5.0, 0.0, 1.0)

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            bracketed_root(lambda t: t, 1.0, 0.0)

    @pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
    def test_non_finite_bracket(self, lo, hi):
        # An infinite end returned 0.0, which is no root of 1 - |t|.
        with pytest.raises(DomainError, match="finite"):
            bracketed_root(lambda t: 1.0 - abs(t), lo, hi)

    def test_endpoint_root(self):
        assert bracketed_root(lambda t: t, 0.0, 1.0) == 0.0
        assert bracketed_root(lambda t: t - 1.0, 0.0, 1.0) == 1.0

    def test_cusp_equation(self):
        # Same zero that cusp_parameters(C=-4) reports in closed form.
        r = bracketed_root(lambda t: 2.0 - 4.0 * (1.0 + t * t) ** -1.5, 0.5, 1.0, 1e-12)
        assert r == pytest.approx(0.7664209365408798, abs=1e-10)
        assert r == pytest.approx(cusp_parameters(TrajectoryCurve(-4.0))[1], abs=1e-10)

    def test_huge_bracket(self):
        # The secant step lands on 0 and bisection must halve the bracket
        # some 650 times: past 200 iterations this returned 0.0.
        assert bracketed_root(lambda t: 3.0 - t, -1e196, 1e196) == 3.0

    def test_root_between_adjacent_floats(self):
        # ulp(1e5) = 1.5e-11 > tol, so the bracket stops at adjacent
        # floats; it ran on to the iteration cap (202 calls) before.
        calls = []

        def f(t):
            calls.append(t)
            return math.tanh(50.0 * (t - 1e5 - 0.3))

        r = bracketed_root(f, 1e5 - 1.0, 1e5 + 1.0, tol=1e-12)
        assert abs(r - (1e5 + 0.3)) <= math.ulp(1e5) and len(calls) <= 50

    def test_near_tangent_cell_ends_its_crawl(self):
        # A cell of the intersections scan over [-10, 10] whose root of
        # h lies 7.8e-5 from one end, near a tangency (h' = 5.9e-5 there).
        # Plain false position kept the other end fixed and crawled: 434
        # calls of h, to 1.1e-11 from the root.
        m, C = 0.6661380780996973, -2.3418709594280704
        lo, hi = 0.33303330333033365, 0.3350335033503349
        a = 2.0 + m * m
        calls = []

        def h(t):
            calls.append(t)
            return a - m * t + C / math.sqrt(1.0 + t * t)

        r = bracketed_root(h, lo, hi, tol=1e-12)
        with mpmath.workdps(50):
            M, CC = mpmath.mpf(m), mpmath.mpf(C)

            def h_mp(t):
                return 2 + M * M - M * t + CC / mpmath.sqrt(1 + t * t)

            root = mpmath.findroot(h_mp, (mpmath.mpf(lo), mpmath.mpf(hi)), solver="anderson")
            error = float(abs(r - root))
            slope = float(abs(mpmath.diff(h_mp, root)))
        assert len(calls) <= 40
        # One ulp of h's terms (about 2.44) moves this root by 7.5e-12, and
        # the double h changes sign all over +-5.6e-12 of it: the root can
        # be asked no closer than an |h| of one ulp of those terms.
        assert error * slope <= math.ulp(a)

    def test_subnormal_values_underflow_the_weights(self):
        # f takes only the subnormals -5e-324 and 1.5e-323, so halving a
        # kept end's weight soon underflows it to 0: the secant point is
        # then the other end, and bisection takes over, strictly inside.
        root = 0.3
        calls = []

        def f(t):
            calls.append(t)
            return -5e-324 if t < root else 1.5e-323

        r = bracketed_root(f, 0.0, 1.0, tol=1e-12)
        assert abs(r - root) <= 1e-12
        assert all(0.0 < t < 1.0 for t in calls[2:]) and len(calls) <= 60

    def test_steep_function(self):
        r = bracketed_root(lambda t: math.tanh(50.0 * (t - 0.3)), -1.0, 1.0, tol=1e-13)
        assert r == pytest.approx(0.3, abs=1e-10)

"""The paper's identities, exactly, at rational points.

Put t = 2u/(1 - u^2).  Then s = sqrt(1 + t^2) = (1 + u^2)/(1 - u^2) is
rational for rational u, and |u| < 1 keeps s > 0, so every point of
member C is rational for rational (u, C) and ``Fraction`` evaluates each
identity with no rounding.  A nonzero polynomial vanishes at a random
point of a large set with small probability (Schwartz, J. ACM 27, 1980;
Zippel, EUROSAM 1979), so an identity that reads exactly 0 at 50 random
points holds everywhere, not just on a grid.

Covers, each exactly 0 at 50 seeded rational (u, C, m):
  - the member's sextic F_C(x, y), ``verification._sextic``
  - the crossing factorisation y - (m x - 2m - m^3) = (t + m) h(t),
    h(t) = 2 + m^2 - m t + C/s
  - the squared normal offset (q (y - q) - x)^2 / (1 + q^2) = C^2 at q = t
  - the orthogonal-family equation y p^3 - p^2 (2 - x) - 1 = 0 at p = 1/t
  - the potential on both branches, (y - 2q) s / q = C at q = t of either
    sign
  - the velocity (t g, g), g = 2 + C/s^3, from exact derivatives in u,
    and the cusp condition C = -2 s^3, where it is (0, 0)
  - the double point: at C = -2s, so C < -2, the parameters +-t both
    land on (1 + C^2/4, 0)
  - the exactness defect dM/dp - dN/dy = 2p^2 + 1 of ``raw_form`` at
    (y, 1/t), from exact derivatives by dual numbers over ``Fraction``
and F_0 = (y^2 - 4x)^2 ((x - 1)^2 + y^2) at 50 random rational (x, y).
"""

import random
from fractions import Fraction

from orthotraj.exact_ode import raw_form
from orthotraj.verification import _sextic

N_POINTS = 50


def _rational(rng, bound):
    """A random rational in (-bound, bound), denominator up to 10^6."""
    d = rng.randint(2, 10**6)
    n = bound * d
    return Fraction(rng.randint(1 - n, n - 1), d)


def _member_points():
    """(C, m, t, s, x, y) at seeded rational u != 0 with |u| < 1, and
    rational C and m."""
    rng = random.Random(21)
    points = []
    while len(points) < N_POINTS:
        u = _rational(rng, 1)
        if not u:
            continue  # t = 0 has no slope p = 1/t
        C, m = _rational(rng, 5), _rational(rng, 3)
        t, s = _t_s(u)
        points.append((C, m, t, s, *_member_xy(C, t, s)))
    return points


def _t_s(u):
    """t = 2u/(1 - u^2) and s = sqrt(1 + t^2) = (1 + u^2)/(1 - u^2)."""
    return 2 * u / (1 - u * u), (1 + u * u) / (1 - u * u)


def _member_xy(C, t, s):
    """The closed-form point (t^2 - C/s, 2t + C t/s) of member C."""
    return t * t - C / s, 2 * t + C * t / s


POINTS = _member_points()


def test_s_is_the_square_root():
    for _C, _m, t, s, _x, _y in POINTS:
        assert s > 0 and s * s == 1 + t * t


def test_sextic_vanishes_on_each_member():
    for C, _m, _t, _s, x, y in POINTS:
        F, scale = _sextic(C, x, y)
        assert F == 0 and scale > 0


def test_crossing_factorisation():
    for C, m, t, s, x, y in POINTS:
        h = 2 + m * m - m * t + C / s
        assert y - (m * x - 2 * m - m**3) - (t + m) * h == 0


def test_squared_normal_offset_is_C_squared():
    for C, _m, q, _s, x, y in POINTS:
        assert (q * (y - q) - x) ** 2 / (1 + q * q) - C * C == 0


def test_orthogonal_family_equation():
    for _C, _m, t, _s, x, y in POINTS:
        p = 1 / t
        assert y * p**3 - p * p * (2 - x) - 1 == 0


def test_sextic_at_C_0_is_the_doubled_parabola_and_the_focus():
    rng = random.Random(19)
    for _ in range(N_POINTS):
        x, y = _rational(rng, 10), _rational(rng, 10)
        F, _scale = _sextic(Fraction(0), x, y)
        assert F == (y * y - 4 * x) ** 2 * ((x - 1) ** 2 + y * y)


def test_potential_on_both_branches():
    # exact_ode's F = (y - 2/p) sqrt(1 + p^2) is (y - 2q) s / |q| at
    # p = 1/q; without the |.| the level is C on either sign of q = t.
    assert {t > 0 for _C, _m, t, _s, _x, _y in POINTS} == {True, False}
    for C, _m, q, s, _x, y in POINTS:
        assert (y - 2 * q) * s / q == C


def _velocity(C, u):
    """(dx/dt, dy/dt) of member C at t = 2u/(1 - u^2), by the chain rule
    through exact derivatives in u."""
    w = 1 - u * u
    t, s = _t_s(u)
    dt, ds = 2 * (1 + u * u) / (w * w), 4 * u / (w * w)
    dx = 2 * t * dt + C * ds / (s * s)
    dy = 2 * dt + C * (dt * s - t * ds) / (s * s)
    return dx / dt, dy / dt


def test_velocity_and_the_cusp_condition():
    for C, _m, t, s, _x, _y in POINTS:
        u = t / (1 + s)  # inverts t = 2u/(1 - u^2)
        g = 2 + C / s**3
        assert _velocity(C, u) == (t * g, g)
        assert _velocity(-2 * s**3, u) == (0, 0)


def test_double_point_of_a_cusped_member():
    # C^2/4 - 1 = t^2 at C = -2s, and s > 1 for t != 0, so C < -2.
    for _C, _m, t, s, _x, _y in POINTS:
        C = -2 * s
        assert C < -2
        for tt in (t, -t):
            assert _member_xy(C, tt, s) == (1 + C * C / 4, 0)


class _Dual:
    """a + b e with e^2 = 0, over ``Fraction``: f(x + e) = f(x) + f'(x) e,
    so the e part of a form evaluated at a dual argument is its exact
    derivative.  A float operand becomes ``Fraction(x)``, exact for a
    double, and ``__float__`` serves the form's ``math.isfinite`` check."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    @staticmethod
    def lift(v):
        return v if isinstance(v, _Dual) else _Dual(v)

    def __add__(self, other):
        other = _Dual.lift(other)
        return _Dual(self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        other = _Dual.lift(other)
        return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    def __truediv__(self, other):
        other = _Dual.lift(other)
        return _Dual(self.a / other.a, (self.b * other.a - self.a * other.b) / other.a**2)

    def __rtruediv__(self, other):
        return _Dual.lift(other) / self

    def __eq__(self, other):
        other = _Dual.lift(other)
        return self.a == other.a and self.b == other.b

    def __float__(self):
        return float(self.a)

    __radd__, __rmul__ = __add__, __mul__


def test_raw_form_exactness_defect():
    M, N, _description = raw_form()
    for _C, _m, t, _s, _x, y in POINTS:
        p = 1 / t
        dM_dp = M(_Dual(y), _Dual(p, 1)).b
        dN_dy = N(_Dual(y, 1), _Dual(p)).b
        assert dM_dp - dN_dy == 2 * p * p + 1

"""The line family y = m x - 2m - m^3 and the curve family orthogonal to it.

The lines

    y = m x - 2m - m^3

are the normals of the parabola y^2 = 4x.  The curves crossing every such
line at a right angle form a one-parameter family with the closed-form
parametrization (parameter t, family constant C)

    x(t) = t^2 - C / sqrt(1 + t^2)
    y(t) = 2 t + C t / sqrt(1 + t^2)

where C = 0 recovers the parabola itself: member C is P(t) + C n(t), the
parabola P(t) = (t^2, 2t) offset by C along its unit normal
n(t) = (-1, t) / sqrt(1 + t^2) (Bruce & Giblin, Curves and Singularities,
1992; Farouki & Neff, CAGD 7, 1990).  Differentiating,

    dx/dt = t * g(t),   dy/dt = g(t),   g(t) = 2 + C (1 + t^2)^(-3/2),

so the slope dy/dx is 1/t wherever g(t) != 0, independent of C.  Both
velocity components vanish where C = -rho(t), rho = 2 (1 + t^2)^(3/2) the
parabola's radius of curvature; rho >= 2, so these cusps need C <= -2.

Everything here is a pure scalar function of its inputs.
"""

import math
from typing import NamedTuple

from .errors import DegenerateFootError, DegeneratePointError, DomainError

__all__ = [
    "Point",
    "Line",
    "LineFamily",
    "TrajectoryCurve",
    "CurveSample",
    "PARABOLA_NORMALS",
    "line_at",
    "curve_point",
    "curve_velocity",
    "curve_slope",
    "ode_c_residual",
    "ode_o_residual",
    "orthogonal_foot",
    "cusp_parameters",
]

# tuple.__new__ skips a NamedTuple's Python-level __new__, half the cost:
# the per-point paths build their records with it after their own checks.
_new = tuple.__new__


class Point(NamedTuple):
    x: float
    y: float


class Line(NamedTuple):
    """A straight line y = slope * x + intercept."""

    slope: float
    intercept: float

    def y_at(self, x: float) -> float:
        return self.slope * x + self.intercept


class LineFamily(NamedTuple):
    """The line family y = m x + f(m) with f(m) = -2m - m^3."""

    def f(self, m: float) -> float:
        """The intercept f(m), in Horner order."""
        return (-(m * m) - 2.0) * m + 0.0


#: The family y = m x - 2m - m^3, the normals of the parabola y^2 = 4x.
PARABOLA_NORMALS = LineFamily()


class TrajectoryCurve(NamedTuple("TrajectoryCurve", [("C", float)])):
    """One member of the orthogonal family, identified by its constant C."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, C: float):
        if not math.isfinite(C):
            raise DomainError("curve constant C must be finite")
        return _new(cls, (C,))


class CurveSample(NamedTuple):
    """Curve evaluation at one parameter value.

    ``regular`` is False exactly at a cusp, where no tangent exists: where
    the velocity is (0, 0) or t is in ``cusp_parameters(curve)``.
    """

    t: float
    point: Point
    velocity: tuple
    regular: bool


def _require_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _require_finite_step(value, name: str) -> None:
    """``_require_finite`` that also passes a finite complex step t + iH."""
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must be finite, got {value!r}")


def line_at(family: LineFamily, m: float) -> Line:
    """The member of ``family`` with slope m."""
    m = _require_finite(m, "m")
    return _new(Line, (m, family.f(m)))


def _g(C: float, t: float) -> float:
    # Common velocity factor: dy/dt = g, dx/dt = t*g.
    return 2.0 + C * (1.0 + t * t) ** -1.5


def _s(t):
    """s = sqrt(1 + t^2), the root every closed form of the family reads.

    For a real t, sqrt(1 + t*t) while t*t is finite, and |t| past it,
    where t^-2 is below an ulp: finite for every finite t.  At a complex
    step t + iH, the principal root, and ``DomainError`` where 1 + t^2
    overflows or is 0 (t = +-i).
    """
    if not isinstance(t, complex):
        tt = t * t
        return math.sqrt(1.0 + tt) if tt < math.inf else abs(t)
    try:
        s = (1.0 + t * t) ** 0.5
    except OverflowError:  # 1 + t^2 overflows: |t| > 1.3e154
        s = 0j
    if not s or s != s:  # 0 at t = +-i; nan where t^2 is inf - inf
        raise DomainError(f"1 + t^2 must be finite and nonzero for a complex step t, got {t!r}")
    return s


def curve_point(curve: TrajectoryCurve, t: float) -> Point:
    """Evaluate (x(t), y(t)) on the curve with constant ``curve.C``, as
    P(t) + C n(t) with n_y = t / s formed first: C t alone can overflow.
    At a complex step t + iH its imaginary parts are H (dx/dt, dy/dt)."""
    try:
        t = _require_finite(t, "t")
    except TypeError:
        _require_finite_step(t, "t")
    s = _s(t)
    C = curve.C
    return _new(Point, (t * t - C / s, 2.0 * t + C * (t / s)))


def curve_velocity(curve: TrajectoryCurve, t: float):
    """The parametric derivative (dx/dt, dy/dt) = (t*g(t), g(t))."""
    t = _require_finite(t, "t")
    g = _g(curve.C, t)
    return (t * g, g)


def sample(curve: TrajectoryCurve, t: float) -> CurveSample:
    """Point, velocity and regularity flag at parameter t."""
    u = _require_finite(t, "t")  # a real: curve_point also takes a complex step
    g = _g(curve.C, u)
    regular = g != 0.0 and t not in cusp_parameters(curve)
    return _new(CurveSample, (t, curve_point(curve, u), (u * g, g), regular))


def linspace(start: float, stop: float, n: int) -> list:
    """n >= 2 evenly spaced nodes, start + j step, then stop exactly: the
    package's one node formula for every grid, bit for bit the nodes of
    ``numpy.linspace`` while the step is not 0."""
    step = (stop - start) / (n - 1)
    return [start + j * step for j in range(n - 1)] + [stop]


def curve_slope(curve: TrajectoryCurve, t: float) -> float:
    """Slope dy/dx = 1/t at parameter t, the same on every member.

    At t = 0 the tangent is vertical and ``math.inf`` is returned as the
    infinite-slope signal.  Where ``sample`` is not regular (a cusp)
    there is no tangent and DegeneratePointError is raised.
    """
    if not sample(curve, t).regular:
        raise DegeneratePointError(f"cusp at t={t!r} on curve C={curve.C!r}")
    return 1.0 / t if t else math.inf


def ode_c_residual(x: float, y: float, p: float) -> float:
    """Residual of the line-family equation y = p x - 2p - p^3.

    Zero iff (x, y) lies on the family member with slope p.
    """
    x = _require_finite(x, "x")
    y = _require_finite(y, "y")
    p = _require_finite(p, "p")
    return y - (p * x - 2.0 * p - p * p * p)


def ode_o_residual(x: float, y: float, p: float) -> float:
    """Residual of the orthogonal-family equation y p^3 = p^2 (2 - x) + 1.

    Zero iff p is an admissible orthogonal-trajectory slope at (x, y);
    obtained from the line-family equation by the right-angle substitution
    p -> -1/p.
    """
    x = _require_finite(x, "x")
    y = _require_finite(y, "y")
    p = _require_finite(p, "p")
    return y * p * p * p - p * p * (2.0 - x) - 1.0


def orthogonal_foot(
    family: LineFamily, m: float, curve: TrajectoryCurve
) -> CurveSample:
    """The unique point where the line of slope m meets ``curve`` at a
    right angle.

    Because the curve slope is 1/t independently of C, orthogonality
    (m * slope = -1) forces t = -m; that point lies on the line for every
    C.  For m = 0 the foot is the curve's vertical-tangent point on the
    x-axis.  If t = -m is a cusp, where C = -2 (1 + m^2)^(3/2), the
    sample there is not regular and the foot is flagged degenerate.
    """
    m = _require_finite(m, "m")
    foot = sample(curve, -m)
    if not foot.regular:
        raise DegenerateFootError(f"foot of line m={m!r} on curve C={curve.C!r} is a cusp")
    return foot


def cusp_parameters(curve: TrajectoryCurve) -> list:
    """All parameters t where both velocity components vanish.

    These solve C = -2 (1 + t^2)^(3/2): none for C > -2, t = 0 at C = -2,
    a symmetric pair for C < -2.  With u^3 = -C/2 = 1 + eps, t^2 = u^2 - 1
    = eps (u + 1) / (u^2 + u + 1), which neither cancels as C -> -2 (eps
    is exact there) nor overflows for huge |C|.
    """
    h = -0.5 * curve.C
    if h < 1.0:
        return []
    u = h ** (1.0 / 3.0)
    r = math.sqrt((h - 1.0) / (u * u + u + 1.0) * (u + 1.0))
    return [-r, r] if r else [r]

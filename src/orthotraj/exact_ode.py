"""Integrating-factor construction for the orthogonal-family ODE.

Eliminating x from the slope equation y p^3 = p^2 (2 - x) + 1 (using
dx/dy = 1/p) leaves a differential form in (y, p):

    (p^3 + p) dy + (y p^2 + 2/p) dp = 0.

This form is not exact: dM/dp - dN/dy = (3p^2 + 1) - p^2 = 2p^2 + 1.
Multiplying by the integrating factor

    mu(p) = 1 / (p sqrt(1 + p^2))

makes it exact, with potential (first integral)

    F(y, p) = (y - 2/p) sqrt(1 + p^2).

Level sets F = C solve the ODE; solving for y and back-substituting for
x gives the parametric solution

    y = 2/p + C / sqrt(1 + p^2),    x = 1/p^2 - C p / sqrt(1 + p^2),

which for p > 0 coincides with ``core_model.curve_point`` at t = 1/p.
For p < 0 the same point lies on the curve with constant -C: the t-form
of the family merges the two sign branches of the level sets.

Everything is a pure scalar function; the whole (y, p) domain excludes
p = 0, where mu and F blow up (the curves cross the x-axis vertically),
and a non-finite y or p, which raise ``DomainError`` rather than return
nan or inf.
"""

import math
from typing import Callable, NamedTuple

from .core_model import Point
from .errors import DomainError

__all__ = [
    "DifferentialForm",
    "raw_form",
    "scaled_form",
    "integrating_factor",
    "exactness_defect",
    "potential",
    "solve_for_xy",
]


class DifferentialForm(NamedTuple):
    """A form M(y, p) dy + N(y, p) dp = 0 on the domain p != 0."""

    M: Callable[[float, float], float]
    N: Callable[[float, float], float]
    description: str


def _check(p: float, y: float = 0.0) -> None:
    """DomainError unless p is finite and nonzero and y is finite."""
    if p == 0.0:
        raise DomainError(f"p must be nonzero, got {p!r}")
    if not math.isfinite(p):
        raise DomainError(f"p must be finite, got {p!r}")
    if not math.isfinite(y):
        raise DomainError(f"y must be finite, got {y!r}")


def raw_form() -> DifferentialForm:
    """The non-exact form (p^3 + p) dy + (y p^2 + 2/p) dp = 0."""

    def M(y: float, p: float) -> float:
        _check(p, y)
        return p * p * p + p

    def N(y: float, p: float) -> float:
        _check(p, y)
        return y * p * p + 2.0 / p

    return DifferentialForm(M=M, N=N, description="(p^3+p) dy + (y p^2 + 2/p) dp")


def integrating_factor(p: float) -> float:
    """mu(p) = 1 / (p sqrt(1 + p^2)); singular at p = 0."""
    _check(p)
    return 1.0 / (p * math.sqrt(1.0 + p * p))


def scaled_form() -> DifferentialForm:
    """The exact form: the raw form multiplied pointwise by mu(p).

    M~ = sqrt(1 + p^2),  N~ = (p y + 2/p^2) / sqrt(1 + p^2).
    """

    def M(y: float, p: float) -> float:
        _check(p, y)
        return math.sqrt(1.0 + p * p)

    def N(y: float, p: float) -> float:
        _check(p, y)
        return (p * y + 2.0 / (p * p)) / math.sqrt(1.0 + p * p)

    return DifferentialForm(
        M=M, N=N, description="sqrt(1+p^2) dy + (p y + 2/p^2)/sqrt(1+p^2) dp"
    )


def exactness_defect(form: DifferentialForm, y: float, p: float, h: float = 1e-6) -> float:
    """Central-difference estimate of dM/dp - dN/dy at (y, p).

    Zero (to truncation error) iff the form is exact there.  The stencil
    must not straddle the p = 0 singularity.
    """
    if not h > 0.0:
        raise DomainError(f"step h must be positive, got {h!r}")
    if abs(p) <= h:
        raise DomainError(f"stencil at p={p!r} with h={h!r} crosses p = 0")
    dM_dp = (form.M(y, p + h) - form.M(y, p - h)) / (2.0 * h)
    dN_dy = (form.N(y + h, p) - form.N(y - h, p)) / (2.0 * h)
    return dM_dp - dN_dy


def potential(y: float, p: float) -> float:
    """First integral F(y, p) = (y - 2/p) sqrt(1 + p^2).

    Constant along solutions of the exact form; its level value is the
    family constant C (for the p > 0 branch).
    """
    _check(p, y)
    return (y - 2.0 / p) * math.sqrt(1.0 + p * p)


def solve_for_xy(p: float, C: float) -> Point:
    """The point of the level-C solution carrying slope p.

    x = 1/p^2 - C p / sqrt(1 + p^2),  y = 2/p + C / sqrt(1 + p^2).
    Equals ``curve_point(TrajectoryCurve(C), 1/p)`` for p > 0.
    """
    _check(p)
    if not math.isfinite(C):
        raise DomainError(f"C must be finite, got {C!r}")
    s = math.sqrt(1.0 + p * p)
    return Point(1.0 / (p * p) - C * p / s, 2.0 / p + C / s)

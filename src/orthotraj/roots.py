"""The slope cubic and a bracketed root finder.

At a point (x, y) the slopes of the orthogonal trajectories through it
are the real roots of

    y p^3 + (x - 2) p^2 - 1 = 0.

p = 0 is never a root (the constant term is -1), so every root is a
genuine direction.  On the x-axis the leading coefficient y vanishes and
the cubic degenerates to the quadratic (x - 2) p^2 = 1, which the solver
takes only while |y| <= 1e-12 max(|y|, |x - 2|, 1).  Above that it divides
by y, however small, and the depressed cubic's coefficients then cancel:
for |y| below about 1e-5 roots come out wrong or lost, e.g. a spurious
double root near 0 at (3, 1e-6) (ROADMAP item 1).
"""

import math
from typing import NamedTuple

from . import _EXPORTS
from .errors import DomainError, NoBracketError, _finite

__all__ = list(_EXPORTS["roots"])

# Relative threshold below which y counts as zero (cubic -> quadratic).
_DEGREE_EPS = 1e-12
# Relative discriminant proximity treated as a multiple root.
_MULTIPLE_EPS = 1e-10


class RootSet(NamedTuple):
    """Real roots in ascending order with matching multiplicities."""

    roots: tuple
    multiplicities: tuple


def _cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def _polish(y: float, a: float, r: float) -> float:
    # One or two guarded Newton steps on y p^3 + a p^2 - 1; bail out
    # near a stationary point where Newton would shoot off.
    for _ in range(2):
        f = (y * r + a) * r * r - 1.0
        df = (3.0 * y * r + 2.0 * a) * r
        if df == 0.0:
            break
        step = f / df
        if not math.isfinite(step) or abs(step) > 1.0 + abs(r):
            break
        r -= step
    return r


def _cubic_roots(y: float, a: float):
    """(root, multiplicity) pairs of y p^3 + a p^2 - 1 (y != 0), by the
    trigonometric / Cardano branches of the depressed cubic."""
    b = a / y
    d = -1.0 / y
    shift = b / 3.0
    # Depressed cubic u^3 + P u + Q with p = u - shift.
    P = -b * b / 3.0
    Q = 2.0 * b * b * b / 27.0 + d

    half_q = 0.5 * Q
    third_p = P / 3.0
    D = half_q * half_q + third_p * third_p * third_p
    d_scale = max(half_q * half_q, abs(third_p) ** 3)

    # P = 0 with D = 0 means Q^2 underflowed (|y| > ~1e150), not a double root.
    if P != 0.0 and abs(D) <= _MULTIPLE_EPS * d_scale:
        # Boundary of the casus irreducibilis: one simple + one double root.
        simple = 3.0 * Q / P
        double = -1.5 * Q / P
        return [(simple - shift, 1), (double - shift, 2)]
    if D < 0.0:
        # Three distinct real roots (trigonometric form).
        m = 2.0 * math.sqrt(-third_p)
        arg = 3.0 * Q / (P * m)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg)
        return [
            (m * math.cos((theta - 2.0 * math.pi * k) / 3.0) - shift, 1)
            for k in range(3)
        ]
    # One real root (Cardano).
    sq = math.sqrt(D)
    u = _cbrt(-half_q + sq) + _cbrt(-half_q - sq)
    return [(u - shift, 1)]


def slopes_at(x: float, y: float) -> RootSet:
    """Admissible orthogonal-trajectory slopes through (x, y).

    These are the real roots of y p^3 + (x - 2) p^2 - 1 = 0, closed form
    plus Newton polish.
    """
    x, y = _finite(x, "x"), _finite(y, "y")
    a = x - 2.0
    eps = _DEGREE_EPS * max(abs(y), abs(a), 1.0)
    if abs(y) > eps:
        pairs = _cubic_roots(y, a)
    elif a > eps:
        # On the x-axis: a p^2 = 1.
        s = math.sqrt(a)
        pairs = [(-s / a, 1), (1.0 / s, 1)]
    else:
        return RootSet(roots=(), multiplicities=())

    polished = [(_polish(y, a, r) if mult == 1 else r, mult) for r, mult in pairs]
    polished.sort(key=lambda rm: rm[0])
    return RootSet(
        roots=tuple(r + 0.0 for r, _ in polished),  # normalizes -0.0
        multiplicities=tuple(m for _, m in polished),
    )


def bracketed_root(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Root of f in [lo, hi] by the Illinois variant of false position,
    with bisection as the fallback (Dowell & Jarratt, BIT 11, 1971).

    Requires finite lo < hi and f(lo) * f(hi) <= 0.  Stops when the bracket
    width drops below ``tol``, or to two adjacent floats, and returns the
    endpoint with the smaller |f|.
    """
    lo, hi = _finite(lo, "lo"), _finite(hi, "hi")
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    fa = f(lo)
    fb = f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if (fa > 0.0) == (fb > 0.0):
        raise NoBracketError(f"no sign change on [{lo!r}, {hi!r}]")

    a, b = lo, hi
    # Illinois: the secant weighs the ends by wa and wb, and an end kept
    # twice in a row has its weight halved, which ends plain false
    # position's crawl toward a fixed end.  The sign tests and the
    # returned end use the true fa and fb.
    wa, wb = fa, fb
    kept = None
    # Bisection alone takes about 650 halvings to close a bracket 1e196
    # wide, so the cap covers the whole double range.
    for _ in range(2200):
        mid = 0.5 * (a + b)
        if b - a <= tol or not a < mid < b:
            break
        # Secant candidate, or bisection where it is not strictly inside
        # the bracket.  wb - wa is never 0: the end replaced last weighs
        # f(cand) != 0, and the other end's weight has the opposite sign
        # or has underflowed to 0.  Where it overflows, cand is b or nan.
        cand = b - wb * (b - a) / (wb - wa)
        if not a < cand < b:
            cand = mid
        fc = f(cand)
        if fc == 0.0:
            return cand
        if (fc > 0.0) == (fa > 0.0):
            a, fa, wa = cand, fc, fc
            if kept == "b":
                wb *= 0.5
            kept = "b"
        else:
            b, fb, wb = cand, fc, fc
            if kept == "a":
                wa *= 0.5
            kept = "a"
    return a if abs(fa) <= abs(fb) else b

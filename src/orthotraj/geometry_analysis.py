"""Geometric validation: line-curve crossings and the conic dichotomy.

Two families of checks live here.  ``intersections`` locates every
crossing of a family line with a trajectory curve in a parameter window
and flags the orthogonal one, the foot t = -m unless it is a cusp.
``classify_conic``/``is_parabola`` answer the degeneration claim from C:
the C = 0 member is the parabola y^2 = 4x, and every other is an
irreducible sextic (Farouki & Neff, CAGD 7, 1990).  ``conic_fit`` is the
evidence, exact in integers: the conic through five rational points of
member C is y^2 = 4x at C = 0, and misses a sixth point for every C != 0.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .core_model import Point, TrajectoryCurve, sample
from .errors import DegenerateInputError, DomainError
from .roots import bracketed_root

__all__ = [
    "IntersectionRecord",
    "ConicFit",
    "intersections",
    "fit_conic",
    "conic_fit",
    "classify_conic",
    "is_parabola",
]


class IntersectionRecord(NamedTuple):
    """One line-curve crossing.

    ``slope_product`` is m times the curve slope 1/t, never -0.0:
    ``math.inf`` at t = 0 (a vertical tangent) and nan at a cusp, where the
    curve has no slope.  ``orthogonal`` is True for the foot t = -m alone,
    unless the foot is a cusp.
    """

    t: float
    point: Point
    slope_product: float
    orthogonal: bool


def _side_of_extremum(m: float, C: float, v: float, d: float) -> int:
    """The sign of C - k at a critical point of k, where k = -(v + m^2)^(3/2)
    / d: (v, d) = (4, 4) at t = m/2 and (1, |m|) at t = 1/m.  Floats decide
    it outside 1e-14 |k|, well past the few ulps by which k rounds; inside,
    C < 0 and the sign is that of (v + m^2)^3 - d^2 C^2, compared exactly."""
    w = v + m * m
    k = -w * math.sqrt(w) / d  # an overflow to -inf goes the exact way
    gap = C - k
    if abs(gap) > 1e-14 * abs(k):
        return 1 if gap > 0.0 else -1
    v, m, C, d = map(Fraction, (v, m, C, d))
    gap = (v + m * m) ** 3 - (d * C) ** 2
    return (gap > 0) - (gap < 0)


def intersections(m: float, curve: TrajectoryCurve, t_min: float, t_max: float):
    """All crossings of the slope-m family line with ``curve`` for
    t in [t_min, t_max], sorted by t.

    The crossing function factors as

        y(t) - (m x(t) - 2m - m^3) = (t + m) h(t),
        h(t) = 2 + m^2 - m t + C / sqrt(1 + t^2),

    so the foot t = -m is returned exactly.  h sqrt(1 + t^2) = C - k(t),
    k(t) = (m t - 2 - m^2) sqrt(1 + t^2), is monotone between its critical
    points t = m/2 and t = 1/m (t = 0 for m = 0), so each piece of the
    window cut there holds one root of h iff the signs at its ends differ.
    The sign is the float one at a window end and the exact one at a
    critical point, and a 0 is a root.  The root is refined by bracketed
    false position, or is the critical end whose float h disagrees with
    its exact sign.  A root within 1e-12 of the foot (the foot cusp,
    C = -2 (1 + m^2)^(3/2)) merges into it.
    """
    m = float(m)
    if not math.isfinite(m):
        raise DomainError(f"m must be finite, got {m!r}")
    if not (t_min < t_max and math.isfinite(t_max - t_min)):
        raise DomainError(f"need a finite window t_min < t_max, got [{t_min!r}, {t_max!r}]")
    C = curve.C

    def h(t: float) -> float:
        # m (m - t), not m^2 - m t: that is inf - inf = nan for |m| > 1.3e154.
        return 2.0 + m * (m - t) + C / math.sqrt(1.0 + t * t)

    extrema = [(0.5 * m, 4.0, 4.0)] + ([(1.0 / m, 1.0, abs(m))] if m else [])
    ends = [(t, (f > 0.0) - (f < 0.0)) for t in (t_min, t_max) for f in [h(t)]]
    inner = [(c, _side_of_extremum(m, C, v, d)) for c, v, d in sorted(extrema) if t_min < c < t_max]
    cuts = [ends[0], *inner, ends[1]]
    roots = [t for t, s in cuts if s == 0]
    for (lo, s_lo), (hi, s_hi) in zip(cuts, cuts[1:]):
        if s_lo * s_hi < 0:
            if h(lo) * s_lo <= 0.0:
                roots.append(lo)
            elif h(hi) * s_hi <= 0.0:
                roots.append(hi)
            else:
                roots.append(bracketed_root(h, lo, hi, tol=1e-12))

    foot = -m + 0.0  # + 0.0 turns the foot of m = 0 into t = +0.0
    if t_min <= foot <= t_max:
        roots = [r for r in roots if abs(r - foot) > 1e-12] + [foot]
    roots.sort()

    records = []
    for t in roots:
        at = sample(curve, t)
        product = (m / t + 0.0 if t else math.inf) if at.regular else math.nan
        records.append(IntersectionRecord(t, at.point, product, t == -m and at.regular))
    return records


class ConicFit(NamedTuple):
    """The conic a x^2 + b xy + c y^2 + d x + e y + f = 0 through five points:
    ``coeffs`` (a, ..., f) over the one of largest magnitude, and
    ``residual``, the largest |F| / sum |terms| at the other points, 0 iff
    they lie on it.  Both are exact up to one rounding each, so a residual
    below the smallest subnormal reads 0.0, as for the member C = 5e-324."""

    coeffs: tuple
    residual: float

    def discriminant(self) -> float:
        a, b, c, _, _, _ = self.coeffs
        return b * b - 4.0 * a * c


def _det(rows) -> int:
    """The determinant of a square integer matrix by fraction-free Bareiss
    elimination (Math. Comp. 22, 1968): every division is exact."""
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _monomials(x: Fraction, y: Fraction) -> tuple:
    """(x^2, xy, y^2, x, y, 1) times d^2, d the common denominator: integers."""
    d = math.lcm(x.denominator, y.denominator)
    X, Y = int(x * d), int(y * d)
    return (X * X, X * Y, Y * Y, X * d, Y * d, d * d)


def fit_conic(points) -> ConicFit:
    """The conic through the first five of >= 6 finite (x, y) points, exactly.

    Each coordinate is taken as a ``Fraction``, and each coefficient is a
    signed 5x5 minor of the five points' rows, so F at a sixth point is the
    6x6 determinant of the six rows.  Four collinear or two equal points
    among the first five leave every minor 0: no unique conic.
    """
    try:
        pts = [(Fraction(x), Fraction(y)) for x, y in points]
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"points must be finite (x, y) pairs: {exc}") from None
    if len(pts) < 6:
        raise DegenerateInputError(f"need at least 6 points, got {len(pts)}")
    rows = [_monomials(x, y) for x, y in pts]
    minors = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in rows[:5]]) for j in range(6)]
    top = max(minors, key=abs)
    if not top:
        raise DegenerateInputError("the first five points fix no unique conic")
    residual = max(Fraction(abs(sum(terms)), sum(map(abs, terms)) or 1)
                   for row in rows[5:] for terms in [[k * v for k, v in zip(minors, row)]])
    return ConicFit(tuple(float(Fraction(k, top)) + 0.0 for k in minors), float(residual))


# (t, s) at t = 2u/(1 - u^2), u = n/7, where s = sqrt(1 + t^2) = (1 + u^2)/(1 - u^2).
_T_S = [(2 * u / (1 - u * u), (1 + u * u) / (1 - u * u))
        for u in (Fraction(n, 7) for n in (-5, -3, -2, 1, 2, 4))]


def conic_fit(curve: TrajectoryCurve) -> ConicFit:
    """``fit_conic`` of six rational points of member C, the evidence printed
    beside each conic verdict: y^2 = 4x with residual 0 at C = 0.  Their
    6x6 determinant is C (45C + 106) times a quintic irreducible over Q, so
    the residual is > 0 at every double C != 0 (-106/45, where two of the
    points meet at the member's double point, is no double)."""
    C = Fraction(curve.C)
    return fit_conic([(t * t - C / s, 2 * t + C * t / s) for t, s in _T_S])


def classify_conic(curve: TrajectoryCurve) -> str:
    """'parabola' for C = 0 (-0.0 too), 'non-conic' for every other C:
    member C != 0 is an irreducible sextic, whatever arc of it a fit sees."""
    return "parabola" if is_parabola(curve) else "non-conic"


def is_parabola(curve: TrajectoryCurve) -> bool:
    """True iff C = 0: only that member is the parabola y^2 = 4x."""
    return curve.C == 0.0

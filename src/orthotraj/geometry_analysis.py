"""Geometric validation: line-curve crossings and the conic dichotomy.

Two families of checks live here.  ``intersections`` locates every
crossing of a family line with a trajectory curve in a parameter window
and flags the orthogonal one, the foot t = -m unless it is a cusp.
``classify_conic``/``is_parabola`` answer the degeneration claim from C:
the C = 0 member is the parabola y^2 = 4x, and every other is an
irreducible sextic (Farouki & Neff, CAGD 7, 1990).  ``conic_fit`` is the
evidence: a quadratic form fits C = 0 to machine precision, and leaves
every C != 0 member a residual orders of magnitude above that.
"""

import math
from typing import NamedTuple

from .core_model import Point, TrajectoryCurve, curve_point, linspace, sample
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

    ``slope_product`` is m times the curve slope 1/t: ``math.inf`` at
    t = 0 (a vertical tangent) and nan at a cusp, where the curve has no
    slope.  ``orthogonal`` is True for the foot t = -m alone, unless the
    foot is a cusp.
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
    from fractions import Fraction

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
    a = 2.0 + m * m

    def h(t: float) -> float:
        return a - m * t + C / math.sqrt(1.0 + t * t)

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
        product = (m / t if t else math.inf) if at.regular else math.nan
        records.append(IntersectionRecord(t, at.point, product, t == -m and at.regular))
    return records


class ConicFit(NamedTuple):
    """Least-squares quadratic form a x^2 + b xy + c y^2 + d x + e y + f.

    ``coeffs`` is the unit-norm coefficient vector in the original
    coordinates; ``residual_rms`` is the fit residual in the internally
    scaled coordinates (zero mean, unit RMS radius).  The fit is evidence
    only: no verdict is read from it.
    """

    coeffs: tuple
    residual_rms: float

    def discriminant(self) -> float:
        a, b, c, _, _, _ = self.coeffs
        return b * b - 4.0 * a * c


def fit_conic(points) -> ConicFit:
    """Best-fit conic through >= 12 points in general position.

    The coefficient vector is the smallest right singular vector of the
    [x^2, xy, y^2, x, y, 1] design matrix built from pre-scaled
    coordinates; collinear input has no unique conic and is rejected.
    """
    import numpy as np

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError(f"points must be an (n, 2) array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DomainError("points must be finite")
    n = pts.shape[0]
    if n < 12:
        raise DegenerateInputError(f"need at least 12 points, got {n}")

    # An overflowing mean leaves inf in ``centered``, so r is inf as well.
    with np.errstate(over="ignore"):
        mean = pts.mean(axis=0)
        centered = pts - mean
        r = math.sqrt(float((centered**2).sum(axis=1).mean()))
    if not math.isfinite(r):
        raise DomainError("points too far apart for a conic fit: mean or RMS radius overflows")
    spread = np.linalg.svd(centered, compute_uv=False)
    if spread[1] <= 1e-10 * max(spread[0], 1e-300):
        raise DegenerateInputError("points are collinear")

    q = centered / r
    x = q[:, 0]
    y = q[:, 1]
    design = np.column_stack([x * x, x * y, y * y, x, y, np.ones(n)])
    _, sv, vt = np.linalg.svd(design, full_matrices=False)
    a, b, c, d, e, f = (float(v) for v in vt[-1])
    residual_rms = float(sv[-1]) / math.sqrt(n)

    # Map coefficients back to the original coordinates
    # (x' = (X - mx)/r, y' = (Y - my)/r) and renormalize.
    mx, my = float(mean[0]), float(mean[1])
    r2 = r * r
    coeffs = np.array(
        [
            a / r2,
            b / r2,
            c / r2,
            d / r - (2.0 * a * mx + b * my) / r2,
            e / r - (2.0 * c * my + b * mx) / r2,
            f - (d * mx + e * my) / r + (a * mx * mx + b * mx * my + c * my * my) / r2,
        ]
    )
    norm = float(np.linalg.norm(coeffs))
    if not math.isfinite(norm):
        raise DomainError("conic coefficients overflow in the original coordinates")
    coeffs /= norm
    if coeffs[int(np.argmax(np.abs(coeffs)))] < 0.0:
        coeffs = -coeffs
    return ConicFit(coeffs=tuple(float(v) for v in coeffs), residual_rms=residual_rms)


def conic_fit(curve: TrajectoryCurve) -> ConicFit:
    """``fit_conic`` of 200 samples of the curve over t in [-3, 3], the
    evidence printed beside each conic verdict on a family member."""
    return fit_conic([curve_point(curve, t) for t in linspace(-3.0, 3.0, 200)])


def classify_conic(curve: TrajectoryCurve) -> str:
    """'parabola' for C = 0 (-0.0 too), 'non-conic' for every other C:
    member C != 0 is an irreducible sextic, whatever arc of it a fit sees."""
    return "parabola" if is_parabola(curve) else "non-conic"


def is_parabola(curve: TrajectoryCurve) -> bool:
    """True iff C = 0: only that member is the parabola y^2 = 4x."""
    return curve.C == 0.0

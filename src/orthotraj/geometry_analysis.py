"""Geometric validation: line-curve crossings and the conic dichotomy.

Two families of checks live here.  ``intersections`` locates every
crossing of a family line with a trajectory curve in a parameter window
and flags the orthogonal one, the foot t = -m unless it is a cusp.
``fit_conic``/``is_parabola`` quantify the degeneration claim: the C = 0
member is the parabola y^2 = 4x and fits a quadratic form to machine
precision, while every C != 0 member leaves a conic residual orders of
magnitude above it.
"""

import functools
import math
from dataclasses import dataclass

from .core_model import Point, TrajectoryCurve, curve_point, sample
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

_SCAN_POINTS = 10_000       # sign-scan resolution over the t-window
_DEDUPE_TOL = 1e-8          # crossings closer than this merge into one
_CONIC_ACCEPT = 1e-8        # residual at or below: the samples lie on a conic
_CONIC_REJECT = 1e-3        # residual at or above: definitely not a conic
_PARABOLA_DISC_TOL = 1e-6   # |b^2 - 4ac| tolerance relative to |(a,b,c)|^2


@dataclass(frozen=True)
class IntersectionRecord:
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


@functools.lru_cache(maxsize=8)
def _scan_grid(t_min: float, t_max: float):
    """The read-only scan nodes ts over [t_min, t_max] and sqrt(1 + ts^2),
    built once per window.  numpy loads here, at the first scan, not on
    import."""
    import numpy as np

    ts = np.linspace(t_min, t_max, _SCAN_POINTS)
    # Past |t| = 1.3e154, ts * ts overflows to inf, and C / inf = 0 is the
    # limit of C / sqrt(1 + t^2) there.
    with np.errstate(over="ignore"):
        s = np.sqrt(1.0 + ts * ts)
    ts.flags.writeable = False
    s.flags.writeable = False
    return ts, s


def intersections(m: float, curve: TrajectoryCurve, t_min: float, t_max: float):
    """All crossings of the slope-m family line with ``curve`` for
    t in [t_min, t_max], sorted by t.

    The crossing function factors as

        y(t) - (m x(t) - 2m - m^3) = (t + m) h(t),
        h(t) = 2 + m^2 - m t + C / sqrt(1 + t^2),

    so the foot t = -m is returned exactly.  The roots of h come from a
    sign scan on 10^4 grid nodes (a node where h is 0 counts), refined by
    bracketed false position; roots within 1e-8 merge, the foot winning.
    The nodes and their sqrt(1 + t^2) are built once per window and
    shared by every call on that window.
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

    # The cache keys -0.0 and 0.0 alike; + 0.0 gives both the same last node.
    ts, s = _scan_grid(t_min, t_max + 0.0)
    vals = a - m * ts + C / s
    roots = [float(t) for t in ts[vals == 0.0]]
    neg = vals < 0.0
    for i in (neg[:-1] != neg[1:]).nonzero()[0]:
        # One end is negative; a 0 or nan at the other is no sign change.
        if vals[i] > 0.0 or vals[i + 1] > 0.0:
            roots.append(bracketed_root(h, float(ts[i]), float(ts[i + 1]), tol=1e-12))

    foot = -m + 0.0  # + 0.0 turns the foot of m = 0 into t = +0.0
    if t_min <= foot <= t_max:
        roots = [r for r in roots if abs(r - foot) > _DEDUPE_TOL]
        roots.append(foot)
    roots.sort()
    merged = []
    for r in roots:
        if merged and abs(r - merged[-1]) <= _DEDUPE_TOL:
            continue
        merged.append(r)

    records = []
    for t in merged:
        at = sample(curve, t)
        product = (m / t if t else math.inf) if at.regular else math.nan
        records.append(IntersectionRecord(t, at.point, product, t == -m and at.regular))
    return records


@dataclass(frozen=True)
class ConicFit:
    """Least-squares quadratic form a x^2 + b xy + c y^2 + d x + e y + f.

    ``coeffs`` is the unit-norm coefficient vector in the original
    coordinates; ``residual_rms`` is the fit residual in the internally
    scaled coordinates (zero mean, unit RMS radius), which is what the
    accept/reject thresholds refer to.
    """

    coeffs: tuple
    residual_rms: float

    def discriminant(self) -> float:
        a, b, c, _, _, _ = self.coeffs
        return b * b - 4.0 * a * c

    def classify(self) -> str:
        """'parabola', 'other-conic', 'non-conic' or 'inconclusive'.

        The residual thresholds are two-sided (accept <= 1e-8, reject >=
        1e-3); residuals in between are reported as inconclusive rather
        than coerced to either side.
        """
        if self.residual_rms <= _CONIC_ACCEPT:
            # Scaled to a largest magnitude of 1, so that tiny quadratic
            # coefficients (huge curves) neither underflow nor vanish.
            k = max(abs(v) for v in self.coeffs[:3])
            if k == 0.0:
                return "other-conic"  # no quadratic part: a line
            a, b, c = (v / k for v in self.coeffs[:3])
            if abs(b * b - 4.0 * a * c) <= _PARABOLA_DISC_TOL * (a * a + b * b + c * c):
                return "parabola"
            return "other-conic"
        if self.residual_rms >= _CONIC_REJECT:
            return "non-conic"
        return "inconclusive"


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
    one sampling behind every conic verdict on a family member."""
    import numpy as np

    return fit_conic([curve_point(curve, t) for t in np.linspace(-3.0, 3.0, 200)])


def classify_conic(curve: TrajectoryCurve) -> str:
    """``ConicFit.classify`` of ``conic_fit(curve)``."""
    return conic_fit(curve).classify()


def is_parabola(curve: TrajectoryCurve) -> bool:
    """True iff 200 default samples of the curve fit a parabola."""
    return classify_conic(curve) == "parabola"

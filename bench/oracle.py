"""The benchmark's own output checks, computed from the closed forms.

Nothing here calls ``orthotraj.verification``: a check that reused the
library's suites would share their blind spots.  Each check returns
``None`` when the output is right, else a short reason.  ``known_*``
says whether a failure belongs to a defect the seed already has (so
the run still reports it, but does not call the program broken).
"""

import math

from inputs import GEOMETRY_WINDOW, curve_xy, k_of

# Relative residual a returned slope must meet on the monic q-cubic.
FIELD_RESIDUAL = 1e-9
# A trace sample must lie this close to the closed-form curve.
TRACE_DEVIATION = 1e-5
# A root of h this close to the foot t = -m is the foot itself.
FOOT_MATCH = 1e-9
# Node spacing of the library's 10^4-point sign scan over the window:
# two crossings closer than this can fall in one cell and be missed.
SCAN_CELL = (GEOMETRY_WINDOW[1] - GEOMETRY_WINDOW[0]) / 9999


def field_root_count(x, y):
    """Distinct real slopes at (x, y), from the sign of the discriminant
    4 (x - 2)^3 - 27 y^2 of q^3 - (x - 2) q - y (q = 1/p)."""
    return 3 if 4.0 * (x - 2.0) ** 3 - 27.0 * y * y > 0.0 else 1


def check_slopes(x, y, roots, want_count):
    """Check a ``slopes_at`` root tuple against the q-form."""
    if len(roots) != want_count:
        return f"root-count: {len(roots)}, want {want_count}"
    for p in roots:
        if p == 0.0 or not math.isfinite(p):
            return f"bad-root: {p!r}"
        q = 1.0 / p
        scale = abs(q) ** 3 + abs(x - 2.0) * abs(q) + abs(y)
        if not abs(q * q * q - (x - 2.0) * q - y) <= FIELD_RESIDUAL * scale:
            return f"residual: root {p!r}"
    return None


def known_root_loss(x, y):
    """The seed's near-axis root loss: y, the slope cubic's leading
    coefficient, is small against the scale of (x - 2)."""
    return abs(y) <= 1e-3 * max(1.0, abs(x - 2.0)) ** 1.5


def _bisect(f, a, b):
    fa = f(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid in (a, b):
            break
        fm = f(mid)
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def crossing_roots(m, C, lo, hi):
    """Distinct t in [lo, hi] where the slope-m line meets the member C,
    with a flag for tangential ones.

    y(t) - (m x(t) - 2m - m^3) = (t + m) h(t), and h(t) = 0 exactly where
    k(t) = C.  k' has the numerator 2m t^2 - (2 + m^2) t + m, whose roots
    are t = m/2 and t = 1/m, so k is monotone between them and each piece
    holds at most one root.
    """
    cuts = sorted({lo, hi} | {c for c in (0.5 * m, 1.0 / m) if lo < c < hi})

    def d(t):
        v = k_of(m, t) - C
        return 0.0 if abs(v) <= 1e-12 * max(1.0, abs(C)) else v

    vals = [d(t) for t in cuts]
    roots = [(t, lo < t < hi) for t, v in zip(cuts, vals) if v == 0.0]
    for (a, va), (b, vb) in zip(zip(cuts, vals), zip(cuts[1:], vals[1:])):
        if va * vb < 0.0:
            roots.append((_bisect(d, a, b), False))
    if lo <= -m <= hi and all(abs(t + m) > FOOT_MATCH for t, _ in roots):
        roots.append((-m, False))
    return sorted(roots)


def check_geometry(m, C, foot, records, oracle):
    """Check one ``orthogonal_foot`` + ``intersections`` result.

    Returns (reason, known): ``known`` is True when every crossing that
    is missed or claimed twice is a tangency or lies within one scan cell
    of another crossing, the blind spot of the library's sign scan.
    """
    if foot.t != -m:
        return f"foot: t={foot.t!r}, want {-m!r}", False
    fx, fy = foot.point
    if abs(fy - (m * fx - 2.0 * m - m ** 3)) > 1e-9 * max(1.0, abs(fy)):
        return "foot: off the line", False
    claims = [0] * len(oracle)
    for r in records:
        x, y = curve_xy(C, r.t)
        line = m * x - 2.0 * m - m ** 3
        if abs(y - line) > 1e-9 * (1.0 + abs(y) + abs(line)):
            return f"off-line: t={r.t!r}", False
        # Each record claims the oracle root nearest to it.  Near a
        # tangency the residual test cannot tell a crossing from a point
        # between two close ones; that shows as one crossing claimed twice.
        i = min(range(len(oracle)), key=lambda j: abs(oracle[j][0] - r.t))
        claims[i] += 1
        if r.orthogonal != (oracle[i][0] == -m):
            return f"orthogonal-flag: t={r.t!r}", False
    wrong = [i for i, n in enumerate(claims) if n != 1]
    if not wrong:
        return None, False
    known = all(
        tangent or sum(abs(t - u) < SCAN_CELL for u, _ in oracle) > 1
        for t, tangent in (oracle[i] for i in wrong)
    )
    kind = "missed-crossing" if 0 in claims else "duplicate-record"
    return f"{kind}: {len(records)} records for {len(oracle)} crossings", known


def trace_arc(samples):
    """Arc length of a trace, as the sum of its sample chords."""
    return sum(
        math.hypot(b[0].x - a[0].x, b[0].y - a[0].y) for a, b in zip(samples, samples[1:])
    )


def check_trace(x0, y0, p0, tol, samples):
    """Every sample within 1e-5 of the closed-form member through the
    start, and the q-form invariant G(x, q) = (q^2 - x) sqrt(1 + q^2)
    within 10 tol of its start value.

    The member is C = G(x0, 1/p0).  On it the slope at parameter t is 1/t,
    so a sample (x, y, p) should sit at the curve point of t = 1/p; that
    distance equals, to first order, the distance between the members.
    """
    q0 = 1.0 / p0
    C = (q0 * q0 - x0) * math.sqrt(1.0 + q0 * q0)
    worst_dev = worst_drift = 0.0
    for pt, p in samples:
        if p == 0.0 or not math.isfinite(p):
            return f"zero-slope: {p!r}"
        q = 1.0 / p
        cx, cy = curve_xy(C, q)
        worst_dev = max(worst_dev, math.hypot(pt.x - cx, pt.y - cy))
        worst_drift = max(worst_drift, abs((q * q - pt.x) * math.sqrt(1.0 + q * q) - C))
    if not worst_dev <= TRACE_DEVIATION:
        return f"deviation: {worst_dev:.3e}"
    if not worst_drift <= 10.0 * tol:
        return f"drift: {worst_drift:.3e}"
    return None


def known_cusp_drift(reason, end_reasons):
    """The seed's drift near cusps: a trace that runs into a cusp (an end
    reads ``singularity``) can drift up to about 1.3e-7 > 10 tol, most of
    all when it starts within about 1e-3 of the cusp."""
    return reason is not None and reason.startswith("drift") and "singularity" in end_reasons

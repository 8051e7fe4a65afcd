"""Tracing orthogonal trajectories from the implicit ODE, on the closed form.

The admissible slopes are the real roots of y p^3 + (x - 2) p^2 - 1 = 0.
In q = 1/p = dx/dy this is the monic cubic q^3 - (x - 2) q - y = 0 of
the parabola's normals, and on member C the root q is the curve
parameter t of the closed form.  ``slopes_at`` solves the cubic once,
for the start root q0; the start's normal offset
(q0 (y0 - q0) - x0) / sqrt(1 + q0^2) from the parabola point (q0^2, 2 q0)
is its member C, the parabola's offset curve at distance C (see
``core_model``).  From there on the trace is member C's closed form in q:
with s = sqrt(1 + q^2),

    x(q) = q^2 - C / s,          y(q) = 2 q + C q / s,
    ds/dq = 2 s + C / s^2,       A(q) = q s + asinh q + C atan q,

where ds/dq is the signed speed and A the signed arc.  The speed changes
sign only at the cusps of C (``cusp_parameters``, a pair for C < -2;
C = -2's one cusp t = 0 is no cut, as the speed only touches 0 there),
so A is monotone on the pieces between them.

Each leg walks q from q0, one each way.  Its end comes first: the leg
takes the pieces ahead of q0 in turn, and the piece whose arc holds the
rest of the budget (past the last cusp, a q range doubled until it does)
holds the end, placed by ``bracketed_root`` on the arc difference.  Arc
differences are taken in forms that do not cancel, so an end lies on the
budget at any |q| (``_arc``).  The samples are then laid from q0 to the
end in blocks, each block's last sample on its end, so every cusp is a
sample.  A block's samples are equally spaced in q by 2 ``step`` over the
largest speed in the block, which lies at one of its ends, or at q = 0
when the block straddles it; so no chord exceeds 2 ``step``.  Each sample
is the closed-form point of its q, with slope p = 1/q, and no sample sits
at q = 0 (p = +-inf) unless the start does.  The drift is the largest
|(q (y - q) - x) / s - C| over the samples: the normal offset, exactly C
on member C, so the drift is the rounding of the samples alone.

A trace ends where each leg spends its arc budget: ``arc-limit``.
"""

import math
from typing import NamedTuple, Optional

from .core_model import Point, TrajectoryCurve, _new, cusp_parameters, linspace
from .errors import DomainError, NoBranchError
from .roots import bracketed_root, slopes_at

__all__ = ["TraceConfig", "TraceResult", "trace_orthogonal"]

# How far ``_leg`` lets a block run where the speed changes slowly: its
# spacing, set by the block's largest speed, then stays near the spacing
# the speed at each of its samples would allow.
_BLOCK_SAMPLES = 64
_BLOCK_GROWTH = 0.2


class _TraceFields(NamedTuple):
    start: Optional[Point] = None
    initial_slope_hint: Optional[float] = None
    step: float = 1e-2
    max_arc: float = 50.0
    tol: float = 1e-8


class TraceConfig(_TraceFields):
    """Parameters of one trace.

    ``step`` is half the largest sample spacing: samples lie at most
    2 ``step`` of arc apart; ``max_arc`` is the arc budget per direction.
    ``tol`` is validated but has no effect, since the samples are closed-
    form points; it stays while callers still pass it, as the benchmark's
    ``trace`` workload does.  All three are finite and positive.  The arc
    budget alone bounds a trace: it has no box.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("step", "max_arc", "tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {value!r}")
        hint = self.initial_slope_hint
        if hint is not None and not math.isfinite(hint):
            raise DomainError(f"initial_slope_hint must be finite, got {hint!r}")
        return self


class TraceResult(NamedTuple):
    """Ordered samples of one traced trajectory.

    ``samples`` holds (Point, p) pairs in geometric order along the
    curve, p = dy/dx = 1/q; the start point sits between the two traced
    directions.
    ``end_reasons`` gives the termination reason of the (backward,
    forward) ends, the trace's one record of how each leg ended; both
    read ``arc-limit``, as each leg spends its arc budget.
    ``potential_drift`` is max |F - C| over all samples of the normal
    offset F = (q (y - q) - x) / sqrt(1 + q^2), q = 1/p, which equals C
    all along member C.
    """

    samples: list
    potential_drift: float = 0.0
    end_reasons: tuple = ("arc-limit", "arc-limit")


def _arc(C: float, a: float, b: float) -> float:
    """The signed arc A(b) - A(a) of member C.

    For a and b on one side of 0 each part of A is differenced in a form
    that does not cancel: b s_b - a s_a = (b - a)(b + a)(1 + a^2 + b^2) /
    (b s_b + a s_a), asinh b - asinh a = asinh((b - a)(b + a) /
    (b s_a + a s_b)) and atan b - atan a = atan((b - a) / (1 + a b));
    otherwise the arc is split at 0.  The first part's sums are halved,
    exactly, so that they stay finite wherever q^2 does.
    """
    if a == b:
        return 0.0
    if a * b < 0.0:
        return _arc(C, a, 0.0) + _arc(C, 0.0, b)
    sa, sb = math.sqrt(1.0 + a * a), math.sqrt(1.0 + b * b)
    dm = (b - a) * (b + a)
    return (dm / (0.5 * b * sb + 0.5 * a * sa) * (0.5 + 0.5 * a * a + 0.5 * b * b)
            + math.asinh(dm / (b * sa + a * sb)) + C * math.atan((b - a) / (1.0 + a * b)))


def _speed(C: float, q: float) -> float:
    """|ds/dq| = |2 s + C / s^2| of member C at q."""
    s = math.sqrt(1.0 + q * q)
    return abs(2.0 * s + C / (s * s))


def _leg(C: float, q0: float, sigma: float, cuts: list, step: float, budget: float):
    """The samples after q0 of the leg that walks q in the direction
    sigma = +-1 until it spends ``budget`` of arc, and their drift."""
    ahead = sorted((c for c in cuts if sigma * (c - q0) > 0.0), key=lambda c: sigma * c)
    # Each piece ends on a cusp, and the last on the leg's end.
    ends, a, rest = [], q0, budget
    for c in ahead:
        arc = abs(_arc(C, a, c))
        if arc >= rest:
            break
        ends.append(c)
        a, rest = c, rest - arc
    else:
        w = 1.0
        while abs(_arc(C, a, a + sigma * w)) < rest:
            w *= 2.0
        c = a + sigma * w
    lo, hi = sorted((a, c))
    ends.append(bracketed_root(lambda q: abs(_arc(C, a, q)) - rest, lo, hi, tol=0.0))

    spacing = 2.0 * step
    out, drift = [], 0.0
    # Locals: the sample loop reads them once per sample.
    sqrt, new, append = math.sqrt, _new, out.append
    u, vu = q0, _speed(C, q0)
    for b in ends:
        while u != b:
            # The block [u, w] is d long in q: one sample's arc under the
            # speed's first-order growth vu + g |q - u|, g = |dv/dq| at u, so
            # a block from a cusp, where vu = 0, holds about one sample;
            # where the speed changes slowly, until it grows by
            # _BLOCK_GROWTH to first order or holds _BLOCK_SAMPLES samples.
            s = sqrt(1.0 + u * u)
            g = abs((2.0 - 2.0 * C / (s * s * s)) * u / s)
            d = 2.0 * spacing / (vu + sqrt(vu * vu + 2.0 * g * spacing))
            if _BLOCK_GROWTH * vu > g * d:
                d = _BLOCK_SAMPLES * spacing / vu
                if g * d > _BLOCK_GROWTH * vu:
                    d = _BLOCK_GROWTH * vu / g
            # A block spans at least one ulp of u, so that the walk moves on.
            w = u + sigma * max(d, math.ulp(u))
            if sigma * (w + (w - u) - b) >= 0.0:  # no sliver of a block before b
                w = b
            vw = _speed(C, w)
            vmax = max(vu, vw, abs(2.0 + C) if u * w < 0.0 else 0.0)  # the speed at q = 0
            n = max(1, math.ceil(vmax * abs(w - u) / spacing))
            nodes = linspace(u, w, n + 1)
            if u * w < 0.0 and 0.0 in nodes:  # p = 1/q must stay finite
                nodes = linspace(u, w, n + 2)
            for q in nodes[1:]:
                s = sqrt(1.0 + q * q)
                x = q * q - C / s
                y = 2.0 * q + C * (q / s)
                append((new(Point, (x, y)), 1.0 / q))
                f = abs((q * (y - q) - x) / s - C)
                if f > drift:
                    drift = f
            u, vu = w, vw
    return out, drift


def trace_orthogonal(cfg: TraceConfig) -> TraceResult:
    """Trace the orthogonal trajectory through ``cfg.start``.

    The starting slope is the cubic root nearest ``initial_slope_hint``,
    however far; no hint is the hint 0, whose nearest root is the one of
    smallest magnitude.  The trace then extends in both directions until
    each spends its arc budget.
    """
    if cfg.start is None:
        raise DomainError("TraceConfig.start is required")
    x0, y0 = float(cfg.start[0]), float(cfg.start[1])
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise DomainError(f"start must be finite, got ({x0!r}, {y0!r})")
    rs = slopes_at(x0, y0)
    if not rs.roots:
        raise NoBranchError(f"no real slope at start ({x0!r}, {y0!r})")
    hint = float(cfg.initial_slope_hint or 0.0)
    p0 = min(rs.roots, key=lambda r: abs(r - hint))
    # ``slopes_at`` can return p = 0 or a spurious root next to the x-axis
    # (at (0, -1e-6) it adds p = 1.1e-6, with a relative residual of about
    # 1), so q0 must solve the q-cubic, checked over q as C is formed over
    # s: neither overflows where it is finite.  nan and inf fail.
    q0 = 1.0 / p0 if p0 else math.nan
    a0, b0 = x0 - 2.0, y0 / q0
    r0 = q0 * q0 - a0 - b0
    if not (math.isfinite(r0) and abs(r0) <= 1e-9 * (q0 * q0 + abs(a0) + abs(b0))):
        raise NoBranchError(f"slope {p0!r} at ({x0!r}, {y0!r}) does not solve the slope cubic")
    s0 = math.sqrt(1.0 + q0 * q0)
    C = q0 / s0 * (y0 - q0) - x0 / s0
    # Forward is +x: the sign of dx/dq = q D / (1 + q^2), D = 3 q^2 + 2 - x,
    # at the start, or of q0 at a cusp start, where D = 0.
    orient = math.copysign(1.0, q0 * (3.0 * q0 * q0 + 2.0 - x0) or q0)
    cuts = [t for t in cusp_parameters(TrajectoryCurve(C)) if t]
    (back, d_back), (fwd, d_fwd) = [
        _leg(C, q0, sigma, cuts, cfg.step, cfg.max_arc) for sigma in (-orient, orient)
    ]
    start = (_new(Point, (x0, y0)), p0)
    return TraceResult(samples=back[::-1] + [start] + fwd, potential_drift=max(d_back, d_fwd))

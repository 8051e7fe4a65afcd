"""Numerical tracing of orthogonal trajectories from the implicit ODE.

The admissible slopes are the real roots of y p^3 + (x - 2) p^2 - 1 = 0.
In q = 1/p = dx/dy this is the monic cubic q^3 - (x - 2) q - y = 0 of
the parabola's normals, and on member C the root q is the curve
parameter t of the closed form.  Differentiating the cubic along a
solution, where dy = dx / q, gives with D = 3 q^2 + 2 - x the explicit ODE

    dx/dq = q D / (1 + q^2),   dy/dq = D / (1 + q^2),
    ds/dq = D / sqrt(1 + q^2),

where s is the signed arc: the arc length is |ds| while D keeps its sign.
All three are smooth everywhere: the vertex (q = 0) is a plain point,
and at a cusp (D = 0, on the evolute 27 y^2 = 4 (x - 2)^3) only the
signed speed ds/dq changes sign, so a trace runs through both.
``slopes_at`` solves the cubic once, for the start root; no root is
solved after that.  The drift monitor, the normal offset
(q (y - q) - x) / sqrt(1 + q^2) of (x, y) from the parabola point
(q^2, 2q), equals C all along member C, the parabola's offset curve at
distance C (see ``core_model``).

One stepper, ``_march``, integrates every trace: Dormand-Prince 5(4)
Runge-Kutta steps (DOPRI5) of d(x, y, s)/dtau = rhs(tau, x, y), sized
by ``tol`` alone, with the local error of x and y bounded per unit of
arc budget (s stays out of the error test).  The step's sign carries
the direction, so ``rhs`` and the sample maker ``emit`` are functions
of the curve alone, and one march runs each direction from the start
point.  As q is the member's own parameter t, its cusps are known
before the first step, ``cusp_parameters(C)``; a step that would pass
one lands on it, so the signed speed keeps its sign inside a step and
the step's arc is |ds|.  The samples come from the method's continuous
extension, at most 2 ``step`` of arc apart, and ``_locate`` bisects that
extension where the last step is cut short on the arc budget.  So each
end that spends its budget lies on it.  The tracer's ``emit`` makes each
sample once, in its final (Point, p) form, and returns its conserved
quantity for the drift.
``trace_orthogonal`` marches in tau = q and returns slopes p = 1/q
(+-inf where q = 0).  ``trace_classic`` marches one of three textbook
orthogonal-trajectory fields in tau = s and reports the drift of its
exact conserved quantity.

Termination reasons:

    arc-limit    the arc-length budget was spent
    step-limit   the march used up its _MAX_STEPS step attempts
    singularity  the smallest step, |dtau| = 1e-6, could not follow the
                 field, as next to a classic fixture's singular point
"""

import math
import sys
from typing import NamedTuple, Optional

from .core_model import Point, TrajectoryCurve, cusp_parameters
from .errors import DomainError, NoBranchError
from .roots import slopes_at

__all__ = ["TraceConfig", "TraceResult", "trace_orthogonal", "trace_classic"]

# Dormand-Prince 5(4) tableau (DOPRI5): the nodes of stages 2-7 and their
# rows.  The last row is the 5th-order solution, so stage 7 is rhs at the
# step's end and the next step's stage 1.  _E = b5 - b4 weighs the
# stages of the error estimate, _D those of the 4th-order continuous
# extension (Hairer, Norsett & Wanner, Solving ODEs I, II.5-II.6).
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_D = (
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)

_H_MIN = 1e-6           # the smallest |dtau| that error control tries
_MAX_STEPS = 300_000
_SEVERITY = {"arc-limit": 0, "step-limit": 1, "singularity": 2}


class _TraceFields(NamedTuple):
    start: Optional[Point] = None
    initial_slope_hint: Optional[float] = None
    step: float = 1e-2
    max_arc: float = 50.0
    tol: float = 1e-8


class TraceConfig(_TraceFields):
    """Integration parameters for one trace.

    ``step`` is the arc of the first step and half the sample spacing:
    samples lie at most 2 ``step`` of arc apart; ``max_arc`` is the arc
    budget per direction; ``tol`` bounds the local error of x and y
    summed over one direction's arc budget, and alone sets the step
    sizes, down to the rounding of x and y.  All three are finite and
    positive.  The arc budget alone bounds a trace: it has no box.
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
    curve, p = +-inf at a vertical tangent; the start point sits between
    the two traced directions.
    ``end_reasons`` gives the termination reason of the (backward,
    forward) ends and ``terminated_by`` the more severe of the two.
    ``potential_drift`` is max |F - F0| over all samples of the conserved
    quantity: the normal offset (q (y - q) - x) / sqrt(1 + q^2) = C,
    q = 1/p, for the main family, the first integral for classic traces.
    """

    samples: list
    terminated_by: str = "arc-limit"
    potential_drift: float = 0.0
    end_reasons: tuple = ("arc-limit", "arc-limit")


def _rk_step(rhs, t: float, x: float, y: float, k0: tuple, h: float):
    """One Dormand-Prince step from (t, x, y), where k0 = rhs(t, x, y).

    Returns (x5, y5, ds, err, us, vs, ws): the 5th-order x, y and arc
    increment, the larger error estimate of x and y, and the x, y and s
    parts of the seven stages, the last at (t + h, x5, y5).  Each sum
    adds the tableau's nonzero terms from left to right.
    """
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), a5, b = _A
    (a50, a51, a52, a53, a54), (b0, _, b2, b3, b4, b5) = a5, b
    (c1, c2, c3, c4, c5, c6), (e0, _, e2, e3, e4, e5, e6) = _C, _E
    u0, v0, w0 = k0
    u1, v1, w1 = rhs(t + c1 * h, x + h * a10 * u0, y + h * a10 * v0)
    u2, v2, w2 = rhs(t + c2 * h, x + h * a20 * u0 + h * a21 * u1, y + h * a20 * v0 + h * a21 * v1)
    xs = x + h * a30 * u0 + h * a31 * u1 + h * a32 * u2
    ys = y + h * a30 * v0 + h * a31 * v1 + h * a32 * v2
    u3, v3, w3 = rhs(t + c3 * h, xs, ys)
    xs = x + h * a40 * u0 + h * a41 * u1 + h * a42 * u2 + h * a43 * u3
    ys = y + h * a40 * v0 + h * a41 * v1 + h * a42 * v2 + h * a43 * v3
    u4, v4, w4 = rhs(t + c4 * h, xs, ys)
    xs = x + h * a50 * u0 + h * a51 * u1 + h * a52 * u2 + h * a53 * u3 + h * a54 * u4
    ys = y + h * a50 * v0 + h * a51 * v1 + h * a52 * v2 + h * a53 * v3 + h * a54 * v4
    u5, v5, w5 = rhs(t + c5 * h, xs, ys)
    xs = x + h * b0 * u0 + h * b2 * u2 + h * b3 * u3 + h * b4 * u4 + h * b5 * u5
    ys = y + h * b0 * v0 + h * b2 * v2 + h * b3 * v3 + h * b4 * v4 + h * b5 * v5
    u6, v6, w6 = rhs(t + c6 * h, xs, ys)
    ds = h * b0 * w0 + h * b2 * w2 + h * b3 * w3 + h * b4 * w4 + h * b5 * w5
    ex = h * e0 * u0 + h * e2 * u2 + h * e3 * u3 + h * e4 * u4 + h * e5 * u5 + h * e6 * u6
    ey = h * e0 * v0 + h * e2 * v2 + h * e3 * v3 + h * e4 * v4 + h * e5 * v5 + h * e6 * v6
    us, vs = (u0, u1, u2, u3, u4, u5, u6), (v0, v1, v2, v3, v4, v5, v6)
    return xs, ys, ds, max(abs(ex), abs(ey)), us, vs, (w0, w1, w2, w3, w4, w5, w6)


def _dense(u0: float, u1: float, h: float, ks: tuple) -> tuple:
    """The continuous extension over a step from u0 to u1 of a component
    with stages ``ks``, as (u0, r1, r2, r3, r4) for ``_at``."""
    k0, _, k2, k3, k4, k5, k6 = ks
    d0, _, d2, d3, d4, d5, d6 = _D
    r1 = u1 - u0
    r2 = h * k0 - r1
    r3 = r1 - h * k6 - r2
    return u0, r1, r2, r3, h * (d0 * k0 + d2 * k2 + d3 * k3 + d4 * k4 + d5 * k5 + d6 * k6)


def _at(poly: tuple, th: float) -> float:
    """The continuous extension ``poly`` at the step fraction th."""
    u0, r1, r2, r3, r4 = poly
    th1 = 1.0 - th
    return u0 + th * (r1 + th1 * (r2 + th * (r3 + th1 * r4)))


def _locate(ok) -> float:
    """The step fraction where ``ok`` turns false, from 0 (true) towards
    1 (false), by 52 bisections: where the last step is cut short on the
    arc budget.  Returns the last fraction found true."""
    lo, hi = 0.0, 1.0
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _march(cfg: TraceConfig, x, y, rhs, t, sigma, emit, cuts=()):
    """Integrate d(x, y, s)/dt = rhs(t, x, y) from (x, y) at arc 0 in the
    direction sigma = +-1 of t, making each sample once; returns the
    samples, end reason and drift.

    h has the sign sigma and rhs's third component is the signed speed.
    A step that would pass the next of the sorted ``cuts``, the t where
    that speed changes sign, lands on the cut exactly, so a step's arc is
    |ds|.  ``emit(out, t, x, y)`` appends the (Point, p) sample at
    (t, x, y) to ``out`` and returns its conserved quantity F; the start
    is the first sample, and the drift is max |F - F0| over the samples.
    A step is accepted when the error of x and y is at most
    tol min(arc, arc left) / max_arc, so the local errors over the arc
    budget sum to at most tol, or at most the rounding eps (|x| + |y|);
    otherwise h is halved, down to _H_MIN.  After an accepted step |h| is
    capped at 1.1 (arc left) over the speed.  Samples come from the
    continuous extension (``_at``, inlined), equally spaced in t, at most
    2 ``step`` of arc apart; a full step ends on its accepted point.
    ``_locate`` cuts the last step short on the arc budget, and the cut is
    the end sample.
    """
    # Locals: the step loop reads them often, and a local is cheaper than a tuple field.
    step, max_arc, tol = cfg.step, cfg.max_arc, cfg.tol
    out = []
    f0 = emit(out, t, x, y)
    drift = arc = 0.0
    k0 = rhs(t, x, y)
    # At a cusp start the speed k0[2] is 0: try one step of t.
    h = sigma * (step / abs(k0[2]) if k0[2] else step)
    ahead = sorted((c for c in cuts if sigma * (c - t) > 0.0), key=lambda c: sigma * c)
    for _ in range(_MAX_STEPS):
        tn = t + h
        if ahead and sigma * (tn - ahead[0]) >= 0.0:  # land on the next cut, never across it
            tn, h = ahead[0], ahead[0] - t
        xn, yn, ds, err, us, vs, ws = _rk_step(rhs, t, x, y, k0, h)
        _, xr1, xr2, xr3, xr4 = _dense(x, xn, h, us)
        _, yr1, yr2, yr3, yr4 = _dense(y, yn, h, vs)
        da = abs(ds)
        left = max_arc - arc
        bound = tol * min(da, left) / max_arc
        if not err <= bound:  # nan fails too
            # No step size takes the error below the rounding of x and y.
            bound = max(bound, sys.float_info.epsilon * (abs(xn) + abs(yn)))
            if not err <= bound:
                if abs(h) < _H_MIN:
                    return out, "singularity", drift
                h *= 0.5
                continue
        end = 1.0
        if arc + da >= max_arc:
            # Land on the budget: where the arc of the dense s reaches left.
            sp = _dense(0.0, ds, h, ws)
            end = _locate(lambda u: abs(_at(sp, u)) < left)
        n = max(1, math.ceil(max(map(abs, ws)) * end * abs(h) / (2.0 * step)))
        for i in range(1, n + 1):
            th = end * i / n
            th1 = 1.0 - th
            xi = x + th * (xr1 + th1 * (xr2 + th * (xr3 + th1 * xr4))) if th1 else xn
            yi = y + th * (yr1 + th1 * (yr2 + th * (yr3 + th1 * yr4))) if th1 else yn
            f = abs(emit(out, t + th * h if th1 else tn, xi, yi) - f0)
            if f > drift:
                drift = f
        if end < 1.0:
            return out, "arc-limit", drift
        if ahead and tn == ahead[0]:
            ahead.pop(0)
        t, x, y = tn, xn, yn
        arc += da
        k0 = us[6], vs[6], ws[6]
        h *= min(5.0, max(0.2, 0.9 * (bound / err) ** 0.2)) if err > 0.0 else 5.0
        if k0[2]:
            h = math.copysign(min(abs(h), 1.1 * (max_arc - arc) / abs(k0[2])), h)
    return out, "step-limit", drift


def _trace(cfg: TraceConfig, x0, y0, orient, rhs, t0, emit, cuts=()) -> TraceResult:
    """March both directions from (x0, y0) and merge them.

    ``_march`` runs with (rhs, t0, emit, cuts), the right-hand side, the
    start's t, the sample maker and the t where the speed changes sign,
    once with sigma = -orient (backward) and once with sigma = orient
    (forward).  Both legs begin with the start sample; the merge keeps
    the forward one.
    """
    (samples, r_back, d_back), (fwd, r_fwd, d_fwd) = [
        _march(cfg, x0, y0, rhs, t0, sigma, emit, cuts) for sigma in (-orient, orient)
    ]
    reasons = (r_back, r_fwd)
    return TraceResult(
        samples=samples[:0:-1] + fwd,
        terminated_by=max(reasons, key=lambda r: _SEVERITY[r]),
        potential_drift=max(d_back, d_fwd),
        end_reasons=reasons,
    )


def _start(cfg: TraceConfig) -> tuple:
    """The finite start (x0, y0) of ``cfg``; DomainError when missing."""
    if cfg.start is None:
        raise DomainError("TraceConfig.start is required")
    x0, y0 = float(cfg.start[0]), float(cfg.start[1])
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise DomainError(f"start must be finite, got ({x0!r}, {y0!r})")
    return x0, y0


def trace_orthogonal(cfg: TraceConfig) -> TraceResult:
    """Trace the orthogonal trajectory through ``cfg.start``.

    The starting slope is the cubic root nearest ``initial_slope_hint``
    (which must lie within 0.1 of a root), or the root of smallest
    magnitude when no hint is given.  The trace then extends in both
    directions until each hits a termination condition.
    """
    x0, y0 = _start(cfg)
    rs = slopes_at(x0, y0)
    if len(rs) == 0:
        raise NoBranchError(f"no real slope at start ({x0!r}, {y0!r})")
    if cfg.initial_slope_hint is not None:
        hint = float(cfg.initial_slope_hint)
        p0 = min(rs.roots, key=lambda r: abs(r - hint))
        if abs(p0 - hint) > 0.1:
            raise NoBranchError(f"no slope root within 0.1 of hint {hint!r} at ({x0!r}, {y0!r})")
    else:
        p0 = min(rs.roots, key=abs)
    # ``slopes_at`` can return p = 0 or a spurious root next to the x-axis
    # (at (0, -1e-6) it adds p = 1.1e-6, with a relative residual of about
    # 1), so the start root must solve the monic q-cubic; nan fails too.
    q0 = 1.0 / p0 if p0 else math.nan
    a0 = x0 - 2.0
    if not abs(q0 * q0 * q0 - a0 * q0 - y0) <= 1e-9 * (abs(q0) ** 3 + abs(a0 * q0) + abs(y0)):
        raise NoBranchError(f"slope {p0!r} at ({x0!r}, {y0!r}) does not solve the slope cubic")

    def rhs(q, x, y):
        w = 1.0 + q * q
        d = 3.0 * q * q + 2.0 - x
        v = d / w
        return q * v, v, d / math.sqrt(w)

    def emit(out, q, x, y):
        p = 1.0 / q if q else math.copysign(math.inf, q)
        # tuple.__new__ skips Point's Python-level __new__, half the cost.
        out.append((tuple.__new__(Point, (x, y)), p))
        return (q * (y - q) - x) / math.sqrt(1.0 + q * q)

    # Forward is +x: the sign of dx/dq = q D / (1 + q^2) at the start, or
    # of q0 at a cusp start, where D = 0.
    orient = math.copysign(1.0, rhs(q0, x0, y0)[0] or q0)
    # Cut at the cusps of the start's member C = emit(...), the pair of C < -2;
    # C = -2's one cusp t = 0 is no cut, as the speed only touches 0 there.
    cuts = [t for t in cusp_parameters(TrajectoryCurve(emit([], q0, x0, y0))) if t]
    return _trace(cfg, x0, y0, orient, rhs, q0, emit, cuts)


# Classic textbook pairs: direction field (unnormalized) and conserved
# first integral of the orthogonal trajectories.
_CLASSIC = {
    "hyperbola-pair": (lambda x, y: (x, -y), lambda x, y: x * y),
    "monopole": (lambda x, y: (y, -x), lambda x, y: x * x + y * y),
    "shifted-monopole": (
        lambda x, y: (y, -(x + 1.0)),
        lambda x, y: (x + 1.0) * (x + 1.0) + y * y,
    ),
}


def trace_classic(kind: str, cfg: TraceConfig) -> TraceResult:
    """Trace a classic orthogonal-trajectory fixture through ``cfg.start``.

    kind 'hyperbola-pair' integrates y' = -y/x (orthogonal to the
    hyperbolas x^2 - y^2 = const, conserving x*y); 'monopole' integrates
    y' = -x/y (orthogonal to the lines y = m x, conserving x^2 + y^2);
    'shifted-monopole' integrates y' = -(x+1)/y (conserving
    (x+1)^2 + y^2).  The start must avoid the field's singular point.
    """
    if kind not in _CLASSIC:
        raise DomainError(f"unknown classic kind {kind!r}")
    raw_field, conserved = _CLASSIC[kind]
    x0, y0 = _start(cfg)
    if math.hypot(*raw_field(x0, y0)) < 1e-12:
        raise DomainError(f"start {cfg.start!r} is singular for {kind!r}")

    def emit(out, _t, x, y):
        vx, vy = raw_field(x, y)
        p = vy / vx if vx != 0.0 else math.copysign(math.inf, vy)
        out.append((tuple.__new__(Point, (x, y)), p))
        return conserved(x, y)

    # The direction is the normalised field itself: a slope alone would
    # lose its orientation wherever vx < 0.  A vanishing field gives nan,
    # which fails the error test.
    def rhs(_t, x, y):
        vx, vy = raw_field(x, y)
        n = 1.0 / (math.hypot(vx, vy) or math.nan)
        return vx * n, vy * n, 1.0

    return _trace(cfg, x0, y0, 1.0, rhs, 0.0, emit)

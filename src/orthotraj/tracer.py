"""Numerical tracing of orthogonal trajectories from the implicit ODE.

The admissible slopes are the real roots of y p^3 + (x - 2) p^2 - 1 = 0.
In q = 1/p = dx/dy this is the monic cubic q^3 - (x - 2) q - y = 0 of
the parabola's normals, and on member C the tracked root q is the curve
parameter t of the closed form.  ``slopes_at`` solves the cubic once,
for the start slope; after that Newton corrects q from the step-start
root q_ref and an exact deflation yields the other two roots, so "root
nearest q_ref" holds exactly.  Integration runs in arc length along

    (dx/ds, dy/ds) = sigma * (q, 1) / sqrt(1 + q^2),

which is smooth off the cusps: the vertex, where a curve crosses the
x-axis with a vertical tangent, is the plain point q = 0.  The drift
monitor G(x, q) = (q^2 - x) sqrt(1 + q^2) equals C all along member C.

One stepper, ``_march``, integrates every trace: Cash-Karp embedded
4(5) Runge-Kutta steps under error-per-unit-step control, the arc
budget, the domain box, the step limit and the sample recording.  It
runs once per direction from the start point.  Each tracer supplies only

    a field    ``field_fn(x, y, r_ref) -> (dx, dy, r)``, the unit
               direction and tracked value (q, or a classic field's
               slope p), or ``_BranchJump`` when nothing continues r_ref;
    a stall    ``stall_fn(x, y, r_ref)``, the reason an end stops when
               step halving bottoms out.

``trace_orthogonal`` returns slopes p = 1/q (+-inf where q = 0).
``trace_classic`` follows one of three textbook orthogonal-trajectory
fields and reports the drift of its exact conserved quantity.

Termination reasons:

    arc-limit    the arc-length budget was spent
    branch-loss  the tracked root could not be followed (numerical loss)
    singularity  the tracked root met a neighbour (3 q^2 = x - 2): a cusp
                 of the traced curve; for a classic trace, the smallest
                 step could not follow the field
    domain-exit  the trace left the configured bounding box
"""

import math
from dataclasses import dataclass, field
from typing import Optional

from .core_model import Point
from .errors import DomainError, NoBranchError
from .roots import slopes_at

__all__ = ["TraceConfig", "TraceResult", "trace_orthogonal", "trace_classic"]

# Cash-Karp 4(5) tableau.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)

_H_MIN = 1e-6           # arc-length floor for step halving
_MAX_JUMP = 0.5         # root-continuity threshold in |delta q|
_CUSP_GAP = 0.05        # relative 3q^2 - a at a stall that marks a root collision
_MAX_STEPS = 300_000
_NEWTON_ITERS = 6       # Newton steps before the tracked root counts as lost
_NEWTON_TOL = 1e-15     # relative q-cubic residual counted as rounding level
_SEVERITY = {"arc-limit": 0, "domain-exit": 1, "branch-loss": 2, "singularity": 3}


@dataclass(frozen=True)
class TraceConfig:
    """Integration parameters for one trace.

    ``step`` is the initial arc-length step and half the sample-spacing
    cap; ``max_arc`` is the arc budget per direction; ``tol`` bounds the
    local error per 2 ``step`` of arc.  All three are finite and positive.
    ``domain`` is an optional (xmin, xmax, ymin, ymax) box; None uses a
    very large default box.
    """

    start: Optional[Point] = None
    initial_slope_hint: Optional[float] = None
    step: float = 1e-2
    max_arc: float = 50.0
    tol: float = 1e-8
    domain: Optional[tuple] = None

    def __post_init__(self):
        for name in ("step", "max_arc", "tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {value!r}")
        hint = self.initial_slope_hint
        if hint is not None and not math.isfinite(hint):
            raise DomainError(f"initial_slope_hint must be finite, got {hint!r}")
        box = self.domain
        if box is not None and not (
            len(box) == 4 and all(map(math.isfinite, box)) and box[0] < box[1] and box[2] < box[3]
        ):
            raise DomainError(f"domain must be a finite (xmin, xmax, ymin, ymax) box, got {box!r}")

    def bounds(self) -> tuple:
        return self.domain if self.domain is not None else (-1e6, 1e6, -1e6, 1e6)


@dataclass
class TraceResult:
    """Ordered samples of one traced trajectory.

    ``samples`` holds (Point, p) pairs in geometric order along the
    curve, p = +-inf at a vertical tangent; the start point sits between
    the two traced directions.
    ``end_reasons`` gives the termination reason of the (backward,
    forward) ends and ``terminated_by`` the more severe of the two.
    ``potential_drift`` is max |F - F0| over all samples of the conserved
    quantity: G(x, 1/p) = C for the main family, regular at the vertex,
    and the respective first integral for classic traces.
    """

    samples: list = field(default_factory=list)
    terminated_by: str = "arc-limit"
    potential_drift: float = 0.0
    end_reasons: tuple = ("arc-limit", "arc-limit")


class _BranchJump(Exception):
    """Raised by a field when nothing continues the tracked branch."""


def _rk_step(rhs, x: float, y: float, h: float):
    """One Cash-Karp step; returns (x5, y5, err)."""
    kx = [0.0] * 6
    ky = [0.0] * 6
    kx[0], ky[0] = rhs(x, y)
    for i in range(1, 6):
        ai = _A[i]
        xs = x
        ys = y
        for j, a in enumerate(ai):
            xs += h * a * kx[j]
            ys += h * a * ky[j]
        kx[i], ky[i] = rhs(xs, ys)
    x5 = x
    y5 = y
    ex = 0.0
    ey = 0.0
    for i in range(6):
        x5 += h * _B5[i] * kx[i]
        y5 += h * _B5[i] * ky[i]
        d = _B5[i] - _B4[i]
        ex += h * d * kx[i]
        ey += h * d * ky[i]
    return x5, y5, max(abs(ex), abs(ey))


def _tracked_root(x: float, y: float, q_ref: float) -> float:
    """The q-cubic root nearest q_ref, by Newton continuation.

    Newton on q^3 - a q - y (a = x - 2) runs from q_ref until the
    residual before a step is at the rounding level of its terms;
    deflating q^3 - a q - y = (q - r)(q^2 + r q + r^2 - a) gives the other
    two roots, and the nearest of the three wins.  Raises ``_BranchJump``
    when Newton does not settle or meets 3 q^2 = a.
    """
    a = x - 2.0
    q = q_ref
    for _ in range(_NEWTON_ITERS):
        q2 = q * q
        f = (q2 - a) * q - y
        dg = 3.0 * q2 - a
        if dg == 0.0:
            raise _BranchJump
        settled = abs(f) <= _NEWTON_TOL * (abs(q2 * q) + abs(a * q) + abs(y))
        q -= f / dg
        if settled:
            break
    else:
        raise _BranchJump
    disc = 4.0 * a - 3.0 * q * q
    if disc >= 0.0:
        # s, the larger deflated root, and the pair's product q^2 - a,
        # taken as y / q (-a at q = 0), are both free of cancellation.
        s = -0.5 * (q + math.copysign(math.sqrt(disc), q))
        for r in (s, (y / q if q else -a) / s):
            if abs(r - q_ref) < abs(q - q_ref):
                q = r
    return q


def _root_field(x: float, y: float, q_ref: float):
    """Unit direction (q, 1) / sqrt(1 + q^2) and root q nearest q_ref."""
    q = _tracked_root(x, y, q_ref)
    if abs(q - q_ref) > _MAX_JUMP * max(1.0, abs(q_ref)):
        raise _BranchJump
    inv = 1.0 / math.sqrt(1.0 + q * q)
    return q * inv, inv, q


def _stall_reason(x: float, y: float, q: float) -> str:
    """Classify a stall at the last accepted sample, with no solve.

    For the tracked root q and the other two r, s, 3 q^2 - a equals
    (q - r)(q - s): it vanishes where the tracked root meets a neighbour,
    at a cusp on the evolute 27 y^2 = 4 a^3.  Elsewhere the stall is a
    branch loss.
    """
    a = x - 2.0
    g = 3.0 * q * q
    return "singularity" if abs(g - a) <= _CUSP_GAP * (g + abs(a)) else "branch-loss"


def _march(x0, y0, r0, sigma, cfg: TraceConfig, field_fn, stall_fn):
    """Integrate one direction; returns (samples, reason).

    ``field_fn(x, y, r_ref)`` gives the unit direction and tracked value
    ``(dx, dy, r)`` near r_ref, or raises ``_BranchJump``;
    ``stall_fn(x, y, r)`` names the reason when step halving bottoms out.
    """
    xmin, xmax, ymin, ymax = cfg.bounds()
    h_cap = 2.0 * cfg.step
    h = cfg.step
    arc = 0.0
    x, y, r_ref = x0, y0, r0
    samples = []

    def rhs(xs, ys):
        # r_ref rebinds at each accepted step: stages anchor to the
        # step-start branch.
        dx, dy, _ = field_fn(xs, ys, r_ref)
        return sigma * dx, sigma * dy

    for _ in range(_MAX_STEPS):
        remaining = cfg.max_arc - arc
        if remaining <= 1e-12:
            return samples, "arc-limit"
        h_step = min(h, h_cap, remaining)
        bound = cfg.tol * h_step / h_cap
        try:
            xn, yn, err = _rk_step(rhs, x, y, h_step)
            if err > bound:
                raise _BranchJump
            _, _, r_new = field_fn(xn, yn, r_ref)
        except _BranchJump:
            h *= 0.5
            if h < _H_MIN:
                return samples, stall_fn(x, y, r_ref)
            continue
        if not (xmin <= xn <= xmax and ymin <= yn <= ymax):
            return samples, "domain-exit"
        x, y, r_ref = xn, yn, r_new
        arc += h_step
        samples.append((Point(x, y), r_ref))
        if err > 0.0:
            h = h_step * min(5.0, max(0.2, 0.9 * (bound / err) ** 0.25))
        else:
            h = h_step * 5.0
    return samples, "branch-loss"


def _trace(x0, y0, r0, cfg: TraceConfig, field_fn, stall_fn, drift_fn, orient=1.0) -> TraceResult:
    """March both directions from (x0, y0) on r0 and merge them."""
    back, r_back = _march(x0, y0, r0, -orient, cfg, field_fn, stall_fn)
    fwd, r_fwd = _march(x0, y0, r0, orient, cfg, field_fn, stall_fn)
    start_sample = (Point(x0, y0), r0)
    samples = list(reversed(back)) + [start_sample] + fwd
    f0 = drift_fn(*start_sample)
    drift = 0.0
    for pt, v in samples:
        drift = max(drift, abs(drift_fn(pt, v) - f0))
    reasons = (r_back, r_fwd)
    return TraceResult(
        samples=samples,
        terminated_by=max(reasons, key=lambda r: _SEVERITY[r]),
        potential_drift=drift,
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

    def drift_fn(pt, q):
        return (q * q - pt.x) * math.sqrt(1.0 + q * q)

    # (q, 1) runs along sign(q) (1, p): orient by sign(q0) so forward is +x.
    orient = math.copysign(1.0, p0)
    res = _trace(x0, y0, 1.0 / p0, cfg, _root_field, _stall_reason, drift_fn, orient)
    res.samples = [(pt, 1.0 / q if q else math.copysign(math.inf, q)) for pt, q in res.samples]
    return res


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

    def field_fn(x, y, _p_ref):
        # The direction is the normalised field itself: a slope alone
        # would lose its orientation wherever vx < 0.
        vx, vy = raw_field(x, y)
        n = math.hypot(vx, vy)
        if n < 1e-12:
            raise _BranchJump
        p = vy / vx if vx != 0.0 else math.copysign(math.inf, vy)
        return vx / n, vy / n, p

    try:
        _, _, p_start = field_fn(x0, y0, None)
    except _BranchJump:
        raise DomainError(f"start {cfg.start!r} is singular for {kind!r}") from None

    def drift_fn(pt, _p):
        return conserved(pt.x, pt.y)

    def stall_fn(*_):
        return "singularity"

    return _trace(x0, y0, p_start, cfg, field_fn, stall_fn, drift_fn)

"""Tracing trajectories straight from the implicit ODE
=======================================================

The tracer never sees the closed form: it takes one real root q = dx/dy
of the cubic q^3 - (x - 2) q - y at the start and then marches the
explicit ODE dx/dq = q D / (1 + q^2), dy/dq = D / (1 + q^2),
D = 3 q^2 + 2 - x, in q itself by Dormand-Prince Runge-Kutta steps
sized by the error tolerance, both ways from the start point, and
interpolates samples at most 2 step of arc apart.  Member C is the
parabola's offset curve at distance C, so the normal offset
(q (y - q) - x) / sqrt(1 + q^2) of each sample from the parabola point
(q^2, 2q) equals C; its drift along the trace measures how far the
march strays from a true solution.
"""

import math

from orthotraj import (
    Point,
    TraceConfig,
    TrajectoryCurve,
    curve_point,
    cusp_parameters,
    trace_classic,
    trace_orthogonal,
)

# Start on the parabola at (1, 2) with slope hint 1.
res = trace_orthogonal(TraceConfig(start=Point(1.0, 2.0), initial_slope_hint=1.0))
xs = [pt.x for pt, _ in res.samples]
ys = [pt.y for pt, _ in res.samples]
worst = max(abs(pt.y**2 - 4 * pt.x) for pt, _ in res.samples)
print("parabola trace from (1, 2):")
print(f"  {len(res.samples)} samples, x in [{min(xs):.2e}, {max(xs):.2f}],")
print(f"  y in [{min(ys):.2f}, {max(ys):.2f}]")
print(f"  max |y^2 - 4x| = {worst:.2e}, potential drift = {res.potential_drift:.2e}")
print(f"  end reasons: backward = {res.end_reasons[0]} (through the vertex, where q = 0),")
print(f"               forward  = {res.end_reasons[1]}")

# A C != 0 member: start at (0, 3), which lies on the C = sqrt(2) curve.
res = trace_orthogonal(TraceConfig(start=Point(0.0, 3.0)))
curve = TrajectoryCurve(math.sqrt(2.0))
gap = max(
    math.hypot(*(a - b for a, b in zip(curve_point(curve, 1.0 / p), pt)))
    for pt, p in res.samples
)
print("\ntrace from (0, 3) vs the closed-form C = sqrt(2) member:")
print(f"  max gap = {gap:.2e}, drift = {res.potential_drift:.2e}")

# A cusped member: at the cusps D changes sign and only the speed ds/dq
# vanishes, so the march runs through both.
curve = TrajectoryCurve(-4.0)
res = trace_orthogonal(TraceConfig(start=curve_point(curve, 1.0), initial_slope_hint=1.0))
qs = [1.0 / p for _, p in res.samples]
ds = [3.0 * q * q + 2.0 - pt.x for (pt, _), q in zip(res.samples, qs)]
crossed = sorted(
    sorted(qs[i : i + 2]) for i in range(len(ds) - 1) if (ds[i] > 0.0) != (ds[i + 1] > 0.0)
)
print("\ntrace on the cusped C = -4 member:")
print(f"  end reasons = {res.end_reasons}, q in [{min(qs):.2f}, {max(qs):.2f}]")
for (lo, hi), t in zip(crossed, cusp_parameters(curve)):
    print(f"  D changes sign between q = {lo:+.4f} and {hi:+.4f}: cusp at t = {t:+.6f}")
print(f"  potential drift = {res.potential_drift:.2e}")

# The textbook fixtures, same integrator.
print("\nclassic orthogonal-trajectory pairs:")
for kind, start, label in (
    ("hyperbola-pair", Point(1.0, 1.0), "x y"),
    ("monopole", Point(3.0, 4.0), "x^2 + y^2"),
    ("shifted-monopole", Point(0.0, 1.0), "(x+1)^2 + y^2"),
):
    r = trace_classic(kind, TraceConfig(start=start, max_arc=30.0))
    print(f"  {kind:17s}: conserves {label:13s} drift = {r.potential_drift:.2e}")

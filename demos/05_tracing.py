"""Tracing trajectories from the implicit ODE
=============================================

The tracer takes one real root q = dx/dy of the cubic q^3 - (x - 2) q - y
at the start.  That root is the curve parameter t of the member through
the start, and the start's normal offset (q (y - q) - x) / sqrt(1 + q^2)
from the parabola point (q^2, 2q) is the member's C: member C is the
parabola's offset curve at distance C.  From there the trace walks the
member's closed form in q, both ways from the start point, with samples
at most 2 step of arc apart, and ends each leg on its arc budget, found
on the closed-form arc A(q) = q sqrt(1 + q^2) + asinh q + C atan q.  The
normal offset of every sample equals C, so its drift along the trace is
the rounding of the samples alone.
"""

import math

from orthotraj import (
    Point,
    TraceConfig,
    TrajectoryCurve,
    curve_point,
    cusp_parameters,
    trace_orthogonal,
)
from orthotraj.verification import closed_form_arc

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
# vanishes, so the walk runs through both.  The member's cusps are known
# in closed form, and the walk lands a sample on each.
curve = TrajectoryCurve(-4.0)
res = trace_orthogonal(TraceConfig(start=curve_point(curve, 1.0), initial_slope_hint=1.0))
qs = [1.0 / p for _, p in res.samples]
print("\ntrace on the cusped C = -4 member:")
print(f"  end reasons = {res.end_reasons}, q in [{min(qs):.2f}, {max(qs):.2f}]")
for t in cusp_parameters(curve):
    (pt, _), q = min(zip(res.samples, qs), key=lambda s: abs(s[1] - t))
    d = 3.0 * q * q + 2.0 - pt.x
    print(f"  cusp at t = {t:+.6f}: sample q - t = {q - t:+.1e}, D = {d:+.1e}")
print(f"  potential drift = {res.potential_drift:.2e}")

# Each leg ends on its arc budget: the closed-form arc from the start's
# q to each end's q, split at the cusps, where the signed speed turns.
print("\nclosed-form arc of each leg of the C = -4 trace (budget 50):")
for name, (_, p) in (("backward", res.samples[0]), ("forward", res.samples[-1])):
    print(f"  {name:8s}: {closed_form_arc(-4.0, 1.0, 1.0 / p):.12f}")

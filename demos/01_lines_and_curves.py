"""The line family and its orthogonal curves
=============================================

The one-parameter family of lines

    y = m x - 2m - m^3

is the family of normals of the parabola y^2 = 4x.  But the parabola is
only one member of the family of curves crossing every such line at a
right angle.  The whole family is

    x(t) = t^2 - C / sqrt(1 + t^2),   y(t) = 2t + C t / sqrt(1 + t^2),

one curve per real C, with C = 0 giving back the parabola.
"""

from orthotraj import (
    PARABOLA_NORMALS,
    TrajectoryCurve,
    curve_point,
    curve_slope,
    curve_velocity,
    line_at,
    ode_c_residual,
    ode_o_residual,
)
from orthotraj.core_model import linspace

# A few members of the line family.
print("lines y = m x - 2m - m^3:")
for m in (0.0, 1.0, 2.0, -3.0):
    line = line_at(PARABOLA_NORMALS, m)
    print(f"  m = {m:+g}:  y = {line.slope:+g} x + {line.intercept:+g}")

# Points on the line satisfy the family's differential equation
# y = y'x - 2y' - (y')^3 with y' = m, identically.
line = line_at(PARABOLA_NORMALS, 1.5)
for x in (-2.0, 0.0, 4.0):
    r = ode_c_residual(x, line.y_at(x), 1.5)
    print(f"  residual on the m=1.5 line at x={x:+g}: {r:.2e}")

# The C = 0 member is the parabola y^2 = 4x.
print("\nC = 0 member:")
parabola = TrajectoryCurve(0.0)
for t in linspace(-2.0, 2.0, 5):
    x, y = curve_point(parabola, t)
    print(f"  t = {t:+.1f}: point ({x:+.4f}, {y:+.4f}),  y^2 - 4x = {y*y - 4*x:+.1e}")

# Every member satisfies the orthogonal-family ODE
# y p^3 = p^2 (2 - x) + 1 with p = 1/t, whatever C is.
print("\nimplicit ODE residual along members (p = 1/t):")
for C in (-4.0, -1.0, 2.0):
    curve = TrajectoryCurve(C)
    worst = 0.0
    for t in linspace(0.2, 4.0, 200):
        x, y = curve_point(curve, t)
        worst = max(worst, abs(ode_o_residual(x, y, 1.0 / t)))
    print(f"  C = {C:+g}: max |residual| = {worst:.2e}")

# The slope of a member is 1/t regardless of C: the whole family shares
# its tangent directions, which is why one foot point per line works
# for every member.
print("\nslope at t = 2 for several C (all equal 1/2):")
for C in (-4.0, 0.0, 7.0):
    print(f"  C = {C:+g}: slope = {curve_slope(TrajectoryCurve(C), 2.0):.12f}")

# Cusps happen where the velocity vanishes entirely (only for C <= -2).
print("\nvelocity at t = 0:")
for C in (0.0, -2.0, -4.0):
    print(f"  C = {C:+g}: velocity = {curve_velocity(TrajectoryCurve(C), 0.0)}")

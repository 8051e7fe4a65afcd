"""From a non-exact form to the curve family
=============================================

Eliminating x from the implicit slope equation leaves a differential
form in (y, p):

    (p^3 + p) dy + (y p^2 + 2/p) dp = 0.

It is not exact: dM/dp - dN/dy = 2p^2 + 1 != 0.  Multiplying by
mu(p) = 1 / (p sqrt(1 + p^2)) repairs that, and the repaired form
integrates to the first integral

    F(y, p) = (y - 2/p) sqrt(1 + p^2) = C.

Solving F = C for y and back-substituting for x produces the parametric
curve family checked here numerically.
"""

from orthotraj import (
    TrajectoryCurve,
    curve_point,
    exactness_defect,
    integrating_factor,
    potential,
    raw_form,
    scaled_form,
    solve_for_xy,
)
from orthotraj.core_model import linspace

raw = raw_form()
scaled = scaled_form()

print("the raw form is NOT exact; its defect is exactly 2p^2 + 1:")
for p in (0.5, 1.0, 2.0, -3.0):
    d = exactness_defect(raw, 0.0, p)
    print(f"  p = {p:+g}: defect = {d:+.8f}   (2p^2+1 = {2*p*p + 1:+g})")

print("\nthe integrating factor mu(p) = 1/(p sqrt(1+p^2)):")
for p in (0.5, 1.0, 2.0):
    print(f"  mu({p:g}) = {integrating_factor(p):.8f}")

print("\nafter scaling by mu the defect collapses:")
for p in (0.5, 1.0, 2.0, -3.0):
    d = exactness_defect(scaled, 0.0, p)
    print(f"  p = {p:+g}: defect = {d:+.2e}")

print("\nthe potential F is constant on each solution:")
for C in (-2.0, 0.0, 3.0):
    levels = [potential(solve_for_xy(p, C).y, p) for p in linspace(0.2, 5.0, 9)]
    print(f"  C = {C:+g}: F over the solution = {min(levels):.12f} .. {max(levels):.12f}")

print("\nparametric solution vs the t-parametrization (t = 1/p):")
for C in (0.0, 2.0):
    curve = TrajectoryCurve(C)
    for p in (0.5, 1.0, 4.0):
        a = solve_for_xy(p, C)
        b = curve_point(curve, 1.0 / p)
        gap = max(abs(a.x - b.x), abs(a.y - b.y))
        print(f"  C = {C:g}, p = {p:g}: gap = {gap:.2e}")

# One subtlety: with t = 1/p the t < 0 half of the curve C carries the
# potential level -C.  The t-form glues the two sign branches of the
# level sets into single x-axis-symmetric curves.
print("\npotential level along the curve C = 3:")
curve = TrajectoryCurve(3.0)
for t in (2.0, 0.5, -0.5, -2.0):
    x, y = curve_point(curve, t)
    print(f"  t = {t:+g}: F(y, 1/t) = {potential(y, 1.0 / t):+.9f}")

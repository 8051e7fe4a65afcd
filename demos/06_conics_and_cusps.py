"""Parabola or not?
===================

Only the C = 0 member is a conic: every C != 0 member is an irreducible
sextic, so ``classify_conic`` answers from C alone.  The exact conic fit
is the evidence: through five rational points of a member it finds the
one conic a x^2 + b xy + c y^2 + d x + e y + f = 0, in integer
arithmetic, and its residual says how far a sixth point lies off it.  At
C = 0 that conic is y^2 - 4x and the residual is exactly 0; every C != 0
member leaves a residual > 0.
For C < -2 the members are not even smooth ovals: they carry cusps.
"""

from orthotraj import TrajectoryCurve, classify_conic, conic_fit, cusp_parameters, fit_conic

print(f"{'C':>6s}  {'classification':16s} {'conic residual':>14s}  cusps")
for C in (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0):
    curve = TrajectoryCurve(C)
    fit = conic_fit(curve)
    cusps = cusp_parameters(curve)
    cusp_str = ", ".join(f"{t:+.4f}" for t in cusps) if cusps else "-"
    print(f"{C:6.1f}  {classify_conic(curve):16s} {fit.residual:14.3e}  {cusp_str}")

print("\nthe C = 0 conic, over its largest coefficient (y^2 - 4x = 0):")
fit = conic_fit(TrajectoryCurve(0.0))
names = ("x^2", "xy", "y^2", "x", "y", "1")
for name, v in zip(names, fit.coeffs):
    print(f"  {name:>4s}: {v:+.9f}")
ratio = fit.coeffs[3] / fit.coeffs[2]
print(f"  ratio (x coeff)/(y^2 coeff) = {ratio:+.9f}   (expected -4)")

print("\na circle is a conic too: six well-spread integer points of x^2 + y^2 = 25:")
circle = [(5.0, 0.0), (3.0, 4.0), (-4.0, 3.0), (-5.0, 0.0), (-3.0, -4.0), (4.0, -3.0)]
cfit = fit_conic(circle)
print(f"  residual = {cfit.residual:.3e}, discriminant b^2 - 4ac = {cfit.discriminant():+.6f}")

print("\ncusp pair as C drops below -2 (t^2 = (C^2/4)^(1/3) - 1):")
for C in (-2.0, -2.5, -4.0, -8.0):
    print(f"  C = {C:+g}: cusps at {[f'{t:+.6f}' for t in cusp_parameters(TrajectoryCurve(C))]}")

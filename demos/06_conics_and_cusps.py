"""Parabola or not?
===================

Only the C = 0 member is a conic: every C != 0 member is an irreducible
sextic, so ``classify_conic`` answers from C alone.  A least-squares
quadratic form (smallest singular vector of the [x^2, xy, y^2, x, y, 1]
design matrix) is the evidence: it fits the C = 0 member to machine
precision and recovers y^2 - 4x, while every C != 0 member leaves a
residual five orders of magnitude larger with 200 samples.
For C < -2 the members are not even smooth ovals: they carry cusps.
"""

import numpy as np

from orthotraj import TrajectoryCurve, classify_conic, conic_fit, cusp_parameters, fit_conic

print(f"{'C':>6s}  {'classification':16s} {'conic residual':>14s}  cusps")
for C in (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0):
    curve = TrajectoryCurve(C)
    fit = conic_fit(curve)
    cusps = cusp_parameters(curve)
    cusp_str = ", ".join(f"{t:+.4f}" for t in cusps) if cusps else "-"
    print(f"{C:6.1f}  {classify_conic(curve):16s} {fit.residual_rms:14.3e}  {cusp_str}")

print("\nthe C = 0 fit, denormalized (proportional to y^2 - 4x):")
fit = conic_fit(TrajectoryCurve(0.0))
names = ("x^2", "xy", "y^2", "x", "y", "1")
for name, v in zip(names, fit.coeffs):
    print(f"  {name:>4s}: {v:+.9f}")
ratio = fit.coeffs[3] / fit.coeffs[2]
print(f"  ratio (x coeff)/(y^2 coeff) = {ratio:+.9f}   (expected -4)")

print("\na circle fits exactly too (sanity: conics are conics):")
circle = [(2 * np.cos(a), 2 * np.sin(a)) for a in np.linspace(0, 2 * np.pi, 60, endpoint=False)]
cfit = fit_conic(circle)
print(f"  residual = {cfit.residual_rms:.3e}, discriminant b^2 - 4ac = {cfit.discriminant():+.6f}")

print("\ncusp pair as C drops below -2 (t^2 = (C^2/4)^(1/3) - 1):")
for C in (-2.0, -2.5, -4.0, -8.0):
    print(f"  C = {C:+g}: cusps at {[f'{t:+.6f}' for t in cusp_parameters(TrajectoryCurve(C))]}")

"""Admissible slopes through a point
=====================================

At a point (x, y), the slopes of orthogonal trajectories passing
through it are the real roots of the cubic

    y p^3 + (x - 2) p^2 - 1 = 0.

Depending on the point there are one, two, or three of them: two on
the x-axis, where the cubic degenerates to a quadratic, and on the
evolute 27 y^2 = 4 (x - 2)^3, where two of the three merge into a double
root.  The solver is closed-form (trigonometric / Cardano) with a Newton
polish.
"""

import random

from orthotraj import bracketed_root, slopes_at

print("slopes through hand-picked points:")
for x, y in ((1.0, 2.0), (3.0, 0.0), (1.0, 0.0), (-2.0, 0.5), (5.0, -1.0)):
    rs = slopes_at(x, y)
    pretty = ", ".join(f"{r:+.6f} (x{m})" for r, m in zip(rs.roots, rs.multiplicities))
    print(f"  ({x:+g}, {y:+g}): {pretty if rs.roots else 'no real slope'}")

print("\nhow many curves pass through random points?")
rng = random.Random(1)
counts = {0: 0, 1: 0, 2: 0, 3: 0}
for _ in range(20_000):
    rs = slopes_at(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
    counts[sum(rs.multiplicities)] += 1
for k in sorted(counts):
    print(f"  {k} slope(s): {counts[k]:6d} points")

print("\nthe slope cubic's cases, with multiplicities:")
cases = [
    ("one root", 1.0, 2.0),
    ("three roots", 5.0, 1.0),
    ("double root on the evolute", 5.0, 2.0),
    ("x-axis quadratic", 3.0, 0.0),
]
for label, x, y in cases:
    rs = slopes_at(x, y)
    pretty = ", ".join(f"{r:+.6f} (x{m})" for r, m in zip(rs.roots, rs.multiplicities))
    print(f"  {label:26s} ({x:+g}, {y:+g}) -> {pretty}")

print("\nbracketed root finding (bisection + secant):")
root = bracketed_root(lambda t: t * t - 2.0 * t - 3.0, 2.0, 4.0, tol=1e-12)
print(f"  t^2 - 2t - 3 on [2, 4]: root = {root:.12f}")
root = bracketed_root(lambda t: 2.0 - 4.0 * (1.0 + t * t) ** -1.5, 0.5, 1.0, 1e-12)
print(f"  cusp equation of C = -4 on [0.5, 1]: root = {root:.12f}")

"""Acceptance gate: the nine headline properties at their stated tolerances.

Each test runs one criterion through the verification suites and prints
a single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to see them).  Tolerances live in the suites; nothing is loosened here.

  1. exactness pipeline: raw-form defect 2p^2+1 and exact scaled form,
     both to 1e-8 on the (y, p) grid, and the scaled form equal to
     mu(p) = 1/(p sqrt(1+p^2)) times the raw form to 1e-14 relative
  2. potential/parametrization consistency (1e-9 / 1e-12)
  3. on-curve identity of the implicit slope equation (1e-9 relative)
  4. orthogonality at scale: 1000 random (m, C) feet (incidence, and
     the curve's velocity normal to the line, to 1e-9) and exactly one
     crossing at a right angle each, at t = -m
  5. the non-orthogonal second crossing of (m=1, C=0) at t=3, (9, 6),
     slope product 1/3 (1e-8)
  6. parabola degeneration: conic ~ y^2 - 4x iff C = 0, residual >= 1e-3
     for C != 0
  7. cusp census: 0/1/2 cusps for C > -2 / = -2 / < -2, with
     t = +-0.766421 (1e-6) at C = -4
  8. tracer fidelity: closed-form agreement 1e-5, potential drift
     <= 10*tol, classic first integrals conserved to 1e-6
  9. figure reproduction: deterministic well-formed SVG, 8 curve paths
     across the presets, one dashed per panel, lines m = 1, 2, -3
"""

import pytest

from orthotraj.verification import SUITES

CRITERIA = [
    ("1 exactness pipeline", "exactness"),
    ("2 potential/parametrization consistency", "potential"),
    ("3 on-curve ODE identity", "ode-identity"),
    ("4 orthogonality theorem at desk scale", "orthogonality"),
    ("5 non-orthogonal extra crossing", "extra-crossing"),
    ("6 parabola degeneration dichotomy", "conic"),
    ("7 cusp regime", "cusps"),
    ("8 tracer fidelity", "tracer"),
    ("9 figure reproduction", "figure"),
]


@pytest.mark.parametrize("label,suite", CRITERIA, ids=[c[0].replace(" ", "-") for c in CRITERIA])
def test_acceptance_criterion(label, suite):
    results = SUITES[suite]()
    assert all(isinstance(r.passed, bool) for r in results)  # a report writes them as JSON
    passed = all(r.passed for r in results)
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {label}")
    for r in results:
        print(f"    [{'ok' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    failures = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert passed, f"criterion {label} failed: " + "; ".join(failures)

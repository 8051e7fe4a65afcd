"""Property tests of the tracer's continuation root solve.

Covers:
  - wherever ``_continued_root`` does not fall back, it returns the
    root that ``slopes_at`` plus the nearest-root rule picks, to 1e-12
    relative: box points, the evolute band 27y^2 = 4(x - 2)^3 (1 +- delta),
    and p_ref perturbed from each root
  - the same against the exact roots of the q-cubic (mpmath, 50 digits
    beyond the smallest root), also in the near-axis band where
    ``slopes_at`` loses roots
  - off the evolute it settles on each root it starts from
  - on the evolute point (5, 2) it leaves the choice to the full solve
  - the pinned end reasons of the tracer-suite starts and of trace
    workload starts (cusped, vertex and arc-limit ends), unchanged from
    the full-solve tracer

The box points keep |y| >= 1e-3: below that ``slopes_at``, the reference
of the first property, loses roots near the x-axis (ROADMAP item 1).
"""

import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthotraj import TraceConfig, TrajectoryCurve, curve_point, slopes_at, trace_orthogonal
from orthotraj.tracer import _continued_root

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)

signs = st.sampled_from((-1.0, 1.0))


@st.composite
def box_points(draw):
    x = draw(st.floats(-10.0, 10.0))
    y = draw(signs) * draw(st.floats(1e-3, 10.0))
    return x, y


@st.composite
def evolute_band(draw):
    """Points with 27y^2 = 4(x - 2)^3 (1 +- delta), delta = m 10^k, k = -12..-3."""
    a = draw(st.floats(1e-2, 10.0))
    delta = draw(signs) * draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-12, -3))
    y = draw(signs) * math.sqrt(4.0 * a**3 * (1.0 + delta) / 27.0)
    return 2.0 + a, y


@st.composite
def near_axis(draw):
    x = draw(st.floats(-10.0, 10.0))
    y = draw(signs) * 10.0 ** draw(st.floats(-300.0, -3.0))
    return x, y


points = st.one_of(box_points(), evolute_band())
# Relative offsets of p_ref from a root: none, down to rounding level (inside
# a near-double pair), and up to 3, past the neighbouring roots.
perturbations = st.one_of(
    st.just(0.0),
    st.builds(lambda s, m, e: s * m * 10.0**e, signs, st.floats(1.0, 3.0), st.integers(-16, 0)),
)


def nearest(roots, p_ref):
    return min(roots, key=lambda r: abs(r - p_ref))


def exact_slopes(x, y):
    """Finite real slopes 1/q over the roots q of q^3 - (x - 2) q - y, by
    mpmath with 50 digits to spare beyond the smallest root, about y / (x - 2)."""
    with mpmath.workdps(50 + max(0, -math.floor(math.log10(abs(y))))):
        qs = mpmath.polyroots([1, 0, -(mpmath.mpf(x) - 2), -mpmath.mpf(y)], maxsteps=200, extraprec=200)
        return [float(1 / q.real) for q in qs if abs(q.imag) <= 1e-40 * max(1, abs(q)) and q.real != 0]


@SETTINGS
@given(points, st.integers(0, 2), perturbations)
# Newton lands on -1.88 although the third root -0.44 is nearer p_ref.
@example((8.665960068579462, 3.3948041493899126), 1, 1.3073)
# Inside a pair 2e-5 apart, where the two solves round differently.
@example((5.95647517597705, -3.029080263665009), 2, -2.45e-6)
def test_continuation_picks_the_nearest_full_solve_root(pt, k, eps):
    x, y = pt
    roots = slopes_at(x, y).roots
    p_ref = roots[k % len(roots)] * (1.0 + eps)
    p = _continued_root(x, y, p_ref)
    if p is not None:
        assert p == pytest.approx(nearest(roots, p_ref), rel=1e-12)


@SETTINGS
@given(st.one_of(points, near_axis()), st.integers(0, 2), perturbations)
def test_continuation_picks_the_nearest_exact_root(pt, k, eps):
    x, y = pt
    roots = exact_slopes(x, y)
    p_ref = roots[k % len(roots)] * (1.0 + eps)
    p = _continued_root(x, y, p_ref)
    if p is not None:
        assert p == pytest.approx(nearest(roots, p_ref), rel=1e-12)


@SETTINGS
@given(box_points())
def test_continuation_settles_on_each_root_off_the_evolute(pt):
    x, y = pt
    a = x - 2.0
    if abs(4.0 * a**3 - 27.0 * y * y) < 0.1 * (4.0 * abs(a) ** 3 + 27.0 * y * y):
        return
    for r in slopes_at(x, y).roots:
        assert _continued_root(x, y, r) == pytest.approx(r, rel=1e-12)


def test_double_root_takes_the_fallback():
    # (5, 2) lies on the evolute: -1 is a double slope root, 1/2 simple.
    for p_ref in (-1.0, -1.001, -0.999):
        assert _continued_root(5.0, 2.0, p_ref) is None
    assert _continued_root(5.0, 2.0, 0.5) is None  # the other pair collides


# (C, t0, max_arc, end reasons of the full-solve tracer).  The first four
# are the verify tracer suite's starts; the rest are trace workload starts
# on cusped and uncusped members, the last one a trace whose sample count
# moved by 2 under the continuation solve.
PINNED_ENDS = [
    (-1.0, 1.0, 40.0, ("branch-loss", "arc-limit")),
    (0.0, 1.0, 40.0, ("branch-loss", "arc-limit")),
    (1.0, 1.0, 40.0, ("branch-loss", "arc-limit")),
    (3.0, 1.0, 40.0, ("branch-loss", "arc-limit")),
    (0.42504643943255616, -1.1120162304098826, 20.0, ("branch-loss", "arc-limit")),
    (-3.126793179579411, 0.5385513867058332, 20.0, ("singularity", "branch-loss")),
    (-2.532918340425475, -0.3865989503223274, 20.0, ("singularity", "branch-loss")),
    (-2.2464404338068973, -1.1315851596129136, 20.0, ("singularity", "arc-limit")),
    (-3.80908676375989, -2.539177107165723, 20.0, ("singularity", "arc-limit")),
]


@pytest.mark.parametrize("C,t0,max_arc,ends", PINNED_ENDS)
def test_end_reasons_pinned(C, t0, max_arc, ends):
    cfg = TraceConfig(
        start=curve_point(TrajectoryCurve(C), t0),
        initial_slope_hint=1.0 / t0,
        tol=1e-8,
        max_arc=max_arc,
    )
    assert trace_orthogonal(cfg).end_reasons == ends

"""Property tests of the tracer's continuation root solve and stall test.

The tracer tracks q = 1/p = dx/dy, a root of the monic cubic
q^3 - (x - 2) q - y, so every root here is a q-root.

Covers:
  - wherever ``_tracked_root`` does not raise, it returns the exact root
    of the q-cubic (mpmath, 50 digits beyond the smallest root) nearest
    q_ref, to max(1e-12, 4 eps kappa) relative, where kappa is the root's
    condition number: box points, the evolute band
    27y^2 = 4(x - 2)^3 (1 +- delta), the near-axis band, the x-axis
    y = 0 itself (where q = 0 is a root, returned exactly), and q_ref
    perturbed from each root
  - off the collision band it returns the root that ``slopes_at`` (as
    q = 1/p) plus the nearest-root rule picks, to 1e-12 relative, so the
    start solve and the tracking agree
  - off the evolute it settles on each root it starts from
  - on the x-axis it settles on q = 0 from q = 0
  - on the evolute point (5, 2) it keeps the simple root and gives up on
    the double one
  - ``_stall_reason`` calls a stall at a cusp a singularity and one next
    to (or on) the vertex a branch loss
  - the pinned end reasons of the tracer-suite starts and of trace
    workload starts (cusped and uncusped members)

The box points keep |y| >= 1e-3: below that ``slopes_at``, the reference
of the second property, loses roots near the x-axis (ROADMAP item 1).
"""

import math
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthotraj import TraceConfig, TrajectoryCurve, curve_point, slopes_at, trace_orthogonal
from orthotraj.tracer import _BranchJump, _stall_reason, _tracked_root

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


@st.composite
def on_axis(draw):
    return draw(st.floats(-10.0, 10.0)), 0.0


points = st.one_of(box_points(), evolute_band())
# Relative offsets of q_ref from a root: none, down to rounding level (inside
# a near-double pair), and up to 3, past the neighbouring roots.
perturbations = st.one_of(
    st.just(0.0),
    st.builds(lambda s, m, e: s * m * 10.0**e, signs, st.floats(1.0, 3.0), st.integers(-16, 0)),
)


def nearest(roots, q_ref, q):
    """The root nearest q_ref; where distances tie to rounding, the one
    of those nearest q."""
    d = min(abs(r - q_ref) for r in roots)
    return min((r for r in roots if abs(r - q_ref) <= d * (1.0 + 1e-12)), key=lambda r: abs(r - q))


def exact_roots(x, y):
    """Real roots of q^3 - (x - 2) q - y by mpmath, with 50 digits to spare
    beyond the smallest root, about y / (x - 2); on the axis, from the
    factors q (q^2 - (x - 2))."""
    if y == 0.0:
        with mpmath.workdps(50):
            a = mpmath.mpf(x) - 2
            return [0.0] + ([float(mpmath.sqrt(a)), float(-mpmath.sqrt(a))] if a > 0 else [])
    with mpmath.workdps(50 + max(0, -math.floor(math.log10(abs(y))))):
        # Near-triple roots, as at (2, -1e-138), need far more than 200 steps.
        qs = mpmath.polyroots([1, 0, -(mpmath.mpf(x) - 2), -mpmath.mpf(y)], maxsteps=2000, extraprec=200)
        # Relative: the complex pair of a tiny root, as at (2, -1e-120), has
        # an imaginary part far below any absolute floor.
        return [float(q.real) for q in qs if abs(q.imag) <= 1e-40 * abs(q)]


def tracked(x, y, q_ref):
    """``_tracked_root``, or None where it raises ``_BranchJump``."""
    try:
        return _tracked_root(x, y, q_ref)
    except _BranchJump:
        return None


def off_collision_band(x, y):
    """Whether the q-cubic's discriminant 4a^3 - 27y^2 is not small against its terms."""
    a = x - 2.0
    return abs(4.0 * a**3 - 27.0 * y * y) >= 0.1 * (4.0 * abs(a) ** 3 + 27.0 * y * y)


@SETTINGS
@given(box_points(), st.integers(0, 2), perturbations)
# Newton lands on -2.36 although the third root -0.380 is nearer q_ref.
@example((8.63, 2.467), 2, -0.5722)
def test_continuation_picks_the_nearest_full_solve_root(pt, k, eps):
    x, y = pt
    if not off_collision_band(x, y):
        return
    roots = [1.0 / p for p in slopes_at(x, y).roots]
    q_ref = roots[k % len(roots)] * (1.0 + eps)
    q = tracked(x, y, q_ref)
    if q is not None:
        assert q == pytest.approx(nearest(roots, q_ref, q), rel=1e-12, abs=0.0)


@SETTINGS
@given(st.one_of(points, near_axis(), on_axis()), st.integers(0, 2), perturbations)
# Inside a pair 2e-5 apart.
@example((5.95647517597705, -3.029080263665009), 2, -2.45e-6)
# A near-triple root, where the oracle needs more than 200 steps.
@example((2.0, -1e-138), 0, 0.0)
# Newton lands on 1 or -1 while the root 1e-10 is nearer q_ref = 0.4994:
# the deflated pair's product must not come from q^2 - a, which cancels.
@example((3.0, -1e-10), 0, -1.4994)
@example((3.0, 0.0), 1, -0.5006)
def test_continuation_picks_the_nearest_exact_root(pt, k, eps):
    x, y = pt
    roots = exact_roots(x, y)
    q_ref = roots[k % len(roots)] * (1.0 + eps)
    q = tracked(x, y, q_ref)
    if q is not None:
        want = nearest(roots, q_ref, q)
        a = x - 2.0
        # kappa = 0 for the root q = 0 on the axis, which is returned exactly.
        scale = abs(want) ** 3 + abs(a * want) + abs(y)
        kappa = scale / abs(want * (3.0 * want * want - a)) if want else 0.0
        rel = max(1e-12, 4.0 * sys.float_info.epsilon * kappa)
        assert q == pytest.approx(want, rel=rel, abs=0.0)


@SETTINGS
@given(box_points())
def test_continuation_settles_on_each_root_off_the_evolute(pt):
    x, y = pt
    if not off_collision_band(x, y):
        return
    for p in slopes_at(x, y).roots:
        assert _tracked_root(x, y, 1.0 / p) == pytest.approx(1.0 / p, rel=1e-12, abs=0.0)


def test_vertex_root_settles_on_the_axis():
    # On y = 0, q = 0 (the vertical tangent) is a simple root like any other.
    for x in (3.0, -1.0):
        assert _tracked_root(x, 0.0, 0.0) == 0.0


def test_double_root_raises_a_branch_jump():
    # (5, 2) lies on the evolute: q = -1 is a double root, q = 2 simple.
    assert _tracked_root(5.0, 2.0, 2.0) == 2.0
    for q_ref in (-1.01, -1.001, -0.999, -0.99):
        with pytest.raises(_BranchJump):
            _tracked_root(5.0, 2.0, q_ref)


def test_stall_at_a_cusp_is_a_singularity():
    # The member C = -4 has its cusp at s^3 = 2, s = sqrt(1 + t^2): there
    # the tracked root q = t is double.
    t = math.sqrt(2.0 ** (2.0 / 3.0) - 1.0)
    for t_stall in (t, t * (1.0 - 1e-3)):
        pt = curve_point(TrajectoryCurve(-4.0), t_stall)
        assert _stall_reason(pt.x, pt.y, t_stall) == "singularity"


def test_stall_next_to_the_vertex_is_a_branch_loss():
    # Next to the vertex and on it, q = t is a simple root far from the others.
    for t_stall in (1e-4, -1e-6, 0.0):
        pt = curve_point(TrajectoryCurve(1.0), t_stall)
        assert _stall_reason(pt.x, pt.y, t_stall) == "branch-loss"


# (C, t0, max_arc, end reasons).  The first four are the verify tracer
# suite's starts, with twice the suite's arc budget; the rest are trace
# workload starts on cusped and uncusped members.  Members with C > -2
# have no cusp and trace their whole budget both ways, through the
# vertex; cusped ones stop at a cusp on either side.  The last one stalls
# next to its cusp at t = -0.0531, which a root-gap test once read as a
# branch loss.
PINNED_ENDS = [
    (-1.0, 1.0, 40.0, ("arc-limit", "arc-limit")),
    (0.0, 1.0, 40.0, ("arc-limit", "arc-limit")),
    (1.0, 1.0, 40.0, ("arc-limit", "arc-limit")),
    (3.0, 1.0, 40.0, ("arc-limit", "arc-limit")),
    (0.42504643943255616, -1.1120162304098826, 20.0, ("arc-limit", "arc-limit")),
    (-3.126793179579411, 0.5385513867058332, 20.0, ("singularity", "singularity")),
    (-2.532918340425475, -0.3865989503223274, 20.0, ("singularity", "singularity")),
    (-2.2464404338068973, -1.1315851596129136, 20.0, ("singularity", "arc-limit")),
    (-3.80908676375989, -2.539177107165723, 20.0, ("singularity", "arc-limit")),
    (-2.0084558412431455, -2.1956328064540727, 20.0, ("singularity", "arc-limit")),
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

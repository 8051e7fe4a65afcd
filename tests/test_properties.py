"""Property tests of the tracer's continuation root solve and stall test.

Covers:
  - wherever ``_tracked_root`` does not raise, it returns the exact root
    of the q-cubic (mpmath, 50 digits beyond the smallest root) nearest
    p_ref, to max(1e-12, 4 eps kappa) relative, where kappa is the root's
    condition number: box points, the evolute band
    27y^2 = 4(x - 2)^3 (1 +- delta), the near-axis band, and p_ref
    perturbed from each root
  - off the collision band it returns the root that ``slopes_at`` plus
    the nearest-root rule picks, to 1e-12 relative, so the start solve
    and the tracking agree
  - off the evolute it settles on each root it starts from
  - on the evolute point (5, 2) it keeps the simple root and gives up on
    the double one
  - ``_stall_reason`` calls a stall at a cusp a singularity and one next
    to the vertex a branch loss
  - the pinned end reasons of the tracer-suite starts and of trace
    workload starts (cusped, vertex and arc-limit ends)

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


points = st.one_of(box_points(), evolute_band())
# Relative offsets of p_ref from a root: none, down to rounding level (inside
# a near-double pair), and up to 3, past the neighbouring roots.
perturbations = st.one_of(
    st.just(0.0),
    st.builds(lambda s, m, e: s * m * 10.0**e, signs, st.floats(1.0, 3.0), st.integers(-16, 0)),
)


def nearest(roots, p_ref, p):
    """The root nearest p_ref; where distances tie to rounding, as for
    p_ref = 1e16 between -1 and 1, the one of those nearest p."""
    d = min(abs(r - p_ref) for r in roots)
    return min((r for r in roots if abs(r - p_ref) <= d * (1.0 + 1e-12)), key=lambda r: abs(r - p))


def exact_slopes(x, y):
    """Finite real slopes 1/q over the roots q of q^3 - (x - 2) q - y, by
    mpmath with 50 digits to spare beyond the smallest root, about y / (x - 2)."""
    with mpmath.workdps(50 + max(0, -math.floor(math.log10(abs(y))))):
        # Near-triple roots, as at (2, -1e-138), need far more than 200 steps.
        qs = mpmath.polyroots([1, 0, -(mpmath.mpf(x) - 2), -mpmath.mpf(y)], maxsteps=2000, extraprec=200)
        # Relative: the complex pair of a tiny root, as at (2, -1e-120), has
        # an imaginary part far below any absolute floor.
        return [float(1 / q.real) for q in qs if abs(q.imag) <= 1e-40 * abs(q) and q.real != 0]


def tracked(x, y, p_ref):
    """``_tracked_root``, or None where it raises ``_BranchJump``."""
    try:
        return _tracked_root(x, y, p_ref)
    except _BranchJump:
        return None


def off_collision_band(x, y):
    """Whether the q-cubic's discriminant 4a^3 - 27y^2 is not small against its terms."""
    a = x - 2.0
    return abs(4.0 * a**3 - 27.0 * y * y) >= 0.1 * (4.0 * abs(a) ** 3 + 27.0 * y * y)


@SETTINGS
@given(box_points(), st.integers(0, 2), perturbations)
# Newton lands on -1.88 although the third root -0.44 is nearer p_ref.
@example((8.665960068579462, 3.3948041493899126), 1, 1.3073)
def test_continuation_picks_the_nearest_full_solve_root(pt, k, eps):
    x, y = pt
    if not off_collision_band(x, y):
        return
    roots = slopes_at(x, y).roots
    p_ref = roots[k % len(roots)] * (1.0 + eps)
    if p_ref == 0.0:
        return  # never a slope, so the tracer never passes it
    p = tracked(x, y, p_ref)
    if p is not None:
        assert p == pytest.approx(nearest(roots, p_ref, p), rel=1e-12)


@SETTINGS
@given(st.one_of(points, near_axis()), st.integers(0, 2), perturbations)
# Inside a pair 2e-5 apart.
@example((5.95647517597705, -3.029080263665009), 2, -2.45e-6)
# A near-triple root, where the oracle needs more than 200 steps.
@example((2.0, -1e-138), 0, 0.0)
# p_ref = 1e16 ties between the slopes -1 and 1 at double precision.
@example((3.0, 1e-16), 1, -2.0)
def test_continuation_picks_the_nearest_exact_root(pt, k, eps):
    x, y = pt
    roots = exact_slopes(x, y)
    p_ref = roots[k % len(roots)] * (1.0 + eps)
    if p_ref == 0.0:
        return  # never a slope, so the tracer never passes it
    p = tracked(x, y, p_ref)
    if p is not None:
        want = nearest(roots, p_ref, p)
        q, a = 1.0 / want, x - 2.0
        kappa = (abs(q) ** 3 + abs(a * q) + abs(y)) / abs(q * (3.0 * q * q - a))
        assert p == pytest.approx(want, rel=max(1e-12, 4.0 * sys.float_info.epsilon * kappa))


@SETTINGS
@given(box_points())
def test_continuation_settles_on_each_root_off_the_evolute(pt):
    x, y = pt
    if not off_collision_band(x, y):
        return
    for r in slopes_at(x, y).roots:
        assert _tracked_root(x, y, r) == pytest.approx(r, rel=1e-12)


def test_double_root_raises_a_branch_jump():
    # (5, 2) lies on the evolute: -1 is a double slope root, 1/2 simple.
    assert _tracked_root(5.0, 2.0, 0.5) == 0.5
    for p_ref in (-1.01, -1.001, -0.999, -0.99):
        with pytest.raises(_BranchJump):
            _tracked_root(5.0, 2.0, p_ref)


def test_stall_at_a_cusp_is_a_singularity():
    # The member C = -4 has its cusp at s^3 = 2, s = sqrt(1 + t^2): there
    # the tracked root t = 1/p is double.
    t = math.sqrt(2.0 ** (2.0 / 3.0) - 1.0)
    for t_stall in (t, t * (1.0 - 1e-3)):
        pt = curve_point(TrajectoryCurve(-4.0), t_stall)
        assert _stall_reason(pt.x, pt.y, 1.0 / t_stall) == "singularity"


def test_stall_next_to_the_vertex_is_a_branch_loss():
    for t_stall in (1e-4, -1e-6):
        pt = curve_point(TrajectoryCurve(1.0), t_stall)
        assert _stall_reason(pt.x, pt.y, 1.0 / t_stall) == "branch-loss"


# (C, t0, max_arc, end reasons).  The first four are the verify tracer
# suite's starts; the rest are trace workload starts on cusped and
# uncusped members.  The last one stalls next to its cusp at t = -0.0531,
# which a root-gap test once read as a branch loss.
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

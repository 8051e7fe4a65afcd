"""One input rule for every entry point.

Covers:
  - an int past the float range (10**400), where ``float`` raises
    ``OverflowError``, fed to each numeric argument of the 24 probes
    below: each raises ``DomainError``, whose message does not format the
    int (``repr`` itself fails past 4,300 digits)
  - an int inside the float range gives the result of its float, where
    the arithmetic once kept the int and overflowed
"""

import pytest

from orthotraj import (
    PARABOLA_NORMALS,
    DomainError,
    Point,
    TraceConfig,
    TrajectoryCurve,
    bracketed_root,
    curve_point,
    curve_slope,
    curve_velocity,
    exactness_defect,
    integrating_factor,
    intersections,
    line_at,
    ode_c_residual,
    ode_o_residual,
    orthogonal_foot,
    potential,
    raw_form,
    scaled_form,
    slopes_at,
    solve_for_xy,
    trace_orthogonal,
)
from orthotraj.core_model import sample

BIG = 10**400
CURVE = TrajectoryCurve(1.0)

PROBES = {
    "TrajectoryCurve-C": lambda v: TrajectoryCurve(v),
    "curve_point-t": lambda v: curve_point(CURVE, v),
    "curve_velocity-t": lambda v: curve_velocity(CURVE, v),
    "curve_slope-t": lambda v: curve_slope(CURVE, v),
    "sample-t": lambda v: sample(CURVE, v),
    "line_at-m": lambda v: line_at(PARABOLA_NORMALS, v),
    "orthogonal_foot-m": lambda v: orthogonal_foot(PARABOLA_NORMALS, v, CURVE),
    "ode_c_residual-x": lambda v: ode_c_residual(v, 1.0, 1.0),
    "ode_o_residual-p": lambda v: ode_o_residual(1.0, 1.0, v),
    "slopes_at-x": lambda v: slopes_at(v, 1.0),
    "bracketed_root-hi": lambda v: bracketed_root(lambda t: t, -1.0, v),
    "raw_form-M-p": lambda v: raw_form().M(1.0, v),
    "raw_form-N-p": lambda v: raw_form().N(1.0, v),
    "scaled_form-M-p": lambda v: scaled_form().M(1.0, v),
    "scaled_form-N-p": lambda v: scaled_form().N(1.0, v),
    "integrating_factor-p": lambda v: integrating_factor(v),
    "exactness_defect-p": lambda v: exactness_defect(scaled_form(), 1.0, v),
    "potential-p": lambda v: potential(1.0, v),
    "solve_for_xy-p": lambda v: solve_for_xy(v, 1.0),
    "TraceConfig-initial_slope_hint": lambda v: TraceConfig(start=Point(1.0, 2.0), initial_slope_hint=v),
    "TraceConfig-step": lambda v: TraceConfig(start=Point(1.0, 2.0), step=v),
    "trace_orthogonal-start": lambda v: trace_orthogonal(TraceConfig(start=Point(v, 2.0))),
    "intersections-m": lambda v: intersections(v, CURVE, -10.0, 10.0),
    "intersections-t_max": lambda v: intersections(1.0, CURVE, -10.0, v),
}


@pytest.mark.parametrize("call", PROBES.values(), ids=PROBES.keys())
def test_an_int_past_the_float_range_is_a_domain_error(call):
    with pytest.raises(DomainError, match="must be finite, got a number past the float range"):
        call(BIG)


def test_an_int_too_long_to_print_is_a_domain_error():
    with pytest.raises(DomainError):
        slopes_at(10**5000, 1.0)


def test_an_int_in_the_float_range_reads_as_its_float():
    assert potential(1, 10**200) == potential(1, 1e200)
    assert solve_for_xy(10**200, 1) == solve_for_xy(1e200, 1.0)

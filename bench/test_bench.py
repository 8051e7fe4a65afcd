"""Tests of the benchmark itself: its inputs, its oracle and its metric names.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import math
import os
import re
import sys

import pytest

import inputs
import oracle
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from orthotraj.core_model import (  # noqa: E402
    PARABOLA_NORMALS,
    Point,
    TrajectoryCurve,
    orthogonal_foot,
)
from orthotraj.geometry_analysis import intersections  # noqa: E402
from orthotraj.roots import slopes_at  # noqa: E402
from orthotraj.tracer import TraceConfig, trace_orthogonal  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("workload", ["field", "trace", "geometry"])
def test_inputs_are_deterministic_per_seed(workload):
    first = inputs.make_inputs(workload, 7)
    assert first == inputs.make_inputs(workload, 7)
    assert inputs.inputs_hash(first) == inputs.inputs_hash(inputs.make_inputs(workload, 7))
    assert inputs.inputs_hash(first) != inputs.inputs_hash(inputs.make_inputs(workload, 8))


def test_field_check_flags_near_axis_root_loss():
    x, y = 3.0, 1e-6
    want = oracle.field_root_count(x, y)
    assert want == 3
    assert oracle.check_slopes(x, y, slopes_at(x, y).roots, want) is not None
    assert oracle.known_root_loss(x, y)


def test_field_check_passes_a_regular_point():
    x, y = 1.0, 1.0
    want = oracle.field_root_count(x, y)
    assert oracle.check_slopes(x, y, slopes_at(x, y).roots, want) is None
    assert not oracle.known_root_loss(x, y)


def _check_pair(m, C):
    curve = TrajectoryCurve(C)
    foot = orthogonal_foot(PARABOLA_NORMALS, m, curve)
    records = intersections(m, curve, -10.0, 10.0)
    return oracle.check_geometry(m, C, foot, records, oracle.crossing_roots(m, C, -10.0, 10.0))


def test_geometry_check_flags_missed_tangency():
    # The line m = 1 touches C = -2 sqrt(2) at t = 1, the point (3, 0).
    C = -2.0 * math.sqrt(2.0)
    roots = oracle.crossing_roots(1.0, C, -10.0, 10.0)
    assert any(tangent and abs(t - 1.0) < 1e-9 for t, tangent in roots)
    reason, known = _check_pair(1.0, C)
    assert reason is not None and reason.startswith("missed-crossing")
    assert known


def test_geometry_check_passes_the_parabola():
    # m = 1 meets y^2 = 4x at the foot t = -1 and again at t = 3.
    roots = [t for t, _ in oracle.crossing_roots(1.0, 0.0, -10.0, 10.0)]
    assert roots == pytest.approx([-1.0, 3.0])
    assert _check_pair(1.0, 0.0) == (None, False)


def test_trace_check_passes_a_trace_and_flags_an_offset_sample():
    C, t0 = 1.0, 1.0
    x0, y0 = inputs.curve_xy(C, t0)
    cfg = TraceConfig(start=Point(x0, y0), initial_slope_hint=1.0 / t0, max_arc=2.0)
    res = trace_orthogonal(cfg)
    assert oracle.check_trace(x0, y0, 1.0 / t0, 1e-8, res.samples) is None
    (pt, p), rest = res.samples[0], res.samples[1:]
    moved = [(Point(pt.x + 1e-4, pt.y), p)] + rest
    assert oracle.check_trace(x0, y0, 1.0 / t0, 1e-8, moved).startswith("deviation")


def _fake_result(workload):
    return {
        "op_s": [0.01, 0.02, 0.03],
        "blocks": [(2, 1.1), (1, 0.9)],
        "work": [2.0, 2.0, 2.0] if workload == "trace" else [1.0, 1.0, 1.0],
        "attempted": 3,
        "failed": 1,
        "failed_known": 1,
        "peak_rss_mb": 40.0,
        "spans": None,
    }


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in [*e2e, *layers, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name), name
    for workload in run.WORKLOADS:
        res = _fake_result(workload)
        metrics, extra = run.end_to_end(workload, res, (0.1, 0.1))
        assert {name: unit for name, (_, unit) in metrics.items()} == e2e
        assert all(NAME.fullmatch(name) for name in extra)
        traced = run.per_layer(workload, res, res, 2.0)
        assert {name: unit for name, (_, unit) in traced.items()} == layers


def test_result_line_counts_known_defects_only_in_pass_frac():
    res = _fake_result("field")
    metrics, _ = run.end_to_end("field", res, (0.1, 0.1))
    line = run.result_line(res, metrics)
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 3, 0)
    assert line["metrics"]["pass_frac"]["value"] == pytest.approx(2.0 / 3.0)
    line = run.result_line({**res, "failed_known": 0}, metrics)
    assert (line["correct"], line["failed"]) == (False, 1)

"""CLI and SVG rendering tests.

Covers:
  - SVG well-formedness, element counts, dashed-curve bookkeeping
  - byte determinism of render_figure, and the preset figures' bytes
  - tick spacing that coarsens with the window, and curves that cannot
    be drawn in finite pixel coordinates
  - plot spec validation with field-named errors, one validator for
    specs built in Python and specs read from JSON
  - exit codes: 0 success, 1 verification/trace failure, 2 usage/config,
    malformed config or spec values, unwritable outputs, argument values
    outside the library's domain (DomainError); classify answers (exit 0)
    up to C = 1e308
  - config-file merging, unknown-key rejection and flag precedence;
    trace has no --tol, as its samples are closed-form points
  - classify prints cusp parameters short enough to read at any C, and
    they parse back to 1e-9 relative; intersect prints its crossings
    short at any m, to 9 significant digits, and no slope product -0
  - --help showing every default and required parameter, and a report's
    inputs listing every parameter
  - exact numeric round-trip of flags through the JSON report, negative
    numbers in exponent notation included
  - the module entry point via a subprocess, and a closed stdout that
    exits 141 with nothing on stderr and keeps the --json-out report
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import orthotraj
from orthotraj import cli_plot
from orthotraj.cli_plot import (
    CurveSpec,
    PlotSpec,
    preset_spec,
    render_figure,
    run,
)
from orthotraj.core_model import TrajectoryCurve, cusp_parameters
from orthotraj.geometry_analysis import intersections
from orthotraj.errors import ConfigError


def svg_elements(svg, cls):
    root = ET.fromstring(svg)
    return [el for el in root.iter() if el.get("class") == cls]


def svg_path_count(svg):
    root = ET.fromstring(svg)
    return sum(1 for el in root.iter() if el.tag.endswith("}path"))


class TestRenderFigure:
    def test_preset_counts(self):
        for name, cs in (("fig1a", (0.0, 1.0, 2.0, 3.0)), ("fig1b", (0.0, -1.0, -2.0, -4.0))):
            spec = preset_spec(name)
            assert tuple(c.C for c in spec.curves) == cs
            assert spec.lines == (1.0, 2.0, -3.0)
            svg = render_figure(spec)
            curves = svg_elements(svg, "curve")
            lines = svg_elements(svg, "family-line")
            assert len(curves) == 4
            assert len(lines) == 3
            dashed = [p for p in curves if p.get("stroke-dasharray")]
            assert len(dashed) == 1

    def test_determinism(self):
        spec = preset_spec("fig1a")
        assert render_figure(spec) == render_figure(spec)

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("fig1a", "195368718ef04b69f1bb38d582776527e30087cab823d6d7eafd31d3f45ff7b0"),
            ("fig1b", "1abed68c8b2ef3518492690c0e9e62689455c6531e671a1fcd856e9709a3c07e"),
        ],
    )
    def test_preset_bytes(self, name, digest):
        """The digests were taken when the curve nodes came from
        np.linspace, so a match proves that ``core_model.linspace``'s
        nodes t0 + j step (then t1) equal np.linspace's bit for bit."""
        svg = render_figure(preset_spec(name))
        assert hashlib.sha256(svg.encode()).hexdigest() == digest

    def test_empty_spec_axes_only(self):
        svg = render_figure(PlotSpec())
        ET.fromstring(svg)  # parses
        assert svg_elements(svg, "curve") == []
        assert svg_elements(svg, "family-line") == []
        assert svg_elements(svg, "axis")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_spec("fig2")

    def test_invalid_specs_name_field(self):
        with pytest.raises(ConfigError, match="x_window"):
            render_figure(PlotSpec(x_window=(1.0, 1.0)))
        with pytest.raises(ConfigError, match="samples_per_curve"):
            render_figure(PlotSpec(samples_per_curve=1))
        with pytest.raises(ConfigError, match="t_range"):
            render_figure(PlotSpec(curves=(CurveSpec(C=0.0, t_range=(2.0, 1.0)),)))
        with pytest.raises(ConfigError, match="width_px"):
            render_figure(PlotSpec(width_px=0))
        # The values the JSON path rejects are rejected in Python too.
        with pytest.raises(ConfigError, match="samples_per_curve"):
            render_figure(PlotSpec(samples_per_curve=2.5, curves=(CurveSpec(0.0),)))
        with pytest.raises(ConfigError, match="width_px"):
            render_figure(PlotSpec(width_px=math.inf))
        with pytest.raises(ConfigError, match="x_window"):
            render_figure(PlotSpec(x_window=(0.0, math.inf)))
        with pytest.raises(ConfigError, match="t_range"):
            render_figure(PlotSpec(curves=(CurveSpec(0.0, t_range=(0.0, math.inf)),)))
        # Curves whose pixel coordinates overflow: a huge C, or an ordinary
        # curve in a window whose pixel scale is finite but near the limit.
        with pytest.raises(ConfigError, match="curves: C"):
            render_figure(PlotSpec(curves=(CurveSpec(C=1e308),)))
        with pytest.raises(ConfigError, match="curves: C"):
            render_figure(PlotSpec(curves=(CurveSpec(C=0.0),), x_window=(0.0, 4e-306)))
        with pytest.raises(ConfigError, match="x_window"):
            render_figure(PlotSpec(x_window=(-1e-307, 1e-307)))

    @staticmethod
    def axis_ticks(svg):
        """Tick marks on the x axis (vertical marks) and on the y axis."""
        marks = svg_elements(svg, "tick")
        return ([t for t in marks if t.get("x1") == t.get("x2")],
                [t for t in marks if t.get("y1") == t.get("y2")])

    @pytest.mark.parametrize("half, count", [(50.0, 50), (1e12, 10)])
    def test_ticks_coarsen_past_100_units(self, half, count):
        # Every 2 units while the window is at most 100 wide (-50 .. 50
        # without 0), then every 2e11 on +-1e12 (1e12 ticks at the old step).
        window = (-half, half)
        x_ticks, y_ticks = self.axis_ticks(render_figure(PlotSpec(x_window=window,
                                                                  y_window=window)))
        assert len(x_ticks) == len(y_ticks) == count

    def test_horizontal_and_off_window_lines(self):
        # m = 0 is the axis y = 0, drawn across the window; m = 10 is
        # y = 10x - 1020, which misses it and draws an empty path.
        svg = render_figure(PlotSpec(lines=(0.0, 10.0)))
        assert [el.get("d") for el in svg_elements(svg, "family-line")] == [
            "M 0.00,360.00 L 640.00,360.00", ""]
        svg = render_figure(PlotSpec(lines=(0.0,), y_window=(1.0, 9.0)))
        assert [el.get("d") for el in svg_elements(svg, "family-line")] == [""]

    def test_path_count_matches_declaration(self):
        # Total <path> elements equal declared curves + lines; axes and
        # ticks are <line> elements and never inflate the count.
        spec = PlotSpec(
            curves=(CurveSpec(C=0.0, dashed=True), CurveSpec(C=-4.0)),
            lines=(1.0,),
        )
        svg = render_figure(spec)
        assert len(svg_elements(svg, "curve")) == 2
        assert len(svg_elements(svg, "family-line")) == 1
        assert svg_path_count(svg) == 3
        assert svg_path_count(render_figure(preset_spec("fig1a"))) == 7
        assert svg_path_count(render_figure(PlotSpec())) == 0


class TestRunExitCodes:
    def test_verify_single_suite(self, capsys):
        assert run(["verify", "--suite", "cusps"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "checks passed" in out

    def test_verify_unknown_suite(self, capsys):
        assert run(["verify", "--suite", "nope"]) == 2

    def test_trace_failure_exit_code(self, capsys):
        assert run(["trace", "--x0", "1", "--y0", "0"]) == 1

    @pytest.mark.parametrize("y0", ["-1e-6", "-1e-9"])
    def test_trace_spurious_start_root_fails(self, y0, capsys):
        # slopes_at returns p = 1.1e-6 at y0 = -1e-6 and p = 0 at -1e-9,
        # neither a root: the trace fails instead of tracing the axis.
        assert run(["trace", "--x0", "0", f"--y0={y0}"]) == 1
        assert capsys.readouterr().err.startswith("trace failed: ")

    def test_trace_far_start_runs_to_its_arc_budget(self, capsys):
        # The one slope at (2, 1e10) is about 4.6e-4, never 0; with no
        # box, both legs spend their arc budget.
        assert run(["trace", "--x0", "2", "--y0", "1e10"]) == 0
        assert "end reasons: backward=arc-limit, forward=arc-limit" in capsys.readouterr().out

    def test_trace_has_no_tol_flag(self, capsys):
        # The samples are closed-form points, so there is no error to bound.
        assert run(["trace", "--x0", "1", "--y0", "2", "--tol", "1e-8"]) == 2

    def test_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2
        assert run([]) == 2

    def test_intersect_ok(self, capsys):
        assert run(["intersect", "-m", "1", "-C", "0"]) == 0
        out = capsys.readouterr().out
        assert "orthogonal" in out
        assert "2 intersection(s)" in out

    def test_classify_ok(self, capsys):
        assert run(["classify", "-C", "0"]) == 0
        assert "parabola" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["intersect", "-m", "1", "-C", "0", "--t-min", "5", "--t-max", "-5"],
        ],
        ids=["intersect-window"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_domain_error_is_usage_error(self, argv, capsys):
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("C", ["1e300", "4e307", "1e308"],
                             ids=["classify-overflow", "classify-mean", "classify-max"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_classify_answers_for_huge_C(self, C, tmp_path, capsys):
        # The exact fit's integers do not overflow, so the evidence exists
        # for every finite C, as the verdict does.
        report_path = tmp_path / "r.json"
        assert run(["classify", "-C", C, "--json-out", str(report_path)]) == 0
        assert f"curve C={float(C):g}: non-conic\n" in capsys.readouterr().out
        results = json.loads(report_path.read_text())["results"]
        assert results["classification"] == "non-conic"
        assert 0.0 < results["conic_residual"] < 1.0
        assert all(map(math.isfinite, results["conic_coeffs"]))

    @pytest.mark.parametrize("C", ["-1.7e308", "-4", "-2.0000000001"])
    def test_classify_cusp_line_is_short_and_parses_back(self, C, capsys):
        # Printed with :.6f, the cusps of C = -1.7e308 read as 100-digit integers.
        assert run(["classify", "-C", C]) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if "cusp count" in ln]
        assert len(line) <= 80
        printed = [float(v) for v in line.split(" at t = ")[1].split(", ")]
        cusps = cusp_parameters(TrajectoryCurve(float(C)))
        assert len(printed) == len(cusps)
        for got, want in zip(printed, cusps):
            assert abs(got - want) <= 1e-9 * abs(want)

    @pytest.mark.parametrize("argv", [
        ["-m", "1.5", "-C", "-3.90625"],
        ["-m", "0", "-C", "-3"],
        ["-m", "1e200", "-C", "0", "--t-min", "-1e300", "--t-max", "1e300"],
        ["-m", "-3e-7", "-C", "1e300"],
    ])
    def test_intersect_lines_are_short_and_parse_back(self, argv, capsys):
        # Printed with : .9f, the crossings of m = 1e200 read as 200-digit
        # numbers.  Nine significant digits round by at most 5e-9 relative.
        assert run(["intersect", *argv]) == 0
        m, C = float(argv[1]), float(argv[3])
        t_min, t_max = (float(argv[5]), float(argv[7])) if len(argv) > 4 else (-10.0, 10.0)
        records = intersections(m, TrajectoryCurve(C), t_min, t_max)
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == len(records)
        for line, rec in zip(lines, records):
            assert len(line) <= 120
            t, xy = line.split("  point = (")[0].split("t = ")[1], line.split("(")[1].split(")")[0]
            printed = [float(t), *map(float, xy.split(", "))]
            for got, want in zip(printed, (rec.t, *rec.point)):
                assert got == want or abs(got - want) <= 5e-9 * abs(want)
            assert "slope product = -0 " not in line

    def test_plot_exclusive_source(self, tmp_path, capsys):
        out = str(tmp_path / "fig.svg")
        assert run(["plot", "-o", out]) == 2
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"curves": [{"C": 0}], "lines": [1]}')
        assert run(["plot", "--preset", "fig1a", "--spec", str(spec_path), "-o", out]) == 2

    def test_plot_missing_out(self, capsys):
        assert run(["plot", "--preset", "fig1a"]) == 2

    def test_unwritable_outputs(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert run(["plot", "--preset", "fig1a", "-o", str(missing / "x.svg")]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert run(["verify", "--suite", "cusps", "--json-out", str(missing / "r.json")]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestPlotCommand:
    def test_writes_preset(self, tmp_path, capsys):
        out = tmp_path / "fig1a.svg"
        assert run(["plot", "--preset", "fig1a", "-o", str(out)]) == 0
        svg = out.read_text()
        assert len(svg_elements(svg, "curve")) == 4

    def test_custom_spec_document(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "curves": [
                        {"C": 0.0, "dashed": True, "t_range": [-2.0, 2.0]},
                        {"C": -4.0},
                    ],
                    "lines": [1.0, -3.0],
                    "samples_per_curve": 100,
                }
            )
        )
        out = tmp_path / "fig.svg"
        assert run(["plot", "--spec", str(spec_path), "-o", str(out)]) == 0
        svg = out.read_text()
        assert len(svg_elements(svg, "curve")) == 2
        assert len(svg_elements(svg, "family-line")) == 2

    @pytest.mark.parametrize(
        "doc, field",
        [
            ('{"curves": [], "zoom": 2}', "zoom"),
            ('{"width_px": "abc"}', "width_px"),
            ('{"width_px": 2.5}', "width_px"),
            ('{"curves": [{"C": "x"}]}', "curves: C"),
            ('{"curves": [{"C": 0, "t_range": 3}]}', "t_range"),
            ('{"curves": [{"C": 0, "t_range": [-1, 0, 1]}]}', "t_range"),
            ('{"x_window": ["a", 1]}', "x_window"),
            ('{"lines": 1}', "lines"),
            ('{"lines": [1' + "0" * 400 + "]}", "lines"),
            ('{"curves": [{"C": 0, "dashed": "no"}]}', "dashed"),
            ('{"curves": [{"C": 1e308}]}', "curves: C"),
            ('{"curves": [0]}', "curves entries must be objects"),
            ('{"curves": [{"C": 0, "colour": "red"}]}', "unknown curve keys: ['colour']"),
            ('{"curves": [{"dashed": true}]}', "missing required key 'C'"),
        ],
        ids=["unknown-key", "width-str", "width-frac", "C-str", "t_range-int", "t_range-3",
             "x_window-str", "lines-int", "lines-huge-int", "dashed-str", "C-overflow",
             "curve-not-object", "curve-unknown-key", "curve-without-C"],
    )
    def test_spec_document_unknown_key(self, tmp_path, capsys, doc, field):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(doc)
        assert run(["plot", "--spec", str(spec_path), "-o", str(tmp_path / "f.svg")]) == 2
        assert field in capsys.readouterr().err

    def test_plot_report(self, tmp_path, capsys):
        out = tmp_path / "fig.svg"
        report_path = tmp_path / "report.json"
        assert (
            run(
                ["plot", "--preset", "fig1b", "-o", str(out), "--json-out", str(report_path)]
            )
            == 0
        )
        report = json.loads(report_path.read_text())
        assert report["command"] == "plot"
        assert report["pass"] is True
        assert report["results"]["n_curves"] == 4


class TestConfigMerging:
    def test_config_defaults_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"m": 2.0, "C": 1.0}')
        report_path = tmp_path / "report.json"
        assert (
            run(
                [
                    "intersect",
                    "--config",
                    str(cfg),
                    "-C",
                    "0",
                    "--json-out",
                    str(report_path),
                ]
            )
            == 0
        )
        report = json.loads(report_path.read_text())
        assert report["inputs"]["m"] == 2.0  # from config
        assert report["inputs"]["C"] == 0.0  # flag wins

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"m": 1.0, "C": 0.0, "bogus": 1}')
        assert run(["intersect", "--config", str(cfg)]) == 2

    def test_non_finite_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"m": Infinity, "C": 0.0}')
        assert run(["intersect", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "doc, key", [('{"out": 5}', "out"), ('{"spec": 0}', "spec")], ids=["out", "spec"]
    )
    def test_non_string_config_value_rejected(self, tmp_path, capsys, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc)
        assert run(["plot", "--preset", "fig1a", "--config", str(cfg)]) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}"], ids=["missing", "not-utf8"])
    def test_unreadable_config_rejected(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_bytes(content)
        assert run(["intersect", "-m", "1", "-C", "0", "--config", str(cfg)]) == 2
        assert "cfg.json" in capsys.readouterr().err

    def test_config_array_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert run(["intersect", "-m", "1", "-C", "0", "--config", str(cfg)]) == 2
        assert "config document must be a JSON object" in capsys.readouterr().err

    def test_missing_required_parameter(self, capsys):
        assert run(["intersect", "-m", "1"]) == 2
        assert "missing required parameter 'C'" in capsys.readouterr().err

    def test_required_parameters_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"x0": 1.0, "y0": 2.0}')
        assert run(["trace", "--config", str(cfg)]) == 0
        assert "traced" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, shown",
        [
            ("verify", ["suite name or 'all' (default all)"]),
            ("trace", ["start x (required)", "start y (required)", "initial slope hint"]),
            ("intersect", ["line slope (required)", "curve constant (required)",
                           "window start (default -10.0)", "window end (default 10.0)"]),
            ("classify", ["curve constant (required)"]),
            ("plot", ["output SVG path (required)"]),
        ],
    )
    def test_help_shows_defaults_and_required(self, command, shown, capsys):
        assert run([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
        for phrase in shown:
            assert phrase in text

    @pytest.mark.parametrize("value", ["-2e-1", "-1.5E+2", "-1e-300"])
    def test_negative_exponent_values(self, tmp_path, capsys, value):
        # argparse up to Python 3.12 reads these as options unless joined.
        report_path = tmp_path / "report.json"
        argv = ["intersect", "-m", value, "-C", value, "--t-min", value,
                "--json-out", str(report_path)]
        assert run(argv) == 0
        inputs = json.loads(report_path.read_text())["inputs"]
        assert inputs["m"] == inputs["C"] == inputs["t_min"] == float(value)

    def test_negative_infinity_is_rejected(self, capsys):
        assert run(["intersect", "-m", "-inf", "-C", "0"]) == 2
        assert "parameter 'm' must be a finite number" in capsys.readouterr().err

    def test_numeric_flags_roundtrip_exactly(self, tmp_path, capsys):
        # Awkward decimal values must echo through the JSON report
        # bit-for-bit.
        report_path = tmp_path / "report.json"
        m = "0.30000000000000004"
        t_max = "3.7355339059327378"
        assert (
            run(
                [
                    "intersect",
                    "-m",
                    m,
                    "-C",
                    "-2.2250738585072014",
                    "--t-min",
                    "-9.87654321",
                    "--t-max",
                    t_max,
                    "--json-out",
                    str(report_path),
                ]
            )
            == 0
        )
        report = json.loads(report_path.read_text())
        assert report["inputs"]["m"] == float(m)
        assert report["inputs"]["C"] == float("-2.2250738585072014")
        assert report["inputs"]["t_min"] == float("-9.87654321")
        assert report["inputs"]["t_max"] == float(t_max)

    def test_trace_report(self, tmp_path, capsys):
        report_path = tmp_path / "trace.json"
        assert (
            run(
                [
                    "trace",
                    "--x0",
                    "1",
                    "--y0",
                    "2",
                    "--p0",
                    "1",
                    "--json-out",
                    str(report_path),
                ]
            )
            == 0
        )
        report = json.loads(report_path.read_text())
        assert report["inputs"] == {"x0": 1.0, "y0": 2.0, "p0": 1.0}
        assert list(report["inputs"]) == ["x0", "y0", "p0"]
        assert report["pass"] is True
        assert report["results"]["n_samples"] == len(report["results"]["samples"])
        drift = report["results"]["potential_drift"]
        assert isinstance(drift, float) and drift <= 1e-6

    def test_trace_report_lists_unset_parameters(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        assert run(["trace", "--x0", "1", "--y0", "2", "--json-out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["inputs"] == {"x0": 1.0, "y0": 2.0, "p0": None}
        # The inputs, nulls included, serve as a config for the same run.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(report["inputs"]))
        assert run(["trace", "--config", str(cfg), "--json-out", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["inputs"] == report["inputs"]

    def test_intersect_report_writes_an_infinite_slope_product(self, tmp_path, capsys):
        # The foot of m = 0 is t = 0, a vertical tangent: m / t is inf.
        report_path = tmp_path / "r.json"
        assert run(["intersect", "-m", "0", "-C", "0", "--json-out", str(report_path)]) == 0
        (record,) = json.loads(report_path.read_text())["results"]
        assert record == {"t": 0.0, "x": 0.0, "y": 0.0, "slope_product": "inf", "orthogonal": True}

    def test_verify_report(self, tmp_path, capsys):
        report_path = tmp_path / "verify.json"
        assert run(["verify", "--suite", "cusps", "--json-out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["pass"] is True
        assert all(row["passed"] for row in report["results"])


def child_env():
    """The environment of a child that imports the same package as this
    test, however pytest found it."""
    src = os.path.dirname(os.path.dirname(orthotraj.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "orthotraj.cli_plot", "verify", "--suite", "extra-crossing"],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "[PASS]" in proc.stdout


@pytest.mark.parametrize("argv", [["verify", "--suite", "all"], ["classify", "-C", "1"]],
                         ids=["verify", "classify"])
def test_closed_stdout_exits_quietly(argv):
    # As in `ortho-traj verify | head -n 1` where head has gone: the child
    # writes its whole output in one block at exit, so a reader that takes
    # one line and then closes races that write; closing the read end
    # before the child starts makes the broken pipe certain.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "orthotraj.cli_plot", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              timeout=120, env=child_env())
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 141


def test_closed_stdout_keeps_the_json_report(tmp_path):
    # Unbuffered, the child's first line breaks the pipe at once, which
    # lost the report when the handler printed before it was written.
    report = tmp_path / "r.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "orthotraj.cli_plot", "verify", "--suite", "cusps",
             "--json-out", str(report)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(child_env(), PYTHONUNBUFFERED="1"),
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 141
    doc = json.loads(report.read_text())
    assert doc["command"] == "verify" and doc["pass"] is True
    assert len(doc["results"]) == 8

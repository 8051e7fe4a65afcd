"""CLI and SVG rendering tests.

Covers:
  - SVG well-formedness, element counts, dashed-curve bookkeeping
  - byte determinism of render_figure, and the preset figures' bytes
  - plot spec validation with field-named errors
  - exit codes: 0 success, 1 verification/trace failure, 2 usage/config,
    malformed config or spec values, unwritable outputs, argument values
    outside the library's domain (DomainError)
  - config-file merging, unknown-key rejection, flag precedence
  - exact numeric round-trip of flags through the JSON report
  - the module entry point via a subprocess
"""

import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import orthotraj
from orthotraj.cli_plot import (
    CurveSpec,
    PlotSpec,
    preset_spec,
    render_figure,
    run,
)
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
        np.linspace, so a match proves that the pure-Python nodes
        t0 + j step (then t1) equal np.linspace's bit for bit."""
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

    def test_trace_far_start_leaves_the_box(self, capsys):
        # The one slope at (2, 1e10) is about 4.6e-4, never 0.
        assert run(["trace", "--x0", "2", "--y0", "1e10"]) == 0
        assert "terminated_by: domain-exit" in capsys.readouterr().out

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
            ["trace", "--x0", "1", "--y0", "2", "--tol", "0"],
            ["classify", "-C", "1e300"],
            ["classify", "-C", "4e307"],
            ["classify", "-C", "1e308"],
        ],
        ids=["intersect-window", "trace-tol", "classify-overflow", "classify-mean", "classify-max"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_domain_error_is_usage_error(self, argv, capsys):
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

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
        ],
        ids=["unknown-key", "width-str", "width-frac", "C-str", "t_range-int", "t_range-3",
             "x_window-str", "lines-int", "lines-huge-int", "dashed-str"],
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

    def test_missing_required_parameter(self, capsys):
        assert run(["intersect", "-m", "1"]) == 2

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
                    "--tol",
                    "1e-8",
                    "--json-out",
                    str(report_path),
                ]
            )
            == 0
        )
        report = json.loads(report_path.read_text())
        assert report["inputs"] == {"x0": 1.0, "y0": 2.0, "p0": 1.0, "tol": 1e-8}
        assert list(report["inputs"]) == ["x0", "y0", "p0", "tol"]
        assert report["pass"] is True
        assert report["results"]["n_samples"] == len(report["results"]["samples"])
        drift = report["results"]["potential_drift"]
        assert isinstance(drift, float) and drift <= 1e-6

    def test_verify_report(self, tmp_path, capsys):
        report_path = tmp_path / "verify.json"
        assert run(["verify", "--suite", "cusps", "--json-out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["pass"] is True
        assert all(row["passed"] for row in report["results"])


def test_module_entry_point():
    # The child imports the same package as this test, however pytest found it.
    src = os.path.dirname(os.path.dirname(orthotraj.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "orthotraj.cli_plot", "verify", "--suite", "extra-crossing"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "[PASS]" in proc.stdout

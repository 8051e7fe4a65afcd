"""Command-line front end and SVG figure emitter.

Subcommands expose each capability of the library::

    ortho-traj verify     --suite <name|all> [--json-out r.json]
    ortho-traj trace      --x0 X --y0 Y [--p0 P] [--tol T]
    ortho-traj intersect  -m M -C C [--t-min A --t-max B]
    ortho-traj classify   -C C
    ortho-traj plot       --preset fig1a|fig1b | --spec spec.json  -o out.svg

All subcommands accept ``--config file.json`` (defaults for the same
parameter names; unknown keys are rejected) and ``--json-out file.json``
(machine-readable report {command, inputs, results, pass}).  Exit codes:
0 success, 1 verification or trace failure, 2 usage or configuration
error, which includes unreadable or unwritable files, malformed config
or spec values and argument values outside an operation's domain
(``DomainError``).  Each subcommand and its flags are declared once,
in ``_COMMANDS``.

The plot presets reconstruct the qualitative two-panel figure of the
curve family: four members per panel (C = 0 dashed) plus the three
reference lines m = 1, 2, -3.  The exact constants of the non-parabolic
members are a rendering choice, fig1a = {0, 1, 2, 3} and
fig1b = {0, -1, -2, -4} (C = -4 being the innermost, cusped member).
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass

from .core_model import PARABOLA_NORMALS, Point, TrajectoryCurve, curve_point, cusp_parameters
from .errors import ConfigError, DomainError, NoBranchError, OrthoTrajError
from .geometry_analysis import conic_fit, intersections
from .tracer import TraceConfig, trace_orthogonal

__all__ = [
    "CurveSpec",
    "PlotSpec",
    "preset_spec",
    "render_figure",
    "run",
    "main",
]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#8c564b", "#e377c2", "#17becf", "#bcbd22")
_LINE_COLOR = "#888888"


@dataclass(frozen=True)
class CurveSpec:
    C: float
    t_range: tuple = (-3.5, 3.5)
    dashed: bool = False


@dataclass(frozen=True)
class PlotSpec:
    """Everything needed to render one figure."""

    curves: tuple = ()
    lines: tuple = ()
    x_window: tuple = (-6.0, 10.0)
    y_window: tuple = (-9.0, 9.0)
    samples_per_curve: int = 400
    width_px: int = 640
    height_px: int = 720


def _validate_spec(spec: PlotSpec) -> None:
    if not spec.x_window[0] < spec.x_window[1]:
        raise ConfigError(f"x_window must be increasing, got {spec.x_window!r}")
    if not spec.y_window[0] < spec.y_window[1]:
        raise ConfigError(f"y_window must be increasing, got {spec.y_window!r}")
    if spec.samples_per_curve < 2:
        raise ConfigError(f"samples_per_curve must be >= 2, got {spec.samples_per_curve!r}")
    if spec.width_px <= 0 or spec.height_px <= 0:
        raise ConfigError(
            f"width_px/height_px must be positive, got {spec.width_px!r}x{spec.height_px!r}"
        )
    for cs in spec.curves:
        if not math.isfinite(cs.C):
            raise ConfigError(f"curves: C must be finite, got {cs.C!r}")
        if not cs.t_range[0] < cs.t_range[1]:
            raise ConfigError(f"curves: t_range must be increasing, got {cs.t_range!r}")
    for m in spec.lines:
        if not math.isfinite(m):
            raise ConfigError(f"lines: m must be finite, got {m!r}")


def preset_spec(name: str) -> PlotSpec:
    """The two built-in figure reconstructions."""
    members = {"fig1a": (0.0, 1.0, 2.0, 3.0), "fig1b": (0.0, -1.0, -2.0, -4.0)}
    if name not in members:
        raise ConfigError(f"preset must be one of {sorted(members)}, got {name!r}")
    curves = tuple(CurveSpec(C=C, dashed=(C == 0.0)) for C in members[name])
    return PlotSpec(curves=curves, lines=(1.0, 2.0, -3.0))


def _number(value, what: str) -> float:
    """A finite JSON number (not a bool) as a float; else ConfigError.
    The bound also rejects nan and integers too large for a float."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _pair(value, what: str) -> tuple:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{what} must be a [lo, hi] pair, got {value!r}")
    return (_number(value[0], what), _number(value[1], what))


def _list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def _spec_from_document(doc: dict) -> PlotSpec:
    allowed = {
        "curves", "lines", "x_window", "y_window",
        "samples_per_curve", "width_px", "height_px",
    }
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown plot spec keys: {sorted(unknown)}")
    curves = []
    for entry in _list(doc, "curves"):
        if not isinstance(entry, dict):
            raise ConfigError(f"curves entries must be objects, got {entry!r}")
        extra = set(entry) - {"C", "t_range", "dashed"}
        if extra:
            raise ConfigError(f"unknown curve keys: {sorted(extra)}")
        if "C" not in entry:
            raise ConfigError("curve entry missing required key 'C'")
        fields = {"C": _number(entry["C"], "curves: C")}
        if "t_range" in entry:
            fields["t_range"] = _pair(entry["t_range"], "curves: t_range")
        if "dashed" in entry:
            if not isinstance(entry["dashed"], bool):
                raise ConfigError(f"curves: dashed must be true or false, got {entry['dashed']!r}")
            fields["dashed"] = entry["dashed"]
        curves.append(CurveSpec(**fields))
    kwargs = {key: _pair(doc[key], key) for key in ("x_window", "y_window") if key in doc}
    for key in ("samples_per_curve", "width_px", "height_px"):
        if key in doc:
            if not _number(doc[key], key).is_integer():
                raise ConfigError(f"{key} must be an integer, got {doc[key]!r}")
            kwargs[key] = int(doc[key])
    spec = PlotSpec(
        curves=tuple(curves),
        lines=tuple(_number(m, "lines") for m in _list(doc, "lines")),
        **kwargs,
    )
    _validate_spec(spec)
    return spec


def _clip_line_to_window(m: float, b: float, xw, yw):
    """Endpoints of y = m x + b inside the window, or None."""
    x0, x1 = xw
    y0, y1 = yw
    if m == 0.0:
        return ((x0, b), (x1, b)) if y0 <= b <= y1 else None
    xa = (y0 - b) / m
    xb = (y1 - b) / m
    lo = max(x0, min(xa, xb))
    hi = min(x1, max(xa, xb))
    if lo > hi:
        return None
    return ((lo, m * lo + b), (hi, m * hi + b))


def render_figure(spec: PlotSpec) -> str:
    """Emit the figure as a deterministic SVG 1.1 document.

    One ``<path class="curve">`` per curve (dashed members get a
    stroke-dasharray), one ``<path class="family-line">`` per line
    clipped to the window, plus axes, ticks, and a legend of C values.
    """
    _validate_spec(spec)
    w, h = spec.width_px, spec.height_px
    x0, x1 = spec.x_window
    y0, y1 = spec.y_window
    sx = w / (x1 - x0)
    sy = h / (y1 - y0)

    def px(x: float) -> float:
        return (x - x0) * sx

    def py(y: float) -> float:
        return (y1 - y) * sy

    def fmt(v: float) -> str:
        return f"{v:.2f}"

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
    )
    out.append(f'<defs><clipPath id="plot"><rect x="0" y="0" width="{w}" height="{h}"/></clipPath></defs>')
    out.append(f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>')

    # Axes and ticks (every 2 world units).
    axis = []
    if y0 <= 0.0 <= y1:
        axis.append(
            f'<line class="axis" x1="0" y1="{fmt(py(0.0))}" x2="{w}" y2="{fmt(py(0.0))}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
    if x0 <= 0.0 <= x1:
        axis.append(
            f'<line class="axis" x1="{fmt(px(0.0))}" y1="0" x2="{fmt(px(0.0))}" y2="{h}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
    for xv in range(math.ceil(x0 / 2) * 2, math.floor(x1 / 2) * 2 + 1, 2):
        if xv == 0 or not (y0 <= 0.0 <= y1):
            continue
        axis.append(
            f'<line class="tick" x1="{fmt(px(xv))}" y1="{fmt(py(0.0) - 3)}" '
            f'x2="{fmt(px(xv))}" y2="{fmt(py(0.0) + 3)}" stroke="#333333" stroke-width="1"/>'
        )
        axis.append(
            f'<text x="{fmt(px(xv))}" y="{fmt(py(0.0) + 14)}" font-size="10" '
            f'text-anchor="middle" fill="#333333">{xv:g}</text>'
        )
    for yv in range(math.ceil(y0 / 2) * 2, math.floor(y1 / 2) * 2 + 1, 2):
        if yv == 0 or not (x0 <= 0.0 <= x1):
            continue
        axis.append(
            f'<line class="tick" x1="{fmt(px(0.0) - 3)}" y1="{fmt(py(yv))}" '
            f'x2="{fmt(px(0.0) + 3)}" y2="{fmt(py(yv))}" stroke="#333333" stroke-width="1"/>'
        )
        axis.append(
            f'<text x="{fmt(px(0.0) + 6)}" y="{fmt(py(yv) + 3)}" font-size="10" '
            f'fill="#333333">{yv:g}</text>'
        )
    out.extend(axis)

    out.append('<g clip-path="url(#plot)">')
    for m in spec.lines:
        seg = _clip_line_to_window(m, PARABOLA_NORMALS.f(m), spec.x_window, spec.y_window)
        if seg is None:
            d = ""
        else:
            (ax, ay), (bx, by) = seg
            d = f"M {fmt(px(ax))},{fmt(py(ay))} L {fmt(px(bx))},{fmt(py(by))}"
        out.append(
            f'<path class="family-line" fill="none" stroke="{_LINE_COLOR}" '
            f'stroke-width="1" d="{d}"/>'
        )
    for i, cs in enumerate(spec.curves):
        curve = TrajectoryCurve(cs.C)
        # np.linspace's nodes, bit for bit: t0 + j step, then t1 exactly.
        t0, t1 = cs.t_range
        n = spec.samples_per_curve
        step = (t1 - t0) / (n - 1)
        ts = [t0 + j * step for j in range(n - 1)] + [t1]
        pieces = []
        for j, t in enumerate(ts):
            pt = curve_point(curve, t)
            cmd = "M" if j == 0 else "L"
            pieces.append(f"{cmd} {fmt(px(pt.x))},{fmt(py(pt.y))}")
        dash = ' stroke-dasharray="6 4"' if cs.dashed else ""
        color = _PALETTE[i % len(_PALETTE)]
        out.append(
            f'<path class="curve" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash} d="{" ".join(pieces)}"/>'
        )
    out.append("</g>")

    # Legend: one entry per curve, then the line slopes.
    ly = 18
    for i, cs in enumerate(spec.curves):
        color = _PALETTE[i % len(_PALETTE)]
        label = f"C = {cs.C:g}" + (" (dashed)" if cs.dashed else "")
        out.append(
            f'<text class="legend" x="10" y="{ly}" font-size="12" fill="{color}">{label}</text>'
        )
        ly += 16
    if spec.lines:
        slopes = ", ".join(f"{m:g}" for m in spec.lines)
        out.append(
            f'<text class="legend" x="10" y="{ly}" font-size="12" '
            f'fill="{_LINE_COLOR}">lines m = {slopes}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# Command dispatch

def _reject_inf(_):
    raise ConfigError("non-finite numbers are not allowed in config files")


def _read_json(path: str, what: str) -> dict:
    """The JSON object in ``path``; ConfigError names ``what`` on failure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_inf)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"invalid JSON in {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} document must be a JSON object")
    return doc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


def _typed(kind, value, what: str):
    if kind is float:
        return _number(value, what)
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def _params(args, flags) -> dict:
    """Defaults < config file < explicit flags, in flag-declaration order;
    unknown config keys and values of the wrong type are rejected."""
    config = _read_json(args.config, "config") if args.config else {}
    unknown = set(config) - {dest for _names, dest, _kind, _help in flags}
    if unknown:
        raise ConfigError(f"unknown config keys for {args.command!r}: {sorted(unknown)}")
    params = {}
    for _names, dest, kind, _help in flags:
        if dest in config:
            params[dest] = _typed(kind, config[dest], f"config key {dest!r}")
        if getattr(args, dest) is not None:
            params[dest] = _typed(kind, getattr(args, dest), f"parameter {dest!r}")
    return params


def _require(params: dict, key: str, command: str):
    if key not in params:
        raise ConfigError(f"{command}: missing required parameter {key!r}")
    return params[key]


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'inf', '-inf', 'nan'
    return value


# Each handler takes the merged parameters, prints its summary and
# returns (exit code, report inputs, report results).


def _cmd_verify(params):
    from . import verification  # numpy loads with the suites alone

    suite = params.get("suite", "all")
    names = verification.suite_names() if suite == "all" else [suite]
    if any(n not in verification.SUITES for n in names):
        raise ConfigError(
            f"unknown suite {suite!r}; choose from {verification.suite_names()} or 'all'"
        )
    report, all_passed = verification.run_suites(names)
    rows = []
    for suite_name, results in report:
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            print(f"[{status}] {suite_name}: {res.name}  ({res.detail})")
            rows.append(
                {
                    "suite": suite_name,
                    "check": res.name,
                    "passed": res.passed,
                    "detail": res.detail,
                }
            )
    n_checks = len(rows)
    n_passed = sum(r["passed"] for r in rows)
    print(f"{n_passed}/{n_checks} checks passed")
    return (0 if all_passed else 1), {"suite": suite}, rows


def _cmd_trace(params):
    x0 = _require(params, "x0", "trace")
    y0 = _require(params, "y0", "trace")
    cfg = TraceConfig(
        start=Point(x0, y0),
        initial_slope_hint=params.get("p0"),
        tol=params.get("tol", 1e-8),
    )
    try:
        result = trace_orthogonal(cfg)
    except NoBranchError as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return 1, params, {"error": str(exc)}
    first = result.samples[0][0]
    last = result.samples[-1][0]
    print(f"traced {len(result.samples)} samples from ({x0:g}, {y0:g})")
    print(f"  span: ({first.x:.6f}, {first.y:.6f}) .. ({last.x:.6f}, {last.y:.6f})")
    print(f"  end reasons: backward={result.end_reasons[0]}, forward={result.end_reasons[1]}")
    print(f"  terminated_by: {result.terminated_by}")
    print(f"  potential drift: {result.potential_drift:.3e}")
    results = {
        "n_samples": len(result.samples),
        "terminated_by": result.terminated_by,
        "end_reasons": list(result.end_reasons),
        "potential_drift": result.potential_drift,
        "samples": [
            {"x": pt.x, "y": pt.y, "p": _json_safe(p)} for pt, p in result.samples
        ],
    }
    return 0, params, results


def _cmd_intersect(params):
    m = _require(params, "m", "intersect")
    C = _require(params, "C", "intersect")
    t_min = params.get("t_min", -10.0)
    t_max = params.get("t_max", 10.0)
    records = intersections(m, TrajectoryCurve(C), t_min, t_max)
    print(f"{len(records)} intersection(s) of line m={m:g} with curve C={C:g} "
          f"for t in [{t_min:g}, {t_max:g}]")
    for rec in records:
        tag = "orthogonal" if rec.orthogonal else "non-orthogonal"
        sp = "inf" if math.isinf(rec.slope_product) else f"{rec.slope_product:.9g}"
        print(
            f"  t = {rec.t: .9f}  point = ({rec.point.x: .9f}, {rec.point.y: .9f})  "
            f"slope product = {sp}  [{tag}]"
        )
    results = [
        {
            "t": rec.t,
            "x": rec.point.x,
            "y": rec.point.y,
            "slope_product": _json_safe(rec.slope_product),
            "orthogonal": rec.orthogonal,
        }
        for rec in records
    ]
    return 0, {"m": m, "C": C, "t_min": t_min, "t_max": t_max}, results


def _cmd_classify(params):
    C = _require(params, "C", "classify")
    curve = TrajectoryCurve(C)
    fit = conic_fit(curve)
    verdict = fit.classify()
    cusps = cusp_parameters(curve)
    print(f"curve C={C:g}: {verdict}")
    print(f"  conic residual (scaled coords): {fit.residual_rms:.3e}")
    print(f"  best-fit coefficients (x^2, xy, y^2, x, y, 1): "
          + ", ".join(f"{v:.6g}" for v in fit.coeffs))
    print(f"  cusp count: {len(cusps)}"
          + (f" at t = {', '.join(f'{t:.6f}' for t in cusps)}" if cusps else ""))
    results = {
        "classification": verdict,
        "conic_residual_rms": fit.residual_rms,
        "conic_coeffs": list(fit.coeffs),
        "cusp_parameters": cusps,
    }
    return 0, {"C": C}, results


def _cmd_plot(params):
    preset = params.get("preset")
    spec_path = params.get("spec")
    if (preset is None) == (spec_path is None):
        raise ConfigError("plot: exactly one of --preset or --spec is required")
    if preset is not None:
        spec = preset_spec(preset)
    else:
        spec = _spec_from_document(_read_json(spec_path, "spec"))
    out = _require(params, "out", "plot")
    svg = render_figure(spec)
    _write_text(out, svg)
    print(f"wrote {out} ({len(spec.curves)} curves, {len(spec.lines)} lines)")
    results = {
        "out": out,
        "n_curves": len(spec.curves),
        "n_lines": len(spec.lines),
        "bytes": len(svg.encode("utf-8")),
    }
    return 0, {"preset": preset, "spec": spec_path, "out": out}, results


# Every subcommand, declared once: handler, help, and its flags as
# (names, dest, type, help).  The parser, the config keys each command
# accepts and their types, and the dispatch all come from this table.
_COMMANDS = {
    "verify": (_cmd_verify, "run verification suites", (
        (("--suite",), "suite", str, "suite name or 'all' (default all)"),
    )),
    "trace": (_cmd_trace, "trace the trajectory through a point", (
        (("--x0",), "x0", float, "start x"),
        (("--y0",), "y0", float, "start y"),
        (("--p0",), "p0", float, "initial slope hint"),
        (("--tol",), "tol", float, "error of x and y summed over the arc budget (default 1e-8)"),
    )),
    "intersect": (_cmd_intersect, "line-curve intersection report", (
        (("-m",), "m", float, "line slope"),
        (("-C",), "C", float, "curve constant"),
        (("--t-min",), "t_min", float, "window start (default -10)"),
        (("--t-max",), "t_max", float, "window end (default 10)"),
    )),
    "classify": (_cmd_classify, "conic classification of one curve", (
        (("-C",), "C", float, "curve constant"),
    )),
    "plot": (_cmd_plot, "render a figure to SVG", (
        (("--preset",), "preset", str, "fig1a or fig1b"),
        (("--spec",), "spec", str, "JSON plot spec file"),
        (("-o", "--out"), "out", str, "output SVG path"),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ortho-traj",
        description="Curves orthogonal to the line family y = m x - 2m - m^3: "
        "verification suites, implicit-ODE tracing, intersection reports, "
        "conic classification, and figure rendering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_handler, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for names, dest, kind, flag_help in flags:
            sp.add_argument(*names, dest=dest, type=kind, help=flag_help)
        sp.add_argument("--config", help="JSON file with parameter defaults")
        sp.add_argument("--json-out", help="write a JSON report to this path")
    return parser


def run(argv) -> int:
    """Parse argv and execute; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handler, _help, flags = _COMMANDS[args.command]
    try:
        code, inputs, results = handler(_params(args, flags))
        if args.json_out:
            report = {
                "command": args.command,
                "inputs": {k: _json_safe(v) for k, v in inputs.items()},
                "results": results,
                "pass": code == 0,
            }
            _write_text(args.json_out, json.dumps(report, indent=2, allow_nan=False) + "\n")
    except OrthoTrajError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, DomainError)) else 1
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

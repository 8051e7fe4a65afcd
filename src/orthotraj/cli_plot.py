"""Command-line front end and SVG figure emitter.

Subcommands expose each capability of the library::

    ortho-traj verify     --suite <name|all> [--json-out r.json]
    ortho-traj trace      --x0 X --y0 Y [--p0 P]
    ortho-traj intersect  -m M -C C [--t-min A --t-max B]
    ortho-traj classify   -C C
    ortho-traj plot       --preset fig1a|fig1b | --spec spec.json  -o out.svg

All subcommands accept ``--config file.json`` (defaults for the same
parameter names; unknown keys are rejected) and ``--json-out file.json``
(machine-readable report {command, inputs, results, pass}; inputs hold
every parameter, null where unset).  Exit codes: 0 success, 1
verification or trace failure, 2 usage or configuration error, and 141
(128 + SIGPIPE, as a shell reports it) when stdout closes before the
output is written, as in ``ortho-traj verify | head -n 1``; the
``--json-out`` report is written before stdout, so it is kept.  Code 2
includes unreadable or unwritable files, malformed config or spec values,
specs that cannot be drawn in finite pixel coordinates and argument
values outside an operation's domain (``DomainError``).  Each subcommand
and each parameter with its default is declared once, in ``_COMMANDS``,
and ``--help`` shows it.  Negative values may use exponent notation
(``-m -2e-1``).

The plot presets reconstruct the qualitative two-panel figure of the
curve family: four members per panel (C = 0 dashed) plus the three
reference lines m = 1, 2, -3.  The exact constants of the non-parabolic
members are a rendering choice, fig1a = {0, 1, 2, 3} and
fig1b = {0, -1, -2, -4} (C = -4 being the innermost, cusped member).
"""

import argparse
import contextlib
import io
import json
import math
import os
import sys
from typing import NamedTuple

from .core_model import PARABOLA_NORMALS, Point, TrajectoryCurve, curve_point, cusp_parameters, linspace
from .errors import ConfigError, DomainError, NoBranchError, OrthoTrajError

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
_REQUIRED = object()  # the default of a command parameter that must be set


class CurveSpec(NamedTuple):
    C: float
    t_range: tuple = (-3.5, 3.5)
    dashed: bool = False


# The most nodes a curve may ask for: 2,500 times the presets' 400, so
# that a spec cannot ask ``render_figure`` for unbounded work.
_MAX_SAMPLES = 10**6


class PlotSpec(NamedTuple):
    """Everything needed to render one figure."""

    curves: tuple = ()
    lines: tuple = ()
    x_window: tuple = (-6.0, 10.0)
    y_window: tuple = (-9.0, 9.0)
    samples_per_curve: int = 400
    width_px: int = 640
    height_px: int = 720


def preset_spec(name: str) -> PlotSpec:
    """The two built-in figure reconstructions."""
    members = {"fig1a": (0.0, 1.0, 2.0, 3.0), "fig1b": (0.0, -1.0, -2.0, -4.0)}
    if name not in members:
        raise ConfigError(f"preset must be one of {sorted(members)}, got {name!r}")
    curves = tuple(CurveSpec(C=C, dashed=(C == 0.0)) for C in members[name])
    return PlotSpec(curves=curves, lines=(1.0, 2.0, -3.0))


def _number(value, what: str) -> float:
    """A finite number (not a bool) as a float; else ConfigError.
    The bound also rejects nan, inf and integers too large for a float."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _count(value, what: str, least: int, most: float = math.inf) -> int:
    if not (_number(value, what).is_integer() and least <= value <= most):
        bound = f">= {least}" if most == math.inf else f"in [{least}, {most}]"
        raise ConfigError(f"{what} must be an integer {bound}, got {value!r}")
    return int(value)


def _span(value, what: str) -> tuple:
    """An increasing (lo, hi) pair of finite numbers whose width is finite."""
    if not (isinstance(value, (tuple, list)) and len(value) == 2):
        raise ConfigError(f"{what} must be a [lo, hi] pair, got {value!r}")
    lo, hi = _number(value[0], what), _number(value[1], what)
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ConfigError(f"{what} must be increasing with a finite width, got {value!r}")
    return (lo, hi)


def _validate_spec(spec: PlotSpec) -> PlotSpec:
    """``spec`` with every value checked, numbers as floats and counts as
    ints, however it was built; ConfigError names the first bad field."""
    curves = []
    for cs in spec.curves:
        if not isinstance(cs.dashed, bool):
            raise ConfigError(f"curves: dashed must be true or false, got {cs.dashed!r}")
        t_range = _span(cs.t_range, "curves: t_range")
        curves.append(CurveSpec(_number(cs.C, "curves: C"), t_range, cs.dashed))
    return PlotSpec(
        curves=tuple(curves),
        lines=tuple(_number(m, "lines") for m in spec.lines),
        x_window=_span(spec.x_window, "x_window"),
        y_window=_span(spec.y_window, "y_window"),
        samples_per_curve=_count(spec.samples_per_curve, "samples_per_curve", 2, _MAX_SAMPLES),
        width_px=_count(spec.width_px, "width_px", 1),
        height_px=_count(spec.height_px, "height_px", 1),
    )


def _list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def _spec_from_document(doc: dict) -> PlotSpec:
    """The PlotSpec of a JSON spec document.  Only its shape and keys are
    checked here; ``render_figure`` checks the values."""
    unknown = set(doc) - set(PlotSpec._fields)
    if unknown:
        raise ConfigError(f"unknown plot spec keys: {sorted(unknown)}")
    curves = []
    for entry in _list(doc, "curves"):
        if not isinstance(entry, dict):
            raise ConfigError(f"curves entries must be objects, got {entry!r}")
        extra = set(entry) - set(CurveSpec._fields)
        if extra:
            raise ConfigError(f"unknown curve keys: {sorted(extra)}")
        if "C" not in entry:
            raise ConfigError("curve entry missing required key 'C'")
        curves.append(CurveSpec(**entry))
    return PlotSpec(**{**doc, "curves": tuple(curves), "lines": tuple(_list(doc, "lines"))})


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


def _ticks(lo: float, hi: float) -> list:
    """The nonzero tick values in [lo, hi]: multiples of 2, or of 2 * 10^k
    for the least k at which the window spans at most 50 steps."""
    step = 2.0
    while hi - lo > 50.0 * step:
        step *= 10.0
    return [k * step for k in range(math.ceil(lo / step), math.floor(hi / step) + 1) if k]


def render_figure(spec: PlotSpec) -> str:
    """Emit the figure as a deterministic SVG 1.1 document.

    One ``<path class="curve">`` per curve (dashed members get a
    stroke-dasharray), one ``<path class="family-line">`` per line
    clipped to the window, plus axes, ticks, and a legend of C values.
    ConfigError names a window too narrow for a finite pixel scale, or a
    curve with a point whose pixel coordinates are not finite.
    """
    spec = _validate_spec(spec)
    w, h = spec.width_px, spec.height_px
    x0, x1 = spec.x_window
    y0, y1 = spec.y_window
    sx = w / (x1 - x0)
    sy = h / (y1 - y0)
    for what, scale in (("x_window", sx), ("y_window", sy)):
        if math.isinf(scale):
            raise ConfigError(f"{what} is too narrow: its pixel scale overflows")

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

    # The axes through the origin, then each drawn axis's ticks from _ticks,
    # per axis: (drawn, world range, pixel of the tick at v, tick half-length
    # (dx, dy), label offset, label anchor).
    line = '<line class="{}" x1="{}" y1="{}" x2="{}" y2="{}" stroke="#333333" stroke-width="1"/>'
    ox, oy = px(0.0), py(0.0)
    x_axis, y_axis = y0 <= 0.0 <= y1, x0 <= 0.0 <= x1
    if x_axis:
        out.append(line.format("axis", 0, fmt(oy), w, fmt(oy)))
    if y_axis:
        out.append(line.format("axis", fmt(ox), 0, fmt(ox), h))
    for drawn, lo, hi, at, (dx, dy), (lx, ly), anchor in (
        (x_axis, x0, x1, lambda v: (px(v), oy), (0, 3), (0, 14), ' text-anchor="middle"'),
        (y_axis, y0, y1, lambda v: (ox, py(v)), (3, 0), (6, 3), ""),
    ):
        for v in _ticks(lo, hi) if drawn else ():
            X, Y = at(v)
            out.append(line.format("tick", fmt(X - dx), fmt(Y - dy), fmt(X + dx), fmt(Y + dy)))
            out.append(f'<text x="{fmt(X + lx)}" y="{fmt(Y + ly)}" font-size="10"{anchor} '
                       f'fill="#333333">{v:g}</text>')

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
        pieces = []
        for j, t in enumerate(linspace(*cs.t_range, spec.samples_per_curve)):
            pt = curve_point(curve, t)
            cmd = "M" if j == 0 else "L"
            pieces.append(f"{cmd} {fmt(px(pt.x))},{fmt(py(pt.y))}")
        d = " ".join(pieces)
        if "inf" in d or "nan" in d:  # the only letters besides M and L
            raise ConfigError(f"curves: C = {cs.C!r} maps to a non-finite pixel coordinate")
        dash = ' stroke-dasharray="6 4"' if cs.dashed else ""
        color = _PALETTE[i % len(_PALETTE)]
        out.append(
            f'<path class="curve" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash} d="{d}"/>'
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
    """Every declared parameter, in declaration order: its default < config
    file < explicit flag, None where none is set, so a report's inputs can
    serve as a config.  Unknown config keys, values of the wrong type and
    missing required parameters are rejected."""
    config = _read_json(args.config, "config") if args.config else {}
    unknown = set(config) - {dest for _names, dest, *_rest in flags}
    if unknown:
        raise ConfigError(f"unknown config keys for {args.command!r}: {sorted(unknown)}")
    params = {}
    for _names, dest, kind, value, _help in flags:
        if config.get(dest) is not None:  # null, as in a report's inputs, is unset
            value = _typed(kind, config[dest], f"config key {dest!r}")
        if getattr(args, dest) is not None:
            value = _typed(kind, getattr(args, dest), f"parameter {dest!r}")
        if value is _REQUIRED:
            raise ConfigError(f"{args.command}: missing required parameter {dest!r}")
        params[dest] = value
    return params


def _json_safe(value):
    """``value`` with every non-finite float in it, at any depth, written
    as its repr: 'inf', '-inf' or 'nan'."""
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


# Each handler takes the merged parameters, prints its summary and
# returns (exit code, report results); the parameters are the report's inputs.


def _cmd_verify(params):
    from . import verification  # only verify needs the suites; the rest skip loading them

    suite = params["suite"]
    names = list(verification.SUITES) if suite == "all" else [suite]
    if any(n not in verification.SUITES for n in names):
        raise ConfigError(
            f"unknown suite {suite!r}; choose from {list(verification.SUITES)} or 'all'"
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
    return (0 if all_passed else 1), rows


def _cmd_trace(params):
    from .tracer import TraceConfig, trace_orthogonal  # only trace loads the tracer

    x0, y0 = params["x0"], params["y0"]
    cfg = TraceConfig(start=Point(x0, y0), initial_slope_hint=params["p0"])
    try:
        result = trace_orthogonal(cfg)
    except NoBranchError as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return 1, {"error": str(exc)}
    first = result.samples[0][0]
    last = result.samples[-1][0]
    print(f"traced {len(result.samples)} samples from ({x0:.9g}, {y0:.9g})")
    print(f"  span: ({first.x:.9g}, {first.y:.9g}) .. ({last.x:.9g}, {last.y:.9g})")
    print(f"  end reasons: backward={result.end_reasons[0]}, forward={result.end_reasons[1]}")
    print(f"  potential drift: {result.potential_drift:.3e}")
    results = {
        "n_samples": len(result.samples),
        "end_reasons": list(result.end_reasons),
        "potential_drift": result.potential_drift,
        "samples": [
            {"x": pt.x, "y": pt.y, "p": p} for pt, p in result.samples
        ],
    }
    return 0, results


def _cmd_intersect(params):
    from .geometry_analysis import intersections  # only intersect and classify load geometry_analysis

    m, C, t_min, t_max = params["m"], params["C"], params["t_min"], params["t_max"]
    records = intersections(m, TrajectoryCurve(C), t_min, t_max)
    print(f"{len(records)} intersection(s) of line m={m:.9g} with curve C={C:.9g} "
          f"for t in [{t_min:.9g}, {t_max:.9g}]")
    for rec in records:
        tag = "orthogonal" if rec.orthogonal else "non-orthogonal"
        print(
            f"  t = {rec.t: .9g}  point = ({rec.point.x: .9g}, {rec.point.y: .9g})  "
            f"slope product = {rec.slope_product:.9g}  [{tag}]"
        )
    results = [
        {
            "t": rec.t,
            "x": rec.point.x,
            "y": rec.point.y,
            "slope_product": rec.slope_product,
            "orthogonal": rec.orthogonal,
        }
        for rec in records
    ]
    return 0, results


def _cmd_classify(params):
    from .geometry_analysis import classify_conic, conic_fit

    C = params["C"]
    curve = TrajectoryCurve(C)
    verdict = classify_conic(curve)
    fit = conic_fit(curve)  # evidence only, exact for every finite C
    cusps = cusp_parameters(curve)
    print(f"curve C={C:.9g}: {verdict}")
    print(f"  conic residual at a sixth point: {fit.residual:.3e}")
    print(f"  conic through five points (x^2, xy, y^2, x, y, 1): "
          + ", ".join(f"{v:.6g}" for v in fit.coeffs))
    print(f"  cusp count: {len(cusps)}"
          + (f" at t = {', '.join(f'{t:.9g}' for t in cusps)}" if cusps else ""))
    results = {
        "classification": verdict,
        "conic_residual": fit.residual,
        "conic_coeffs": list(fit.coeffs),
        "cusp_parameters": cusps,
    }
    return 0, results


def _cmd_plot(params):
    preset, spec_path, out = params["preset"], params["spec"], params["out"]
    if (preset is None) == (spec_path is None):
        raise ConfigError("plot: exactly one of --preset or --spec is required")
    if preset is not None:
        spec = preset_spec(preset)
    else:
        spec = _spec_from_document(_read_json(spec_path, "spec"))
    svg = render_figure(spec)
    _write_text(out, svg)
    print(f"wrote {out} ({len(spec.curves)} curves, {len(spec.lines)} lines)")
    results = {
        "out": out,
        "n_curves": len(spec.curves),
        "n_lines": len(spec.lines),
        "bytes": len(svg.encode("utf-8")),
    }
    return 0, results


# Every subcommand, declared once: handler, help, and its parameters as
# (names, dest, type, default or _REQUIRED, help).  The parser and --help,
# the config keys and their types, the defaults, the report's inputs and
# the dispatch all come from this table.
_COMMANDS = {
    "verify": (_cmd_verify, "run verification suites", (
        (("--suite",), "suite", str, "all", "suite name or 'all'"),
    )),
    "trace": (_cmd_trace, "trace the trajectory through a point", (
        (("--x0",), "x0", float, _REQUIRED, "start x"),
        (("--y0",), "y0", float, _REQUIRED, "start y"),
        (("--p0",), "p0", float, None, "initial slope hint: the start takes the root nearest it"),
    )),
    "intersect": (_cmd_intersect, "line-curve intersection report", (
        (("-m",), "m", float, _REQUIRED, "line slope"),
        (("-C",), "C", float, _REQUIRED, "curve constant"),
        (("--t-min",), "t_min", float, -10.0, "window start"),
        (("--t-max",), "t_max", float, 10.0, "window end"),
    )),
    "classify": (_cmd_classify, "conic classification of one curve", (
        (("-C",), "C", float, _REQUIRED, "curve constant"),
    )),
    "plot": (_cmd_plot, "render a figure to SVG", (
        (("--preset",), "preset", str, None, "fig1a or fig1b"),
        (("--spec",), "spec", str, None, "JSON plot spec file"),
        (("-o", "--out"), "out", str, _REQUIRED, "output SVG path"),
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
        for names, dest, kind, default, flag_help in flags:
            if default is _REQUIRED:
                flag_help += " (required)"
            elif default is not None:
                flag_help += f" (default {default})"
            sp.add_argument(*names, dest=dest, type=kind, help=flag_help)
        sp.add_argument("--config", help="JSON file with parameter defaults")
        sp.add_argument("--json-out", help="write a JSON report to this path")
    return parser


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_numbers(argv) -> list:
    """``argv`` with each negative number joined to the flag before it as
    ``flag=value``: argparse up to Python 3.12 takes -2e-1 for an option,
    and no flag of this CLI is a number."""
    out = []
    for token in argv:
        if out and out[-1].startswith("-") and token.startswith("-") and _is_number(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def run(argv) -> int:
    """Parse argv and execute; returns the process exit code."""
    try:
        args = _build_parser().parse_args(_join_numbers(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handler, _help, flags = _COMMANDS[args.command]
    # The handler's stdout is held until the report is written, so that a
    # stdout that closes early cannot lose the report.
    out = io.StringIO()
    try:
        params = _params(args, flags)
        with contextlib.redirect_stdout(out):
            code, results = handler(params)
        if args.json_out:
            report = {
                "command": args.command,
                "inputs": params,
                "results": _json_safe(results),
                "pass": code == 0,
            }
            _write_text(args.json_out, json.dumps(report, indent=2, allow_nan=False) + "\n")
    except OrthoTrajError as exc:
        sys.stdout.write(out.getvalue())
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, DomainError)) else 1
    sys.stdout.write(out.getvalue())
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader left early (``| head``).  As Python's SIGPIPE note advises,
        # point stdout at devnull, so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()

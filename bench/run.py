"""ortho-traj benchmark: one workload per invocation.

    python3 bench/run.py --workload {trace,field,geometry,verify}
                         --seed N --seconds S --trace {0,1}

Run it from the repository root.  The library is imported from ``src``
(nothing needs installing).  Each workload runs in a fresh interpreter
(``workload.py``), so its set-up time and peak memory are its own.

--trace 0 measures the end-to-end metrics: set-up time (median of
several fresh interpreters), then S seconds of the closed-loop workload.
Times are scaled to a reference machine speed by the calibration in
``workload.py``; the raw times are printed beside them.
--trace 1 runs the workload for S/2 seconds untraced and S/2 seconds
with the layer spans of ``spans.py`` installed, and reports the
per-layer metrics and the tracing overhead (for ``verify`` it also runs
the CLI as its own process 3 times).

Every op's output is checked by the benchmark's own oracle
(``oracle.py``).  The output is a table of every metric by name and
unit, a line with the run's environment and detail, and, last, one JSON
line: {"correct", "attempted", "failed", "metrics"}.  ``failed`` counts
the checks that failed outside the defects the library is known to have
(see README.md), and ``correct`` is true when there are none.  Every
failed check, known defects included, counts against ``pass_frac`` and
is printed in the ``detail`` line.  See README.md for the workloads,
metrics and the per-layer -> end-to-end mapping.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import inputs
from workload import HERE, ROOT, calibrate, child_env, scratch_root, speed_scale

WORKLOADS = ("trace", "field", "geometry", "verify")
SETUP_PROBES = 7
SUITES = (
    "exactness",
    "potential",
    "ode-identity",
    "orthogonality",
    "extra-crossing",
    "conic",
    "cusps",
    "tracer",
    "figure",
)
END_REASONS = ("arc-limit", "branch-loss", "singularity", "domain-exit")


def _child(args, timeout):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workload.py"), *map(str, args)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench: workload.py {' '.join(map(str, args))} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_wall_s(runs=3):
    """Median wall time of ``python -m orthotraj.cli_plot verify --suite
    all`` as its own process, scaled like the ops by a calibration on
    either side of each run."""
    cmd = [sys.executable, "-m", "orthotraj.cli_plot", "verify", "--suite", "all", "--json-out"]
    walls = []
    with tempfile.TemporaryDirectory(dir=scratch_root()) as scratch:
        for _ in range(runs):
            before = calibrate("python")
            start = time.perf_counter()
            subprocess.run(
                [*cmd, os.path.join(scratch, "verify.json")],
                cwd=ROOT,
                env=child_env(),
                stdout=subprocess.DEVNULL,
                timeout=150,
            )
            wall = time.perf_counter() - start
            walls.append(wall * speed_scale("python", before, calibrate("python")))
    return statistics.median(walls)


def setup_s(workload):
    """Median set-up time over fresh interpreters, scaled and raw, after
    one untimed probe that fills the bytecode cache."""
    probes = [_child(["setup", workload], 60) for _ in range(SETUP_PROBES + 1)][1:]
    return (
        statistics.median(raw * scale for raw, scale in probes),
        statistics.median(raw for raw, _ in probes),
    )


def tail(values):
    """(percentile, value): the highest of p99.9/p99/p90/p50 with at least
    ten values beyond it, or None when there are too few values."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct, ordered[min(n - 1, int(pct / 100.0 * n))]
    return None


def _scales(res):
    """Each op's speed scale, from the (ops, scale) pairs of its blocks."""
    return [scale for count, scale in res["blocks"] for _ in range(count)]


def _per_op_ms(workload, res, scaled):
    """Per-op times in ms; for ``trace``, ms per unit arc of each trace."""
    scales = _scales(res) if scaled else [1.0] * len(res["op_s"])
    op_ms = [1e3 * s * k for s, k in zip(res["op_s"], scales)]
    if workload == "trace":
        return op_ms, [ms / arc for ms, arc in zip(op_ms, res["work"]) if arc > 0.0]
    return op_ms, op_ms


def _block_rate_p50(res, op_ms):
    """Median over calibration blocks of work done per second of op time."""
    rates, i = [], 0
    for count, _ in res["blocks"]:
        ms = sum(op_ms[i : i + count])
        if ms > 0.0:
            rates.append(1e3 * sum(res["work"][i : i + count]) / ms)
        i += count
    return statistics.median(rates)


def end_to_end(workload, res, setup):
    """The end-to-end metrics of one untraced run, with times scaled to
    the calibration reference; unbounded extras, raw times among them.

    For ``trace`` an op is one unit of arc length: ops_per_s is arc per
    second and op_p50_ms the median per-trace ms per unit arc, so a trace
    that runs further is not read as a slowdown.
    """
    op_ms, per_op = _per_op_ms(workload, res, scaled=True)
    raw_ms, raw_per_op = _per_op_ms(workload, res, scaled=False)
    fail_frac = res["failed"] / res["attempted"]
    metrics = {
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ops_per_s": (_block_rate_p50(res, op_ms), "1/s"),
        "op_p50_ms": (statistics.median(per_op), "ms"),
        "pass_frac": (1.0 - fail_frac, "ratio"),
    }
    extra = {
        "fail_frac": (fail_frac, "ratio"),
        "ops": (len(res["op_s"]), "count"),
        "setup_wall_s": (setup[1], "s"),
        "ops_per_wall_s": (_block_rate_p50(res, raw_ms), "1/s"),
        "op_p50_wall_ms": (statistics.median(raw_per_op), "ms"),
        "speed_scale_p50": (statistics.median(_scales(res)), "ratio"),
    }
    op_tail = tail(per_op)
    if op_tail is not None:
        extra["op_tail_ms"] = (op_tail[1], f"ms@p{op_tail[0]:g}")
    if workload == "trace":
        budget = 2.0 * inputs.TRACE_MAX_ARC * len(res["work"])
        extra["arc_coverage"] = (sum(res["work"]) / budget, "ratio")
    return metrics, extra


def _scaled_s(res):
    return sum(s * k for s, k in zip(res["op_s"], _scales(res)))


def per_layer(workload, res, base, cli_wall):
    """The per-layer metrics of one traced run.  Counts are per op (for
    ``trace``, per unit of arc); shares are of the timed op time."""
    sp = res["spans"] or {}
    calls, total, self_s = (sp.get(k, {}) for k in ("calls", "total_s", "self_s"))
    edges, counts = sp.get("edges", {}), sp.get("counts", {})
    ops = sum(res["work"])
    wall = sum(res["op_s"])

    def per_call(name, scale):
        return scale * total.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    samples = counts.get("tracer.samples", 0)
    solves = edges.get("tracer.trace_orthogonal>roots.slopes_at", 0)
    ends = sum(counts.get("tracer.end." + r, 0) for r in END_REASONS)
    inter = calls.get("geometry_analysis.intersections", 0)
    # bracketed_root is traced only where intersections calls it.
    refine_points = sum(
        edges.get(parent + ">core_model.curve_point", 0)
        for parent in ("geometry_analysis.intersections", "roots.bracketed_root")
    )
    traced_unit = _scaled_s(res) / ops
    base_unit = _scaled_s(base) / sum(base["work"])
    m = {
        "roots.slopes_at.calls": (calls.get("roots.slopes_at", 0) / ops, "count"),
        "roots.slopes_at.us_per_call": (per_call("roots.slopes_at", 1e6), "us"),
        "roots.slopes_at.share": (total.get("roots.slopes_at", 0.0) / wall, "ratio"),
        "roots.bracketed_root.calls": (calls.get("roots.bracketed_root", 0) / ops, "count"),
        "roots.bracketed_root.us_per_call": (per_call("roots.bracketed_root", 1e6), "us"),
        "tracer.self_s": (self_s.get("tracer.trace_orthogonal", 0.0) / ops, "s"),
        "tracer.samples": (samples / ops, "count"),
        "tracer.solves_per_sample": (solves / samples if samples else 0.0, "count"),
        "tracer.step_yield": (7.0 * samples / solves if solves else 0.0, "ratio"),
        "exact_ode.potential.calls": (calls.get("exact_ode.potential", 0) / ops, "count"),
        "exact_ode.potential.share": (total.get("exact_ode.potential", 0.0) / wall, "ratio"),
        "core_model.curve_point.calls": (calls.get("core_model.curve_point", 0) / ops, "count"),
        "core_model.curve_point.us_per_call": (per_call("core_model.curve_point", 1e6), "us"),
        "geometry_analysis.intersections.us_per_call": (
            per_call("geometry_analysis.intersections", 1e6),
            "us",
        ),
        "geometry_analysis.intersections.records_per_call": (
            counts.get("geometry_analysis.intersections.records", 0) / inter if inter else 0.0,
            "count",
        ),
        "geometry_analysis.intersections.curve_points_per_call": (
            refine_points / inter if inter else 0.0,
            "count",
        ),
        "geometry_analysis.fit_conic.us_per_call": (
            per_call("geometry_analysis.fit_conic", 1e6),
            "us",
        ),
        "geometry_analysis.classify_conic.us_per_call": (
            per_call("geometry_analysis.classify_conic", 1e6),
            "us",
        ),
        "verification.checks_failed": (counts.get("verification.checks_failed", 0) / ops, "count"),
        "cli_plot.render_figure.ms": (per_call("cli_plot.render_figure", 1e3), "ms"),
        "cli_plot.process_overhead_s": (
            cli_wall - statistics.median(_per_op_ms(workload, base, scaled=True)[0]) / 1e3
            if cli_wall is not None
            else 0.0,
            "s",
        ),
        "bench.trace_overhead_frac": (traced_unit / base_unit - 1.0, "ratio"),
    }
    for reason in END_REASONS:
        share = counts.get("tracer.end." + reason, 0) / ends if ends else 0.0
        m["tracer.end." + reason] = (share, "ratio")
    for suite in SUITES:
        m[f"verification.{suite}.s"] = (total.get("verification." + suite, 0.0) / ops, "s")
    return m


def result_line(res, metrics):
    """The last line of the output.  ``failed`` leaves out the failures
    of the library's known defects: a share of every seed's inputs hits
    them, so the count grows with the ops a run gets through, while
    ``pass_frac``, which counts them, does not."""
    failed = res["failed"] - res["failed_known"]
    return {
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def environment(seed, res):
    def sha_of_tree():
        digest = hashlib.sha256()
        src = os.path.join(ROOT, "src")
        for folder, dirs, files in sorted(os.walk(src)):
            dirs.sort()
            for name in sorted(f for f in files if f.endswith(".py")):
                with open(os.path.join(folder, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
        return digest.hexdigest()[:16]

    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except OSError:
        git_sha = None
    return {
        "git_sha": git_sha,
        "src_sha256": sha_of_tree(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "seed": seed,
        "inputs_hash": res["inputs_hash"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "orthotraj", "__init__.py")):
        raise SystemExit("bench: src/orthotraj not found; run from the repository root")

    timeout = 120 + 2 * args.seconds
    run_args = [args.workload, args.seed]
    if args.trace:
        base = _child(["run", *run_args, args.seconds / 2, 0], timeout)
        res = _child(["run", *run_args, args.seconds / 2, 1], timeout)
        cli_wall = cli_wall_s() if args.workload == "verify" else None
        metrics, extra = per_layer(args.workload, res, base, cli_wall), {}
    else:
        setup = setup_s(args.workload)
        res = _child(["run", *run_args, args.seconds, 0], timeout)
        metrics, extra = end_to_end(args.workload, res, setup)

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload:9s} {name:54s} {value:14.6g} {unit}")
    keys = ("attempted", "failed_known", "reasons", "failed_by_group")
    detail = {"failed_checks": res["failed"], **{k: res[k] for k in keys}}
    print("env " + json.dumps(environment(args.seed, res)))
    print("detail " + json.dumps({**detail, "ops": len(res["op_s"])}))
    print(json.dumps(result_line(res, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

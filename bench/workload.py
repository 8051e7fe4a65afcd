"""One workload in a fresh interpreter: ``run.py`` starts this file.

    workload.py run   WORKLOAD SEED SECONDS TRACED   -> one JSON line
    workload.py setup WORKLOAD                       -> [seconds, speed scale]

``run`` generates the inputs, warms up, then calls the library in a
closed loop (one caller; the next op starts when the previous one has
returned and been checked) until SECONDS have passed.  Only the library
call is timed; the oracle runs between ops.  With TRACED = 1 the layer
spans of ``spans.py`` are installed after the warm-up.

``setup`` times importing ``orthotraj`` and the first call of each
entry point the workload uses, and nothing else.

The machine this runs on is shared, and its speed swings by up to half
within minutes.  So the loop also times a fixed calibration kernel
between blocks of ops (``calibrate``), and every op carries the factor
``CAL_REF_S / calibration time`` measured around it.  Scaled times read
as on a machine that runs the kernel in ``CAL_REF_S``; ``run.py``
reports them, and the raw times beside them.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from array import array
from collections import Counter

import inputs
import oracle
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Ops run untimed and unchecked before the clock starts.
WARMUP_OPS = {"field": 4, "trace": 1, "geometry": 200, "verify": 1}

# Calibration: runs of a CAL_ITERS-step loop after every block of at
# least BLOCK_S seconds of ops, at least CAL_REPS of them and enough to
# take about CAL_SHARE of the block's time.  ``geometry``, about half
# numpy, adds two numpy scans like the one ``intersections`` makes to
# each run: a pure-Python loop tracked its slowdowns to 5%, the mix to 3%.
# CAL_REF_S is the reference time of one run of each kernel (about its
# median on a quiet 2-core x86 VM).
CAL_ITERS = 10_000
CAL_REPS = 15
CAL_SHARE = 0.1
CAL_REF_S = {"python": 0.8e-3, "mixed": 1.5e-3}
CAL_KERNEL = {"geometry": "mixed"}
BLOCK_S = 0.1


def _numpy_scan():
    import numpy as np

    ts = np.linspace(-10.0, 10.0, 10_000)
    s = np.sqrt(1.0 + ts * ts)
    v = 2.0 * ts + 1.5 * ts / s - 0.5 * (ts * ts - 1.5 / s) - 1.0
    return np.flatnonzero(np.sign(v[:-1]) != np.sign(v[1:]))


def calibrate(kernel, reps=CAL_REPS):
    """Median time of ``reps`` runs of a fixed calibration kernel."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0.0
        for i in range(CAL_ITERS):
            acc += i * 0.5
        if kernel == "mixed":
            _numpy_scan()
            _numpy_scan()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed_scale(kernel, before, after):
    """Factor that turns a time measured between two calibrations into
    one at the reference speed."""
    return 2.0 * CAL_REF_S[kernel] / (before + after)


def _first_calls(workload):
    """Import the library and make the first call the workload makes."""
    if workload == "field":
        from orthotraj import roots

        roots.slopes_at(1.0, 1.0)
    elif workload == "trace":
        from orthotraj.core_model import Point
        from orthotraj.tracer import TraceConfig, trace_orthogonal

        trace_orthogonal(TraceConfig(start=Point(1.0, 2.0), initial_slope_hint=1.0, max_arc=0.05))
    elif workload == "geometry":
        from orthotraj.core_model import PARABOLA_NORMALS, TrajectoryCurve, orthogonal_foot
        from orthotraj.geometry_analysis import intersections

        orthogonal_foot(PARABOLA_NORMALS, 1.0, TrajectoryCurve(0.0))
        intersections(1.0, TrajectoryCurve(0.0), -10.0, 10.0)
    else:
        from orthotraj import cli_plot

        with contextlib.redirect_stdout(io.StringIO()):
            cli_plot.run(["verify", "--help"])


def setup_seconds(workload):
    """(raw seconds, speed scale) of the import and first calls.  The
    pure-Python kernel: the mixed one would import numpy before the clock
    starts."""
    before = calibrate("python")
    start = time.perf_counter()
    _first_calls(workload)
    elapsed = time.perf_counter() - start
    return elapsed, speed_scale("python", before, calibrate("python"))


class Tally:
    """Per-op times, speed scales per block of ops, arcs (``trace`` only)
    and check outcomes of one run.  Times and arcs are kept in arrays, so
    the bookkeeping adds 8 bytes per op to the peak memory measured."""

    def __init__(self):
        self.op_s = array("d")
        self.blocks = []
        self.arcs = array("d")
        self.attempted = 0
        self.failed = 0
        self.failed_known = 0
        self.reasons = Counter()
        self.by_group = Counter()

    def record(self, reason, known=False, group=None):
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        self.failed_known += bool(known)
        self.reasons[reason.split(":")[0] + (" (known)" if known else "")] += 1
        if group is not None:
            self.by_group[group] += 1


def _field(batches):
    from orthotraj import roots

    want = [[oracle.field_root_count(x, y) for x, y, _ in b] for b in batches]

    def op(batch):
        out = []
        for x, y, _ in batch:
            try:
                out.append(roots.slopes_at(x, y).roots)
            except Exception as exc:  # a raising query is a failed query
                out.append(exc)
        return out

    def check(tally, i, out):
        for (x, y, region), n, got in zip(batches[i], want[i], out):
            if isinstance(got, Exception):
                reason = f"raised: {type(got).__name__}"
            else:
                reason = oracle.check_slopes(x, y, got, n)
            tally.record(reason, reason is not None and oracle.known_root_loss(x, y), region)

    return op, check


def _trace(cases):
    from orthotraj import tracer
    from orthotraj.core_model import Point

    def op(case):
        _C, _t0, x0, y0, p0 = case
        cfg = tracer.TraceConfig(
            start=Point(x0, y0),
            initial_slope_hint=p0,
            tol=inputs.TRACE_TOL,
            max_arc=inputs.TRACE_MAX_ARC,
        )
        return tracer.trace_orthogonal(cfg)

    def check(tally, i, res):
        _C, _t0, x0, y0, p0 = cases[i]
        reason = oracle.check_trace(x0, y0, p0, inputs.TRACE_TOL, res.samples)
        tally.record(reason, oracle.known_cusp_drift(reason, res.end_reasons))
        tally.arcs.append(oracle.trace_arc(res.samples))

    return op, check


def _geometry(pairs):
    from orthotraj import core_model, geometry_analysis

    lo, hi = inputs.GEOMETRY_WINDOW
    want = [oracle.crossing_roots(m, C, lo, hi) for m, C, _ in pairs]

    def op(pair):
        m, C, _ = pair
        curve = core_model.TrajectoryCurve(C)
        foot = core_model.orthogonal_foot(core_model.PARABOLA_NORMALS, m, curve)
        return foot, geometry_analysis.intersections(m, curve, lo, hi)

    def check(tally, i, out):
        m, C, near_tangent = pairs[i]
        reason, known = oracle.check_geometry(m, C, *out, want[i])
        tally.record(reason, known, "near-tangent" if near_tangent else "ordinary")

    return op, check


def _verify(scratch):
    """Each op is the CLI's ``verify --suite all --json-out ...``, run
    through ``cli_plot.run`` in this process.  A process per op made the
    median swing by 15% between runs; interpreter start-up is measured by
    ``setup_s`` instead, and per layer by ``run.py``."""
    from orthotraj import cli_plot

    report = os.path.join(scratch, "verify.json")
    argv = ["verify", "--suite", "all", "--json-out", report]

    def op(_item):
        if os.path.exists(report):
            os.remove(report)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_plot.run(argv)

    def check(tally, _i, code):
        try:
            with open(report, encoding="utf-8") as fh:
                passed = json.load(fh)["pass"] is True
        except (OSError, ValueError, KeyError):
            passed = False
        tally.record(None if code == 0 and passed else f"verify-failed: exit {code}, pass={passed}")

    return op, check


def child_env():
    """Environment for every child: the source tree on the path and one
    BLAS thread, so the load stays within two cores."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Fixed string hashing, so dict layouts do not differ run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def _closed_loop(items, op, check, seconds, kernel):
    tally = Tally()
    deadline = time.perf_counter() + seconds
    speed = calibrate(kernel)
    block_ops, block_s = 0, 0.0
    i = 0
    while time.perf_counter() < deadline:
        k = i % len(items)
        start = time.perf_counter()
        out = op(items[k])
        elapsed = time.perf_counter() - start
        tally.op_s.append(elapsed)
        check(tally, k, out)
        i += 1
        block_ops += 1
        block_s += elapsed
        if block_s >= BLOCK_S or time.perf_counter() >= deadline:
            # Each op in the block gets the speed measured on either side.
            reps = max(CAL_REPS, int(CAL_SHARE * block_s / CAL_REF_S[kernel]))
            new_speed = calibrate(kernel, reps)
            tally.blocks.append((block_ops, speed_scale(kernel, speed, new_speed)))
            speed, block_ops, block_s = new_speed, 0, 0.0
    return tally


_MAKERS = {"field": _field, "trace": _trace, "geometry": _geometry}


def run(workload, seed, seconds, traced):
    items = inputs.make_inputs(workload, seed)
    recorder = None
    with tempfile.TemporaryDirectory(dir=scratch_root()) as scratch:
        if workload == "verify":
            op, check = _verify(scratch)
            loop_items = [None]
        else:
            op, check = _MAKERS[workload](items)
            loop_items = items
        for item in loop_items[: WARMUP_OPS[workload]]:
            op(item)
        if traced:
            # The ops look their entry points up at call time, so
            # rebinding after the warm-up traces only the timed loop.
            recorder = spans.Spans()
            spans.install(recorder)
        tally = _closed_loop(
            loop_items, op, check, seconds, CAL_KERNEL.get(workload, "python")
        )
    usage = resource.getrusage(resource.RUSAGE_SELF)
    n = len(tally.op_s)
    return {
        "op_s": list(tally.op_s),
        "blocks": tally.blocks,
        "work": list(tally.arcs) if tally.arcs else [1.0] * n,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_known": tally.failed_known,
        "reasons": dict(tally.reasons),
        "failed_by_group": dict(tally.by_group),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "inputs_hash": inputs.inputs_hash(items),
        "spans": recorder.snapshot() if recorder is not None else None,
    }


def scratch_root():
    """Where runs may write: a directory inside the checkout."""
    path = os.path.join(ROOT, ".bench_build", "ortho-traj")
    os.makedirs(path, exist_ok=True)
    return path


def main(argv):
    if argv[0] == "setup":
        print(json.dumps(setup_seconds(argv[1])))
        return 0
    _, workload, seed, seconds, traced = argv
    result = run(workload, int(seed), float(seconds), traced == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

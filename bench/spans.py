"""Layer spans for the traced run, recorded from the benchmark's side.

``install()`` rebinds each layer's public entry points, at the module
attributes its callers look them up through, with wrappers that time
the call and note which span was open when it started.  Nothing under
``src/`` changes, and an untraced run rebinds nothing.

Spans are aggregated in memory per name (calls, total and self time,
and call counts per parent -> child edge) rather than kept one by one:
a trace run makes about a million cubic solves.  Self time is a span's
duration minus the time of the spans it caused.
"""

import time
from collections import defaultdict

_clock = time.perf_counter


class Spans:
    """Aggregated span statistics; one instance per traced process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.edges = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack = []

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._stack.append(name)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                self._stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                if parent is not None:
                    self.child[parent] += elapsed
                    self.edges[parent + ">" + name] += 1
            if on_result is not None:
                on_result(self.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": {n: self.total[n] - self.child[n] for n in self.total},
            "edges": dict(self.edges),
            "counts": dict(self.counts),
        }


def _count_trace(counts, result):
    counts["tracer.samples"] += len(result.samples)
    for reason in result.end_reasons:
        counts["tracer.end." + reason] += 1


def _count_records(counts, records):
    counts["geometry_analysis.intersections.records"] += len(records)


def _count_failed_checks(counts, result):
    report, _all_passed = result
    counts["verification.checks_failed"] += sum(
        not check.passed for _suite, checks in report for check in checks
    )


def install(spans):
    """Rebind every layer boundary the workloads cross to a traced wrapper."""
    from orthotraj import (
        cli_plot,
        core_model,
        exact_ode,
        geometry_analysis,
        roots,
        tracer,
        verification,
    )

    def rebind(modules, attr, name, on_result=None):
        wrapped = spans.wrap(name, getattr(modules[0], attr), on_result)
        for mod in modules:
            setattr(mod, attr, wrapped)

    rebind((roots, tracer), "slopes_at", "roots.slopes_at")
    rebind((geometry_analysis,), "bracketed_root", "roots.bracketed_root")
    rebind((exact_ode, tracer), "potential", "exact_ode.potential")
    rebind((core_model, geometry_analysis), "curve_point", "core_model.curve_point")
    rebind((tracer, verification), "trace_orthogonal", "tracer.trace_orthogonal", _count_trace)
    rebind((geometry_analysis, verification), "intersections",
           "geometry_analysis.intersections", _count_records)
    rebind((geometry_analysis, verification), "fit_conic", "geometry_analysis.fit_conic")
    rebind((geometry_analysis, verification), "classify_conic",
           "geometry_analysis.classify_conic")
    rebind((verification,), "run_suites", "verification.run_suites", _count_failed_checks)
    rebind((cli_plot,), "render_figure", "cli_plot.render_figure")
    for suite, fn in list(verification.SUITES.items()):
        verification.SUITES[suite] = spans.wrap("verification." + suite, fn)

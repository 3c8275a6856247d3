"""In-memory tracing of the w3toda layers, installed from outside the
package.

The tracer replaces public functions of the w3toda modules by wrappers for
the duration of a traced run and restores them afterwards; the package
itself is not modified.  Two kinds of wrapper are used:

* a *span* records (name, start, end, parent) for each call.  Spans are
  kept for layer boundaries that run at most a few thousand times per
  operation;
* a *counter* only counts calls (and, where asked, the time spent in the
  outermost call of that name).  The exact kernel (``RatFunc``
  construction, polynomial gcd/divmod/mul) runs millions of times per audit
  scan, too often for one span per call.

Per-operation metrics are derived from the spans below each operation's
root span and from counter deltas across the operation.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from w3toda import (
    algebra_core,
    descendant_forms,
    free_field,
    gmc_mc,
    hyp_numeric,
    singular_vectors,
    ward_bpz,
)

_now = time.perf_counter

OP = "op"

# (metric prefix, owner, attribute) of every span boundary
SPANS = (
    ("descendant_forms.miura_convention", descendant_forms, "miura_convention"),
    ("descendant_forms.miura_w_form", descendant_forms, "miura_w_form"),
    ("free_field.descendant_ratio_at", free_field, "descendant_ratio_at"),
    ("free_field.verify_derivative_identity", free_field,
     "verify_derivative_identity"),
    ("singular_vectors.verify_null_form", singular_vectors, "verify_null_form"),
    ("singular_vectors.solve_d1", singular_vectors, "solve_d1"),
    ("singular_vectors.eom_rhs", singular_vectors, "eom_rhs"),
    ("ward_bpz.global_ward_system", ward_bpz, "global_ward_system"),
    ("ward_bpz.free_field_residuals", ward_bpz, "free_field_residuals"),
    ("ward_bpz.bpz_spec", ward_bpz, "bpz_spec"),
    ("hyp_numeric.hyp_grid", hyp_numeric, "hyp_grid"),
    ("hyp_numeric.series_derivatives", hyp_numeric, "series_derivatives"),
    ("hyp_numeric.ode_integrate", hyp_numeric, "ode_integrate"),
    ("hyp_numeric.paper_integrals", hyp_numeric, "paper_integrals"),
    ("gmc_mc.estimate_correlator", gmc_mc, "estimate_correlator"),
    ("gmc_mc.fusion_probe", gmc_mc, "fusion_probe"),
    ("gmc_mc.sample_block", gmc_mc.GffEnsemble, "sample_block"),
    ("gmc_mc.mollified_covariance", gmc_mc, "mollified_covariance"),
    ("gmc_mc.cholesky", np.linalg, "cholesky"),
    ("gmc_mc.zero_mode_window", gmc_mc, "zero_mode_window"),
)

# (metric prefix, owner, attribute, timed) of every counted kernel call
COUNTERS = (
    ("algebra_core.ratfunc_new", algebra_core.RatFunc, "__init__", False),
    ("algebra_core.poly_gcd", algebra_core, "poly_gcd", True),
    ("algebra_core.poly_divmod", algebra_core, "poly_divmod", False),
    ("algebra_core.poly_mul", algebra_core, "poly_mul", False),
    ("descendant_forms.l_form", descendant_forms, "l_form", False),
    ("descendant_forms.vec_factor", descendant_forms, "vec_factor", False),
)

# per-layer metrics: name -> unit, in the order they are reported
METRICS = {
    "algebra_core.ratfunc_new.calls": "count",
    "algebra_core.poly_gcd.calls": "count",
    "algebra_core.poly_gcd.s": "s",
    "algebra_core.poly_divmod.calls": "count",
    "algebra_core.poly_mul.calls": "count",
    "descendant_forms.miura_convention.s": "s",
    "descendant_forms.l_form.calls": "count",
    "descendant_forms.vec_factor.calls": "count",
    "descendant_forms.miura_w_form.s": "s",
    "free_field.descendant_ratio_at.calls": "count",
    "free_field.descendant_ratio_at.s": "s",
    "free_field.verify_derivative_identity.s": "s",
    "singular_vectors.verify_null_form.s": "s",
    "singular_vectors.solve_d1.s": "s",
    "singular_vectors.eom_rhs.s": "s",
    "ward_bpz.global_ward_system.s": "s",
    "ward_bpz.free_field_residuals.s": "s",
    "ward_bpz.bpz_spec.s": "s",
    "hyp_numeric.hyp_grid.s": "s",
    "hyp_numeric.series_derivatives.calls": "count",
    "hyp_numeric.ode_integrate.s": "s",
    "hyp_numeric.paper_integrals.s": "s",
    "gmc_mc.sample_block.calls": "count",
    "gmc_mc.sample_block.s": "s",
    "gmc_mc.sample_block.gflops": "GFLOP/s",
    "gmc_mc.mollified_covariance.s": "s",
    "gmc_mc.cholesky.s": "s",
    "gmc_mc.fusion_probe.self_s": "s",
    "gmc_mc.estimate_correlator.self_s": "s",
    "gmc_mc.zero_mode_window.calls": "count",
    "gmc_mc.grid_points": "count",
    "gmc_mc.replicas": "count",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
}


def _block_flops(args, kwargs) -> dict:
    # chol (n x n) @ normals (n x 2*BLOCK): 2 * n^2 * 2 * BLOCK flops
    n = args[0].n
    return {"gmc_mc.sample_block.flops": 2 * n * n * 2 * gmc_mc.BLOCK}


def _grid_points(args, kwargs) -> dict:
    return {"gmc_mc.grid_points": len(args[0])}


def _replicas(args, kwargs) -> dict:
    reps = kwargs["replicas"] if "replicas" in kwargs else args[4]
    return {"gmc_mc.replicas": reps}


# extra work counts read off a span's arguments
_NOTES = {
    "gmc_mc.sample_block": _block_flops,
    "gmc_mc.mollified_covariance": _grid_points,
    "gmc_mc.estimate_correlator": _replicas,
    "gmc_mc.fusion_probe": _replicas,
}


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.counts = Counter()
        self.times = defaultdict(float)
        self._stack = []
        self._depth = Counter()
        self._saved = []
        self.span_cost, self.timed_cost, self.count_cost = self._calibrate()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        note = _NOTES.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            if note is not None:
                counts.update(note(args, kwargs))
            rec[1] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = _now()
                stack.pop()

        if hasattr(fn, "cache_clear"):
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _counter(self, name, fn, timed):
        counts, times, depth = self.counts, self.times, self._depth
        calls = name + ".calls"
        if not timed:
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)
            return wrapper

        def timed_wrapper(*args, **kwargs):
            counts[calls] += 1
            depth[name] += 1
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[name] -= 1
                if not depth[name]:
                    times[name] += _now() - t0
        return timed_wrapper

    def _calibrate(self, n: int = 20000) -> tuple:
        """Per-call cost of a span, a timed counter and a plain counter
        wrapper, from timing a trivial function with and without each;
        what the calibration records is discarded."""
        def nothing():
            return None

        def loop(fn):
            t0 = _now()
            for _ in range(n):
                fn()
            return (_now() - t0) / n

        base = min(loop(nothing) for _ in range(3))
        span = min(loop(self._span("calibration", nothing)) for _ in range(3))
        timed = min(loop(self._counter("calibration", nothing, True))
                    for _ in range(3))
        count = min(loop(self._counter("calibration", nothing, False))
                    for _ in range(3))
        self.spans.clear()
        self.counts.clear()
        self.times.clear()
        return tuple(max(c - base, 0.0) for c in (span, timed, count))

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, wrapper, modules):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        # modules that imported the function by name hold their own reference
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original and mod is not owner:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self, extra_modules=()):
        modules = [m for n, m in sys.modules.items()
                   if n.startswith("w3toda") and m is not None]
        modules += list(extra_modules)
        for name, owner, attr in SPANS:
            self._patch(owner, attr, self._span(name, getattr(owner, attr)),
                        modules)
        for name, owner, attr, timed in COUNTERS:
            self._patch(owner, attr,
                        self._counter(name, getattr(owner, attr), timed),
                        modules)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- operations --------------------------------------------------------

    def run_op(self, fn, *args):
        """Run one operation under a root span; returns (result, summary)
        where summary holds this operation's per-layer figures."""
        before_counts, before_times = Counter(self.counts), dict(self.times)
        first = len(self.spans)
        result = self._span(OP, fn)(*args)
        counts = self.counts - before_counts
        times = {k: v - before_times.get(k, 0.0) for k, v in self.times.items()}
        return result, self._summarize(first, counts, times)

    def _summarize(self, first: int, counts: Counter, times: dict) -> dict:
        spans = self.spans[first:]
        covered = defaultdict(float)     # outermost spans of each name
        calls = Counter()
        child_time = defaultdict(float)  # per span index: direct children
        for offset, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
            p, nested = parent, False
            while p >= first:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                covered[name] += end - start
        self_time = defaultdict(float)
        for offset, (name, start, end, _) in enumerate(spans):
            self_time[name] += (end - start) - child_time[first + offset]

        block_s = covered["gmc_mc.sample_block"]
        m = {
            "gmc_mc.sample_block.gflops":
                counts["gmc_mc.sample_block.flops"] / block_s / 1e9
                if block_s else 0.0,
            "gmc_mc.grid_points": counts["gmc_mc.grid_points"],
            "gmc_mc.replicas": counts["gmc_mc.replicas"],
            "trace.op_s": spans[0][2] - spans[0][1],
            "trace.overhead_s": len(spans) * self.span_cost + sum(
                counts[name + ".calls"]
                * (self.timed_cost if timed else self.count_cost)
                for name, _, _, timed in COUNTERS),
        }
        counted = {name for name, _, _, _ in COUNTERS}
        for metric in METRICS:
            if metric in m:
                continue
            layer, kind = metric.rsplit(".", 1)
            if kind == "self_s":
                m[metric] = self_time[layer]
            elif kind == "calls":
                m[metric] = counts[metric] if layer in counted else calls[layer]
            else:
                m[metric] = times.get(layer, 0.0) if layer in counted \
                    else covered[layer]
        return {metric: m[metric] for metric in METRICS}

    def write(self, path, summaries) -> None:
        """Write every span and the per-operation summaries as JSON."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "operations": summaries}, fh)


def median_metrics(summaries) -> dict:
    """Median over operations of each per-layer metric, with its unit."""
    return {name: {"value": statistics.median(s[name] for s in summaries),
                   "unit": unit}
            for name, unit in METRICS.items()}

"""Spans and counters around the calls into each rheokit layer.

The wrappers are installed from the benchmark's own files; no rheokit
source changes.  A span records name, start, end, parent span and
invocation id, and is kept in memory until the invocation ends.  A
layer's self time is its span's duration minus the time its child spans
cover.  Calls a layer makes into itself (``yosida`` running
``inf_convolve_direct``, say) stay inside the outer span.

``HOOKS`` is the list later changes read to see which counters a rename
would move.  A hook whose target no longer exists is reported as
absent; the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import time

# (span, how, module, attribute, other modules that import the name,
#  per-layer metrics the span reports)
#   span:      a span per call, nested under the caller's span
#   aggregate: time and count per call, added to the parent span's
#              children without storing one span per call
#   count:     call count only
# The last column names the metrics "<span>.<suffix>": "s" and "self_s"
# are the span's self time, "calls" its call count.  Counters (leaf
# calls, steps, points, bytes, pairs) are reported by the benchmark.
# "{method}" in a span name is filled from the call's ``method``.
HOOKS = (
    ("schema.parse", "span", "rheokit.schema", "parse_model", ("rheokit.cli",),
     ("s", "calls")),
    ("schema.parse", "span", "rheokit.schema", "parse_simulation", ("rheokit.cli",),
     ("s", "calls")),
    ("rheology.solve", "span", "rheokit.rheology", "stress_curve", ("rheokit.cli",),
     ("s", "calls")),
    ("rheology.solve", "span", "rheokit.rheology", "mu_eff_rigorous", ("rheokit.cli",),
     ("s", "calls")),
    ("rheology.closed_form", "span", "rheokit.rheology", "serial_dif_dsl_stress",
     ("rheokit.cli",), ("s",)),
    ("rheology.closed_form", "span", "rheokit.rheology", "mu_eff_formula", ("rheokit.cli",),
     ("s",)),
    ("rheology.leaf_calls", "count", "rheokit.rheology", "_leaf_flow", (), ()),
    ("rheology.leaf_calls", "count", "rheokit.rheology", "_leaf_stress", (), ()),
    ("maxwell0d.simulate", "span", "rheokit.maxwell0d", "simulate", ("rheokit.cli",),
     ("self_s",)),
    ("maxwell0d.step", "aggregate", "rheokit.maxwell0d", "step", (), ()),
    ("cli.csv", "span", "rheokit.cli", "_csv", (), ("s",)),
    ("cli.write", "span", "rheokit.cli", "_write", (), ("s",)),
    ("convex_core.legendre_{method}", "span", "rheokit.convex_core", "legendre_transform",
     (), ("s", "calls")),
    ("convex_core.inf_convolve_direct", "span", "rheokit.convex_core",
     "inf_convolve_direct", (), ("s", "calls")),
    ("convex_core.inf_convolve_via_conjugate", "span", "rheokit.convex_core",
     "inf_convolve_via_conjugate", (), ("s", "calls")),
    ("convex_core.yosida", "span", "rheokit.convex_core", "yosida", (), ("s", "calls")),
)
LEGENDRE_METHODS = ("sweep", "scan")


def span_metrics():
    """(span name, suffix) of every per-layer metric the span hooks report."""
    out = []
    for span, _, _, _, _, reports in HOOKS:
        names = [span.format(method=m) for m in LEGENDRE_METHODS] if "{method}" in span \
            else [span]
        out += [(n, x) for n in names for x in reports if (n, x) not in out]
    return out


class Recorder:
    """Spans and counters of one invocation, kept in memory."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans = []          # [name, start, end, parent index, self time]
        self.stack = []          # open span indices
        self.cover = []          # child time covered, per open span
        self.layers = {}         # open span count per layer
        self.counters = {}
        self.absent = {}

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def open(self, name, layer):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None, None])
        self.stack.append(len(self.spans) - 1)
        self.cover.append(0.0)
        self.layers[layer] = self.layers.get(layer, 0) + 1

    def close(self, layer):
        idx = self.stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        dur = span[2] - span[1]
        span[4] = dur - self.cover.pop()
        if self.cover:
            self.cover[-1] += dur
        self.layers[layer] -= 1

    def inside(self, layer):
        return self.layers.get(layer, 0) > 0

    def add_child_time(self, dur):
        if self.cover:
            self.cover[-1] += dur

    def totals(self):
        """Self time and call count per span name."""
        out = {}
        for name, _, _, _, self_s in self.spans:
            s, n = out.get(name, (0.0, 0))
            out[name] = (s + self_s, n + 1)
        return out

    def dump(self):
        return [{"name": n, "start": a, "end": b, "parent": p, "self_s": s,
                 "invocation": self.invocation} for n, a, b, p, s in self.spans]


def _pairs(metric, args, kwargs, result):
    """Computed n^2 work of the scan and direct routes (not measured)."""
    if metric == "convex_core.legendre_scan":
        return int(result.grid.size) * int(args[0].finite_sup)
    if metric in ("convex_core.inf_convolve_direct", "convex_core.yosida"):
        n = int(result.grid.size)
        return n * (n + 1) // 2
    return 0


def _span_wrapper(rec, metric, fn):
    layer = metric.split(".")[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.inside(layer):
            return fn(*args, **kwargs)
        name = metric
        if "{method}" in metric:
            name = metric.format(method=kwargs.get("method", args[2] if len(args) > 2
                                                   else "sweep"))
        rec.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(layer)
        if layer == "convex_core":
            rec.count("convex_core.pairs", _pairs(name, args, kwargs, result))
        elif metric == "rheology.solve":
            rec.count("rheology.points", int(getattr(args[1], "size", 1)))
        elif metric == "cli.csv":
            rec.count("cli.csv.bytes", len(result))
        return result

    return wrapper


def _aggregate_wrapper(rec, metric, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            rec.add_child_time(dur)
            rec.count(metric + ".s", dur)
            rec.count(metric + ".calls")

    return wrapper


def _count_wrapper(rec, metric, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(metric)
        return fn(*args, **kwargs)

    return wrapper


_WRAPPERS = {"span": _span_wrapper, "aggregate": _aggregate_wrapper, "count": _count_wrapper}


def install(rec: Recorder) -> None:
    """Wrap every hook target that exists; note the ones that do not."""
    for metric, how, module, attr, importers, _ in HOOKS:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            rec.absent[metric.format(method="*")] = f"{module} (module not found)"
            continue
        fn = getattr(mod, attr, None)
        if not callable(fn):
            rec.absent[metric.format(method="*")] = f"{module}.{attr}"
            continue
        wrapped = _WRAPPERS[how](rec, metric, fn)
        setattr(mod, attr, wrapped)
        for name in importers:
            other = importlib.import_module(name)
            if getattr(other, attr, None) is fn:
                setattr(other, attr, wrapped)

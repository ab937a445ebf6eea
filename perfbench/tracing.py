"""Outside-in spans and work counters around lbk's public functions.

Each function is wrapped where a consuming module binds it (for example
``lbk.oracle.bessel_j``), so a span records exactly the calls that layer
makes, and no file of the package changes.  A span is named after the
function's home module, which is its layer: ``specfun.bessel_j`` is the
span of every call any layer makes to that evaluator.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists and
written out by the caller when the run ends.  Spans nest on one thread, so
a span's self time is its duration minus the durations of its children,
and the self times of all spans under one root add up to the root's
duration.
"""

import contextlib
import time
from collections import Counter

import numpy as np

# (consuming module, attribute, span name): every binding the workloads
# reach.  verify.check_identity is the per-case function sweep_random maps
# over; cli.main is traced at the benchmark's own call site.
WRAPPED = (
    ("cli", "closed_form_I", "kernel.closed_form_I"),
    ("cli", "integrate_I", "oracle.integrate_I"),
    ("cli", "sweep_random", "verify.sweep_random"),
    ("verify", "check_identity", "verify.check_identity"),
    ("verify", "closed_form_I", "kernel.closed_form_I"),
    ("verify", "integrate_I", "oracle.integrate_I"),
    ("kernel", "assoc_legendre", "specfun.assoc_legendre"),
    ("kernel", "spherical_bessel_j", "specfun.spherical_bessel_j"),
    ("oracle", "assoc_legendre", "specfun.assoc_legendre"),
    ("oracle", "bessel_j", "specfun.bessel_j"),
)

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Span recorder plus the counters taken at the same boundaries.

    ``op_span`` names the span that starts one benchmark op; it and every
    span below it carry that op's id, spans above it carry -1.
    """

    def __init__(self, op_span):
        self.op_span = op_span
        self.spans = []
        self.counts = Counter()
        self.quad_calls = []
        self._stack = []
        self._quad = []
        self._ops = 0

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        op = self.spans[parent][OP] if parent >= 0 else -1
        if name == self.op_span:
            op = self._ops
            self._ops += 1
        self.spans.append([name, 0.0, 0.0, parent, op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def specfun_hook(self, name, site, x):
        # The last positional argument of each wrapped specfun evaluator is
        # the evaluation point (or array of points).
        points = int(np.size(x))
        self.counts[name + ".points"] += points
        if getattr(x, "dtype", None) == np.longdouble:
            self.counts["specfun.longdouble_points"] += points
        # One integrand pass of integrate_I calls bessel_j exactly once.
        if site == "oracle" and name == "specfun.bessel_j" and self._quad:
            frame = self._quad[-1]
            frame["passes"] += 1
            frame["nodes"] += points
            frame["last_pass_nodes"] = points
            frame["longdouble"] |= getattr(x, "dtype", None) == np.longdouble


def _wrap(tracer, fn, name, site):
    if name.startswith("specfun."):
        def traced(*args, **kwargs):
            tracer.specfun_hook(name, site, args[-1])
            return tracer.call(name, fn, *args, **kwargs)
    elif name == "oracle.integrate_I":
        def traced(*args, **kwargs):
            frame = {"passes": 0, "nodes": 0, "last_pass_nodes": 0,
                     "longdouble": False}
            tracer._quad.append(frame)
            try:
                result = tracer.call(name, fn, *args, **kwargs)
            finally:
                tracer._quad.pop()
            frame["converged"] = result.converged
            tracer.quad_calls.append(frame)
            return result
    else:
        def traced(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)
    traced.__wrapped__ = fn
    return traced


@contextlib.contextmanager
def installed(tracer, modules):
    """Wrap every ``WRAPPED`` binding for the duration of the block.

    ``modules`` maps the short module names above to the imported lbk
    modules.  The original bindings are restored on exit.
    """
    saved = []
    try:
        for mod, attr, name in WRAPPED:
            module = modules[mod]
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, fn, name, mod))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_times(spans):
    """Per-span self time: duration minus the durations of its children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _quantile(sorted_values, q):
    # Nearest-rank quantile; with 1000 samples p99 has ten samples beyond it.
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values) - 1, max(0, int(round(q * len(sorted_values))) - 1))
    return sorted_values[k]


def layer_metrics(tracer, wall):
    """Per-layer figures from the spans and counters of one traced run.

    Returns a flat ``{name: (value, unit)}`` dict: calls and self seconds
    per span name, self seconds per layer, the specfun point counts, the
    oracle work counters, the verify case-time quantiles and the share of
    the traced ``wall`` time the self times account for.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls = Counter()
    self_by_name = Counter()
    self_by_layer = Counter()
    case_ms = []
    for s, st in zip(spans, selfs):
        calls[s[NAME]] += 1
        self_by_name[s[NAME]] += st
        self_by_layer[s[NAME].split(".")[0]] += st
        if s[NAME] == "verify.check_identity":
            case_ms.append(1e3 * (s[END] - s[START]))
    case_ms.sort()

    out = {}
    for fn in ("bessel_j", "spherical_bessel_j", "assoc_legendre"):
        name = "specfun." + fn
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".points"] = (tracer.counts[name + ".points"], "count")
        out[name + ".self_s"] = (self_by_name[name], "s")
    out["specfun.longdouble_points"] = (
        tracer.counts["specfun.longdouble_points"], "count")
    for name in ("kernel.closed_form_I", "oracle.integrate_I"):
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".self_s"] = (self_by_name[name], "s")

    quads = tracer.quad_calls
    nodes = sum(q["nodes"] for q in quads)
    out["oracle.nodes"] = (nodes, "count")
    out["oracle.passes"] = (sum(q["passes"] for q in quads), "count")
    out["oracle.escalations"] = (sum(q["longdouble"] for q in quads), "count")
    out["oracle.unconverged"] = (sum(not q["converged"] for q in quads), "count")
    # Computed: the accepted pass is the last one evaluated (at
    # QuadResult.panels_used panels); every earlier pass only fed the
    # error estimate or the precision decision.
    useful = sum(q["last_pass_nodes"] for q in quads)
    out["oracle.useful_node_ratio"] = (useful / nodes if nodes else 0.0, "ratio")

    out["verify.case_p50_ms"] = (_quantile(case_ms, 0.50), "ms")
    out["verify.case_p99_ms"] = (_quantile(case_ms, 0.99), "ms")
    for layer in ("cli", "verify", "kernel", "oracle", "specfun", "bench"):
        out[layer + ".self_s"] = (self_by_layer[layer], "s")
    out["trace.accounted_frac"] = (sum(selfs) / wall, "frac")
    return out

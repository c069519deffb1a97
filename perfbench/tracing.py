"""Per-layer spans recorded from outside the program.

`installed(tracer)` re-binds every attribute of the `newtonsing.*` modules
that holds one of the layer functions below, plus two class attributes, to
a wrapper that records a span (layer, start, end, parent span, request id)
and the layer's work counters.  Spans stay in memory; `layer_metrics`
reduces them when the run ends.  Leaving the context restores every
attribute to the original object.
"""

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import Counter


def _box_points(lo, hi):
    n = 1
    for a, b in zip(lo, hi):
        n *= max(0, b - a + 1)
    return n


def _count_box(tracer, layer, args, kwargs, result):
    tracer.add(layer, "box_points", _box_points(args[2], args[3]))
    tracer.add(layer, "hits", result if isinstance(result, int) else len(result))


def _count_steps(tracer, layer, args, kwargs, result):
    tracer.add(layer, "steps", len(result.steps))


def _count_points(tracer, layer, args, kwargs, result):
    tracer.add(layer, "points", sum(len(s) for s in result.point_sets))


def _count_increments(tracer, layer, args, kwargs, result):
    tracer.add(layer, "increments", result)


def _count_graph(tracer, layer, args, kwargs, result):
    tracer.graphs.add((tracer.request, args[0]))


# (layer name, module, attribute, counter); a layer name is
# <module>.<function>, and a dotted attribute is a class attribute.
LAYERS = [
    ("cli.main", "cli", "main", None),
    ("cli.build_parser", "cli", "build_parser", None),
    ("cli.read_document", "cli", "read_document", None),
    ("invariants.SingularityModel.sequence", "invariants", "SingularityModel.sequence", None),
    ("newton.newton_polyhedron", "newton", "newton_polyhedron", None),
    ("newton.make_convenient", "newton", "make_convenient", None),
    ("newton.newton_weight", "newton", "newton_weight", None),
    ("newton.poincare_newton", "newton", "poincare_newton", None),
    ("newton.saito_spectrum", "newton", "saito_spectrum", None),
    ("graph.oka_graph", "graph", "oka_graph", None),
    ("graph.minimal_model", "graph", "minimal_model", None),
    ("graph.PlumbingGraph", "graph", "PlumbingGraph.__init__", None),
    ("graph.intersection_data", "graph", "intersection_data", _count_graph),
    ("sequences.run_sequence", "sequences", "run_sequence", _count_steps),
    ("sequences.laufer_x", "sequences", "laufer_x", None),
    ("series.counting_q", "series", "counting_q", None),
    ("series.enumerate_P", "series", "enumerate_P", _count_points),
    ("series.zeta_coefficient", "series", "zeta_coefficient", None),
    ("series.zeta_coefficient_convolution", "series", "zeta_coefficient_convolution", None),
    ("kernels.count_violating", "kernels", "count_violating", _count_box),
    ("kernels.collect_violating", "kernels", "collect_violating", _count_box),
    ("kernels.laufer_complete", "kernels", "laufer_complete", _count_increments),
    ("lattice.pair_data", "lattice", "pair_data", None),
]

# Layers whose wrapped calls raise on some workload (domain rejections).
RAISING = [
    "invariants.SingularityModel.sequence",
    "newton.make_convenient",
    "graph.oka_graph",
]

# (metric suffix, unit) per layer, beyond calls and self_s.
EXTRA = {
    "graph.intersection_data": [("calls_per_graph", "count")],
    "sequences.run_sequence": [("steps", "count")],
    "series.enumerate_P": [("points", "count")],
    "kernels.count_violating": [("box_points", "count"), ("hit_ratio", "ratio")],
    "kernels.collect_violating": [("box_points", "count"), ("hit_ratio", "ratio")],
    "kernels.laufer_complete": [("increments", "count")],
}

# Layers that report self time only.
SELF_ONLY = {
    "newton.poincare_newton",
    "newton.saito_spectrum",
    "series.zeta_coefficient",
    "series.zeta_coefficient_convolution",
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for layer, *_ in LAYERS:
        if layer not in SELF_ONLY:
            out[f"{layer}.calls"] = "count"
        out[f"{layer}.self_s"] = "s"
        for suffix, unit in EXTRA.get(layer, []):
            out[f"{layer}.{suffix}"] = unit
    out["invariants.sequence.hit_ratio"] = "ratio"
    for layer in RAISING:
        out[f"{layer}.raised"] = "count"
    out["trace.coverage"] = "ratio"
    out["trace.overhead_frac"] = "ratio"
    return out


class Tracer:
    """Spans in parallel arrays, indexed by span id; parents precede children."""

    def __init__(self):
        self.layers = [layer for layer, *_ in LAYERS]
        self.start = array("d")
        self.end = array("d")
        self.layer = array("i")
        self.parent = array("i")
        self.requests = array("i")
        self.stack = []
        self.request = -1
        self.counts = Counter()
        self.raised = Counter()
        self.graphs = set()

    def add(self, layer, counter, value):
        self.counts[layer, counter] += value

    def wrap(self, layer, fn, counter):
        lid = self.layers.index(layer)
        start, end, layers, parent, requests, stack = (
            self.start, self.end, self.layer, self.parent, self.requests, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            layers.append(lid)
            parent.append(stack[-1] if stack else -1)
            requests.append(self.request)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[layer] += 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()
            if counter is not None:
                counter(self, layer, args, kwargs, result)
            return result

        return wrapper

    def write_spans(self, path):
        """One JSON object per line: layer, start, end, parent span, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.layers[self.layer[i]], self.start[i], self.end[i],
                                     self.parent[i], self.requests[i]]) + "\n")

    def layer_metrics(self, wall_s):
        """Per-layer metrics of every span recorded; wall_s is the traced
        time inside `cli.main`, measured around the call.

        `trace.coverage` is the share of that time spent in layers below
        `cli.main`: the root's self time is what no layer accounts for.
        """
        n = len(self.start)
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            calls[self.layer[i]] += 1
            self_s[self.layer[i]] += dur[i] - child[i]
        seq = self.layers.index("invariants.SingularityModel.sequence")
        run = self.layers.index("sequences.run_sequence")
        under = bytearray(n)
        misses = 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0 and (under[p] or self.layer[p] == seq):
                under[i] = 1
                misses += self.layer[i] == run

        out = {}
        for lid, layer in enumerate(self.layers):
            if layer not in SELF_ONLY:
                out[f"{layer}.calls"] = calls[lid]
            out[f"{layer}.self_s"] = self_s[lid]
            for suffix, _ in EXTRA.get(layer, []):
                if suffix == "calls_per_graph":
                    value = calls[lid] / len(self.graphs) if self.graphs else 0.0
                elif suffix == "hit_ratio":
                    box = self.counts[layer, "box_points"]
                    value = self.counts[layer, "hits"] / box if box else 0.0
                else:
                    value = self.counts[layer, suffix]
                out[f"{layer}.{suffix}"] = value
        answered = calls[seq] - self.raised["invariants.SingularityModel.sequence"]
        out["invariants.sequence.hit_ratio"] = 1 - misses / answered if answered else 0.0
        for layer in RAISING:
            out[f"{layer}.raised"] = self.raised[layer]
        out["trace.coverage"] = 1 - self_s[self.layers.index("cli.main")] / wall_s
        return out


def _bindings(module_name, attr):
    """The layer's function and every (owner, attribute name) holding it."""
    module = sys.modules[f"newtonsing.{module_name}"]
    if "." in attr:
        cls_name, name = attr.split(".")
        cls = getattr(module, cls_name)
        return cls.__dict__[name], [(cls, name)]
    original = getattr(module, attr)
    owners = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "newtonsing" or mod_name.startswith("newtonsing.")):
            continue
        owners.extend((mod, name) for name, value in vars(mod).items() if value is original)
    return original, owners


@contextlib.contextmanager
def installed(tracer):
    """Wrap every layer for the duration of the block; yields the list of
    (owner, attribute, original) bindings that were replaced."""
    import newtonsing.cli  # noqa: F401  (loads every layer module)

    bindings = []
    try:
        for layer, module_name, attr, counter in LAYERS:
            original, owners = _bindings(module_name, attr)
            wrapper = tracer.wrap(layer, original, counter)
            for owner, name in owners:
                setattr(owner, name, wrapper)
                bindings.append((owner, name, original))
        yield bindings
    finally:
        for owner, name, original in reversed(bindings):
            setattr(owner, name, original)

"""Call tracing for the benchmark's traced runs.

The tracer wraps the public functions of the six cvsense modules from the
outside. A wrapper replaces the function in the module that defines it and
in every cvsense module that imported it by name; a class is traced through
its __post_init__. Each call records a span (name, start, end, parent span,
op id, extra counts) in memory. Self time is a span's duration minus the
union of its children's intervals; busy time is the union of all intervals
of one name, so a function that calls itself is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict, namedtuple
from contextlib import contextmanager

Span = namedtuple("Span", "name start end parent op attrs")

TARGETS = {
    "gaussian": ("GaussianState", "SymplecticTransform", "tensor", "complete_orthogonal",
                 "balanced_splitter", "unbalanced_splitter", "apply_symplectic", "apply_loss",
                 "displace_all", "homodyne_samples"),
    "protocols": ("simulate_displacement_protocol", "build_entangled_input",
                  "build_product_input", "analytic_rms_for_scheme", "analytic_config_rms",
                  "entangled_rms_error", "product_rms_error", "sensitivity_ratio_db",
                  "simulate_phase_protocol", "phase_exact_stats"),
    # brentq and expm are the scipy functions as imported by these modules.
    "allocation": ("WeightedNetwork", "weighted_entangled_rms", "allocate_photons_product",
                   "optimal_weights_entangled", "optimal_weights_product", "brentq"),
    "fisher": ("gaussian_fidelity", "fisher_numeric", "fisher_closed_form", "cr_bound_separable"),
    "fock": ("gaussian_to_fock", "fock_fidelity", "expm"),
    "cli": ("main", "parse_config"),
}

# Counts read off a traced call's return value.
ATTRS = {
    "gaussian.homodyne_samples": lambda out: {"outcomes": int(out.size)},
    "allocation.allocate_photons_product": lambda out: {
        "iterations": int(out.iterations), "kkt_residual": float(out.kkt_residual)},
}

# Metrics of a traced run that are not derived from spans.
EXTRA_METRICS = (
    ("gaussian.homodyne_samples.outcomes", "count", "higher"),
    ("gaussian.homodyne_samples.ns_per_outcome", "ns", "lower"),
    ("allocation.allocate_photons_product.iterations", "count", "lower"),
    ("allocation.allocate_photons_product.kkt_residual_max", "ratio", "lower"),
    ("allocation.optimal_weights_product.alternations", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.csv_bodies_changed", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def labels():
    return [f"{module}.{name}" for module, names in TARGETS.items() for name in names]


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run reports, in report order."""
    out = []
    for label in labels():
        out += [(f"{label}.calls", "count", "lower"), (f"{label}.self_s", "s", "lower"),
                (f"{label}.busy_s", "s", "lower")]
    return out + list(EXTRA_METRICS)


class Tracer:
    """Installs the wrappers, records spans, and removes every wrapper again."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    def _wrap(self, label, fn):
        attrs = ATTRS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)  # reserved so that children can name their parent
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            extra = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    try:
                        extra = attrs(out)
                    except (AttributeError, TypeError, ValueError):
                        pass  # a changed return type must not fail the traced op
                return out
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(label, start, end, parent, self.op, extra)

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        homes = {module: importlib.import_module(f"cvsense.{module}") for module in TARGETS}
        family = [mod for key, mod in sys.modules.items()
                  if key == "cvsense" or key.startswith("cvsense.")]
        for module, names in TARGETS.items():
            for name in names:
                # A function a later version removes is reported with zero calls.
                obj = getattr(homes[module], name, None)
                label = f"{module}.{name}"
                if isinstance(obj, type):
                    if "__post_init__" in vars(obj):
                        self._patch(obj, "__post_init__", self._wrap(label, obj.__post_init__))
                    continue
                if obj is None:
                    continue
                wrapper = self._wrap(label, obj)
                for mod in family:
                    for attr, value in list(vars(mod).items()):
                        if value is obj:
                            self._patch(mod, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def absorb(self, spans):
        """Append spans recorded by another process, renumbering their parents."""
        offset = len(self.spans)
        for name, start, end, parent, op, attrs in spans:
            self.spans.append(Span(name, start, end, parent + offset if parent >= 0 else -1, op, attrs))


def union_length(intervals):
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans):
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        inside = [(max(lo, span.start), min(hi, span.end)) for lo, hi in children[index]]
        out.append((span.end - span.start) - union_length([iv for iv in inside if iv[0] < iv[1]]))
    return out


def layer_metrics(spans):
    """Per-function calls, self_s and busy_s, plus the counts in EXTRA_METRICS read from spans."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    intervals = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        calls[span.name] += 1
        self_s[span.name] += own
        intervals[span.name].append((span.start, span.end))
    metrics = {}
    for label in labels():
        metrics[f"{label}.calls"] = calls[label]
        metrics[f"{label}.self_s"] = self_s[label]
        metrics[f"{label}.busy_s"] = union_length(intervals[label])

    def attr_values(label, key):
        return [s.attrs[key] for s in spans if s.name == label and s.attrs]

    outcomes = sum(attr_values("gaussian.homodyne_samples", "outcomes"))
    metrics["gaussian.homodyne_samples.outcomes"] = outcomes
    metrics["gaussian.homodyne_samples.ns_per_outcome"] = (
        1e9 * self_s["gaussian.homodyne_samples"] / outcomes if outcomes else 0.0)
    alloc = "allocation.allocate_photons_product"
    metrics[f"{alloc}.iterations"] = sum(attr_values(alloc, "iterations"))
    metrics[f"{alloc}.kkt_residual_max"] = max(attr_values(alloc, "kkt_residual"), default=0.0)
    metrics["allocation.optimal_weights_product.alternations"] = sum(
        1 for s in spans
        if s.name == alloc and s.parent >= 0
        and spans[s.parent].name == "allocation.optimal_weights_product")
    return metrics

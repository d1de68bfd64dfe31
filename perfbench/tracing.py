"""Spans around the package's layer boundaries, recorded from outside.

Each traced function is replaced, for the length of the traced run,
by a wrapper bound to the name under which the package (or the
benchmark itself) calls it.  Spans stay in memory and are written out
when the run ends.
"""

import time
from collections import Counter
from contextlib import contextmanager
from importlib import import_module

import numpy as np

#: (module whose global is called, attribute) for every traced call site
CALL_SITES = (
    ("hmmorder.estimator", "estimate_order"),  # the benchmark's own call
    ("hmmorder.harness", "run_experiment"),  # the benchmark's own call
    ("hmmorder.harness", "simulate"),
    ("hmmorder.harness", "estimate_order"),
    ("hmmorder.harness", "spectral_order"),
    ("hmmorder.estimator", "select_bandwidth"),
    ("hmmorder.estimator", "estimate_operator_matrix"),
    ("hmmorder.estimator", "tail_stats"),
    ("hmmorder.gram", "build_selectors"),
    ("hmmorder.gram", "build_gram"),
    ("hmmorder.gram", "cross_gram_matrix"),
    ("hmmorder.gram", "psd_sqrt"),
    ("hmmorder.gram", "build_shifted_product"),
    ("hmmorder.gram", "singular_spectrum"),
)


def span_name(fn) -> str:
    """``<defining module>.<function>`` without the package prefix."""
    return f"{fn.__module__.removeprefix('hmmorder.')}.{fn.__qualname__}"


def _count_gram(counts, args, result):
    counts["kernels.gram_entries"] += result.size


def _count_factor(counts, args, result):
    counts["gram.factor_bytes"] += result.nbytes


def _count_svd(counts, args, result):
    counts["gram.svd_dim"] = max(counts["gram.svd_dim"], min(np.shape(args[0])))


def _count_replicates(counts, args, result):
    for cell in result.cells:
        for rec in cell.records:
            counts["harness.replicates"] += 1
            counts["harness.errors"] += rec.error is not None


COUNTERS = {
    "kernels.cross_gram_matrix": _count_gram,
    "gram.psd_sqrt": _count_factor,
    "gram.singular_spectrum": _count_svd,
    "harness.run_experiment": _count_replicates,
}


class Tracer:
    """Records spans (name, start, end, parent, operation) and counts.

    A span without a parent starts a new operation; its descendants
    carry the same operation number.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.ops = 0
        self._stack = []

    def wrap(self, fn):
        name = span_name(fn)
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = self.spans[self._stack[-1]] if self._stack else None
            if parent is None:
                self.ops += 1
            span = {
                "id": len(self.spans),
                "op": self.ops - 1 if parent is None else parent["op"],
                "name": name,
                "parent": None if parent is None else parent["id"],
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every call site; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr in CALL_SITES:
                module = import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict:
        """name -> (self seconds, calls); self time is the span's
        duration minus the durations of its direct children."""
        child_total = Counter()
        for span in self.spans:
            if span["parent"] is not None:
                child_total[span["parent"]] += span["end"] - span["start"]
        out = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_total[span["id"]]
            total, calls = out.get(span["name"], (0.0, 0))
            out[span["name"]] = (total + own, calls + 1)
        return out


def layer_names() -> list:
    """Span names of every traced call site, without duplicates."""
    names = []
    for module_name, attr in CALL_SITES:
        name = span_name(getattr(import_module(module_name), attr))
        if name not in names:
            names.append(name)
    return names

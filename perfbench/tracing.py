"""In-memory spans around graphquant's public functions.

``Tracer.installed()`` swaps each public function that
``graphquant.experiments`` imports, plus ``UndirectedGraph.from_edges``
and the file readers and preprocessor that ``load_graph_files`` calls,
for a wrapper that records a span (name, start, end, parent) and the
layer's counts. The originals come back when the block exits, so an
untraced operation runs the program's own code with nothing in between.

Spans stay in memory until ``dump`` writes them out. ``layer_metrics``
turns them into per-operation layer times: ``.s`` is the time inside the
layer's calls, ``.self_s`` that time minus the time of wrapped calls
nested in it.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module name, attribute, span name). Several functions may share a span
# name; their times and calls add up under it.
WRAPPED = (
    ("experiments", "generate_homophilous_graph", "graph.generate"),
    ("experiments", "ground_truth", "graph.ground_truth"),
    ("experiments", "top_quantile_indices", "graph.top_quantile"),
    ("graph", "read_edge_list", "graph.read"),
    ("graph", "read_label_file", "graph.read"),
    ("graph", "load_and_preprocess", "graph.preprocess"),
    ("experiments", "rwrw_walk", "samplers.rwrw_walk"),
    ("experiments", "node_sample", "samplers.node_sample"),
    ("experiments", "edge_sample", "samplers.edge_sample"),
    ("experiments", "snowball_sample", "samplers.snowball_sample"),
    ("experiments", "importance_resample", "samplers.importance_resample"),
    ("experiments", "with_noisy_labels", "samplers.with_noisy_labels"),
    ("experiments", "estimate_proportions", "samplers.estimate"),
    ("experiments", "estimate_edge_vector", "samplers.estimate"),
    ("experiments", "apply_noise", "noise.apply_noise"),
    ("experiments", "empirical_confusion", "noise.empirical_confusion"),
    ("experiments", "adjust_proportions", "quantify.correct"),
    ("experiments", "adjust_edge_proportions", "quantify.correct"),
    ("experiments", "adjust_visibility", "quantify.correct"),
    ("experiments", "ingroup_share", "quantify.index"),
    ("experiments", "coleman_homophily", "quantify.index"),
)
FROM_EDGES = "graph.from_edges"

# Spans the benchmark opens around its own calls into the program.
RUN = "experiments"
SUMMARIZE = "experiments.summarize"
WRITE_CSV = "experiments.write_csv"
INGEST = "ingest"

# Per-layer metrics in the order BENCHMARK.json lists them: (metric,
# unit, how it is computed). Times and counts are per operation, where an
# operation is one replication on the grids and one ingest on ingest.
_TIME = "s/op"
_COUNT = "count/op"
LAYER_METRICS = (
    ("graph.generate.self_s", _TIME, ("self", "graph.generate")),
    ("graph.generate.calls", _COUNT, ("calls", "graph.generate")),
    ("graph.from_edges.s", _TIME, ("time", FROM_EDGES)),
    ("graph.from_edges.calls", _COUNT, ("calls", FROM_EDGES)),
    ("graph.ground_truth.s", _TIME, ("time", "graph.ground_truth")),
    ("graph.ground_truth.calls", _COUNT, ("calls", "graph.ground_truth")),
    ("graph.top_quantile.s", _TIME, ("time", "graph.top_quantile")),
    ("graph.top_quantile.calls", _COUNT, ("calls", "graph.top_quantile")),
    ("graph.read.s", _TIME, ("time", "graph.read")),
    ("graph.read.calls", _COUNT, ("calls", "graph.read")),
    ("graph.preprocess.self_s", _TIME, ("self", "graph.preprocess")),
    ("graph.preprocess.calls", _COUNT, ("calls", "graph.preprocess")),
    ("graph.preprocess.kept_ratio", "ratio", ("ratio", "kept_edges", "raw_records")),
    ("samplers.rwrw_walk.s", _TIME, ("time", "samplers.rwrw_walk")),
    ("samplers.rwrw_walk.calls", _COUNT, ("calls", "samplers.rwrw_walk")),
    ("samplers.node_sample.s", _TIME, ("time", "samplers.node_sample")),
    ("samplers.node_sample.calls", _COUNT, ("calls", "samplers.node_sample")),
    ("samplers.edge_sample.s", _TIME, ("time", "samplers.edge_sample")),
    ("samplers.edge_sample.calls", _COUNT, ("calls", "samplers.edge_sample")),
    ("samplers.snowball_sample.s", _TIME, ("time", "samplers.snowball_sample")),
    ("samplers.snowball_sample.calls", _COUNT, ("calls", "samplers.snowball_sample")),
    ("samplers.importance_resample.s", _TIME, ("time", "samplers.importance_resample")),
    ("samplers.importance_resample.calls", _COUNT, ("calls", "samplers.importance_resample")),
    ("samplers.with_noisy_labels.s", _TIME, ("time", "samplers.with_noisy_labels")),
    ("samplers.with_noisy_labels.calls", _COUNT, ("calls", "samplers.with_noisy_labels")),
    ("samplers.estimate.s", _TIME, ("time", "samplers.estimate")),
    ("samplers.estimate.calls", _COUNT, ("calls", "samplers.estimate")),
    ("samplers.records", _COUNT, ("count", "sample_records")),
    ("samplers.walk.recorded_ratio", "ratio", ("ratio", "walk_recorded", "walk_steps")),
    ("noise.apply_noise.s", _TIME, ("time", "noise.apply_noise")),
    ("noise.apply_noise.calls", _COUNT, ("calls", "noise.apply_noise")),
    ("noise.empirical_confusion.s", _TIME, ("time", "noise.empirical_confusion")),
    ("noise.empirical_confusion.calls", _COUNT, ("calls", "noise.empirical_confusion")),
    ("noise.flips", _COUNT, ("count", "flips")),
    ("quantify.correct.s", _TIME, ("time", "quantify.correct")),
    ("quantify.correct.calls", _COUNT, ("calls", "quantify.correct")),
    ("quantify.index.s", _TIME, ("time", "quantify.index")),
    ("quantify.index.calls", _COUNT, ("calls", "quantify.index")),
    ("quantify.out_of_range", _COUNT, ("count", "out_of_range")),
    ("experiments.self_s", _TIME, ("self", RUN)),
    ("experiments.calls", _COUNT, ("calls", RUN)),
    ("experiments.summarize.s", _TIME, ("time", SUMMARIZE)),
    ("experiments.summarize.calls", _COUNT, ("calls", SUMMARIZE)),
    ("experiments.write_csv.s", _TIME, ("time", WRITE_CSV)),
    ("experiments.write_csv.calls", _COUNT, ("calls", WRITE_CSV)),
    ("experiments.rows", _COUNT, ("count", "rows")),
    ("experiments.rows_failed", _COUNT, ("count", "rows_failed")),
)


def _count_result(counts: Counter, name: str, args, result) -> None:
    """Counts recorded at a layer boundary, from its arguments and result."""
    if name in ("samplers.rwrw_walk", "samplers.node_sample",
                "samplers.edge_sample", "samplers.snowball_sample"):
        counts["sample_records"] += len(result)
        if name == "samplers.rwrw_walk":
            counts["walk_recorded"] += len(result)
            counts["walk_steps"] += len(result) + result.burn_in
    elif name == "noise.apply_noise":
        counts["flips"] += int(np.count_nonzero(np.asarray(args[0]) != result))
    elif name in ("quantify.correct", "quantify.index"):
        counts["out_of_range"] += bool(getattr(result, "out_of_range", False))
    elif name == "graph.read" and isinstance(result, list):
        counts["raw_records"] += len(result)
    elif name == "graph.preprocess":
        counts["kept_edges"] += result.edge_count


class Tracer:
    """Spans and counts of the traced operations of one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = len(self.spans)
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        _count_result(self.counts, name, args, result)
        return result

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Wrap the program's public functions for the duration of the block."""
        from graphquant import experiments, graph

        modules = {"experiments": experiments, "graph": graph}
        saved = []
        cls = graph.UndirectedGraph
        original_from_edges = cls.__dict__["from_edges"]
        try:
            for module_name, attr, name in WRAPPED:
                module = modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            cls.from_edges = classmethod(self._wrap(FROM_EDGES, original_from_edges.__func__))
            yield self
        finally:
            cls.from_edges = original_from_edges
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self, units: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over all traced spans, per operation."""
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child_time[idx]
            calls[name] += 1
        out: dict[str, tuple[float, str]] = {}
        per_op = 1.0 / max(units, 1)
        for metric, unit, (kind, *keys) in LAYER_METRICS:
            if kind == "time":
                value = total[keys[0]] * per_op
            elif kind == "self":
                value = own[keys[0]] * per_op
            elif kind == "calls":
                value = calls[keys[0]] * per_op
            elif kind == "count":
                value = self.counts[keys[0]] * per_op
            else:
                den = self.counts[keys[1]]
                value = self.counts[keys[0]] / den if den else 0.0
            out[metric] = (value, unit)
        return out

    def dump(self, path) -> None:
        """Write every span and count as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                 "counts": dict(self.counts)},
                fh,
            )

"""Replicated sampling experiments over graphs, noise rates and sizes.

A run crosses samplers x misclassification rates x sample sizes. Each
replication generates (or reuses) a graph, draws one noisy label per node
and rate, lets every sampler observe the same graph, and records the four
minority-group measures (proportion, in-group edge share, top-quantile
visibility, Coleman homophily) in three variants: no_noise, uncorrected,
and corrected. Rows carry the signed error against that replication's
exact ground truth, the same four measures of the whole graph. A graph
reused across replications (``fixed_graph``, or files) is built once per
process, and its truths are computed once per top quantile and kept in
the same cache slot.

Each sample is measured once per label set (its true labels, then each
rate's noisy labels): group shares, edge-type shares and the group shares
of its top-quantile records. The variants come from these stored vectors:
no_noise and uncorrected read them as they are, and corrected applies the
confusion-matrix correction to the noisy ones, as in adjusted classify
and count. A failure is recorded where it arises, so a measurement
failure flags both noisy variants and a correction failure only the
corrected one.

Rows and summary cells are NamedTuples whose field order is the CSV
column order. A replication emits each cell's rows measure by measure,
each in the three variants, which is the order of the file, so the run
only sorts them by (sampler, rate, size, replication).

Everything is deterministic given the master seed: per-purpose RNG
streams are split from it by counter keys, replications are independent
tasks, and that stable sort runs before writing, so thread count cannot
change the output bytes.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .graph import (
    UndirectedGraph,
    check_growth,
    generate_homophilous_graph,
    load_graph_files,
)
from .noise import ConfusionMatrix, apply_noise, empirical_confusion, symmetric_confusion
from .quantify import (
    PropVector,
    SingularCorrectionError,
    UndefinedShareError,
    adjust_edge_proportions,
    adjust_proportions,
    coleman_homophily,
    ingroup_share,
)
from .samplers import (
    SEED_DEGREE,
    NoObservedEdgesError,
    check_quantile,
    check_walk,
    edge_sample,
    estimate_edge_vector,
    estimate_proportions,
    ground_truth,
    node_sample,
    rwrw_walk,
    snowball_sample,
    top_records,
    with_noisy_labels,
)

# Names perfbench/tracing.py still wraps; nothing in the package defines or calls them.
adjust_visibility = importance_resample = top_quantile_indices = None

SAMPLERS = ("rwrw", "node", "edge", "snowball")
MEASURES = ("proportion", "ingroup", "visibility", "homophily")
VARIANTS = ("no_noise", "uncorrected", "corrected")

# RNG stream tags; every random decision is keyed (master, tag, rep, ...).
_GRAPH, _NOISE, _SAMPLE, _LABELED = 0, 1, 2, 3
# Uniform seed nodes of each snowball sample.
_SNOWBALL_SEEDS = 10


def _check_kinds(integers, reals, flags) -> None:
    """Refuse (name, value) pairs of the wrong kind: bool is an int
    subclass, and a float size only fails inside numpy."""
    for name, value in integers:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    for name, value in reals:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
    for name, value in flags:
        if not isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must be true or false, got {value!r}")


@dataclass(frozen=True)
class GraphSpec:
    """Graph source: input files when ``edge_file`` or ``label_file`` is set, else the generator."""

    n: int = 10000
    m: int = 4
    minority_frac: float = 0.2
    ingroup_pref: float = 0.8
    edge_file: str | None = None
    label_file: str | None = None
    directed: bool = False

    def __post_init__(self) -> None:
        reals = [("minority_frac", self.minority_frac), ("ingroup_pref", self.ingroup_pref)]
        _check_kinds([("n", self.n), ("m", self.m)], reals, [("directed", self.directed)])
        files = (self.edge_file, self.label_file)
        if files != (None, None):
            if not all(isinstance(p, (str, os.PathLike)) and p for p in files):
                raise ValueError("files graph needs edge_file and label_file")
            return
        check_growth(self.n, self.m, self.minority_frac, self.ingroup_pref)


def _object(data, name: str, cls) -> dict:
    """A JSON object as keyword arguments of ``cls``: a dict whose keys
    are all field names of ``cls``."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be an object, got {data!r}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    return dict(data)


@dataclass(frozen=True)
class ExperimentConfig:
    graph: GraphSpec = field(default_factory=GraphSpec)
    samplers: tuple[str, ...] = SAMPLERS
    rates: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3)
    sample_sizes: tuple[int, ...] = (1000, 1500, 2000, 2500, 3000)
    replications: int = 500
    top_quantile: float = 0.2
    master_seed: int = 0
    fixed_graph: bool = False
    seed_mode: str = SEED_DEGREE
    burn_in: int = 0
    confusion_from_labeled: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.graph, GraphSpec):
            raise ValueError(f"graph must be a GraphSpec, got {self.graph!r}")
        names = ("replications", "master_seed", "burn_in")
        integers = [(name, getattr(self, name)) for name in names]
        integers += [("sample_sizes", z) for z in self.sample_sizes]
        if self.confusion_from_labeled is not None:
            integers.append(("confusion_from_labeled", self.confusion_from_labeled))
        reals = [("rates", r) for r in self.rates] + [("top_quantile", self.top_quantile)]
        _check_kinds(integers, reals, [("fixed_graph", self.fixed_graph)])
        for s in self.samplers:
            if s not in SAMPLERS:
                raise ValueError(f"unknown sampler {s!r}")
        for r in self.rates:
            symmetric_confusion(r)
        if any(z < 1 for z in self.sample_sizes):
            raise ValueError("sample sizes must be positive")
        for name in ("samplers", "rates", "sample_sizes"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must not be empty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct, got {values!r}")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        check_quantile(self.top_quantile)
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        check_walk(self.seed_mode, self.burn_in)
        if self.confusion_from_labeled is not None and self.confusion_from_labeled < 2:
            raise ValueError("confusion_from_labeled needs at least 2 labeled nodes")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        kwargs = _object(data, "config", cls)
        if "graph" in kwargs:
            kwargs["graph"] = GraphSpec(**_object(kwargs["graph"], "graph", GraphSpec))
        for key in ("samplers", "rates", "sample_sizes"):
            if key in kwargs:
                if not isinstance(kwargs[key], (list, tuple)):
                    raise ValueError(f"{key} must be a list, got {kwargs[key]!r}")
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class ResultRow(NamedTuple):
    """One line of rows.csv; the field order is the column order."""

    sampler: str
    rate: float
    size: int
    rep: int
    measure: str
    variant: str
    estimate: float | None
    error: float | None
    flags: str  # "" | "out_of_range" | "failed:<code>"


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[ResultRow]


def _stream(master: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(master),) + tuple(int(k) for k in key))


# Row truths of the four measures by top quantile.
_Truths = dict[float, dict[str, float | None]]

# One slot: the graph reused across replications, keyed by what it was
# built from, with its truths. A new key evicts the old graph and truths.
_GRAPH_CACHE: dict[tuple, tuple[UndirectedGraph, _Truths]] = {}


def _cached(key: tuple, build) -> tuple[UndirectedGraph, _Truths]:
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE.clear()
        _GRAPH_CACHE[key] = (build(), {})
    return _GRAPH_CACHE[key]


def _graph_for_rep(cfg: ExperimentConfig, rep: int) -> tuple[UndirectedGraph, _Truths]:
    """The replication's graph and the truths known for it: those of the
    cached graph, or none yet for a fresh one."""
    spec = cfg.graph
    if spec.edge_file:
        # Size and mtime are part of the key, so a rewritten file is read again.
        stats = [os.stat(path) for path in (spec.edge_file, spec.label_file)]
        key = (spec.edge_file, spec.label_file, spec.directed) + tuple(
            (st.st_size, st.st_mtime_ns) for st in stats
        )
        return _cached(
            key, partial(load_graph_files, spec.edge_file, spec.label_file, directed=spec.directed)
        )
    generate = partial(
        generate_homophilous_graph, spec.n, spec.m, spec.minority_frac, spec.ingroup_pref
    )
    if cfg.fixed_graph:
        return _cached((spec, cfg.master_seed), partial(generate, _stream(cfg.master_seed, _GRAPH)))
    return generate(_stream(cfg.master_seed, _GRAPH, rep)), {}


# Domain failures and their row flags; any other exception is a bug and raises.
_FAIL_CODES = (
    (NoObservedEdgesError, "no_edges"),
    (SingularCorrectionError, "singular"),
    (UndefinedShareError, "undefined_share"),
)
_FAILURES = tuple(etype for etype, _ in _FAIL_CODES)


def _attempt(fn, *args):
    """``fn(*args)``, or the domain failure it raised. A failure passed as
    the first argument comes straight back, so it flows down a chain."""
    if isinstance(args[0], Exception):
        return args[0]
    try:
        return fn(*args)
    except _FAILURES as exc:
        return exc


def _entry(result, field: str = "b") -> tuple[float | None, str]:
    """(estimate, flags) of a vector or index, or of its failure."""
    if isinstance(result, Exception):
        code = next(code for etype, code in _FAIL_CODES if isinstance(result, etype))
        return None, f"failed:{code}"
    return getattr(result, field), "out_of_range" if result.out_of_range else ""


def _draw_sample(cfg: ExperimentConfig, g: UndirectedGraph, sampler: str, size: int, seed):
    if size > g.node_count:
        raise ValueError(f"sample size {size} exceeds graph size {g.node_count}")
    if sampler == "rwrw":
        return rwrw_walk(g, size, seed_mode=cfg.seed_mode, burn_in=cfg.burn_in, rng_seed=seed)
    if sampler == "node":
        return node_sample(g, size, rng_seed=seed)
    if sampler == "edge":
        # Edge sampling spends the size budget on endpoint records, two per
        # edge; a connected graph has at least N - 1 >= size // 2 edges.
        return edge_sample(g, max(1, size // 2), rng_seed=seed)
    if sampler == "snowball":
        return snowball_sample(g, size, n_seeds=_SNOWBALL_SEEDS, rng_seed=seed)
    raise ValueError(f"unknown sampler {sampler!r}")


def _measure(sample, top) -> tuple:
    """Group shares, edge-type shares and top-quantile group shares of the
    sample's labels, each a vector or its failure. ``top`` holds the
    top-quantile records, or the failure of selecting them."""
    return (
        _attempt(estimate_proportions, sample),
        _attempt(estimate_edge_vector, sample),
        _attempt(estimate_proportions, top),
    )


def _variants(measured: tuple, correction: ConfusionMatrix | None) -> dict[str, tuple[float | None, str]]:
    """The four measures from measured vectors, corrected when a confusion
    matrix is given, with per-measure failure isolation."""
    p_vec, t_vec, v_vec = measured
    if correction is not None:
        p_vec = _attempt(adjust_proportions, p_vec, correction)
        t_vec = _attempt(adjust_edge_proportions, t_vec, correction)
        v_vec = _attempt(adjust_proportions, v_vec, correction)
    share = _attempt(ingroup_share, t_vec, 1)
    if isinstance(share, Exception):
        ingroup = _entry(share)
    else:
        # Rounding is monotone, so an in-range t_vec gives a share in [0, 1].
        ingroup = (share, "out_of_range" if t_vec.out_of_range else "")
    if isinstance(p_vec, Exception) or isinstance(share, Exception):
        homophily = (None, "failed:inputs")
    else:
        homophily = _entry(_attempt(coleman_homophily, share, p_vec.b), "value")
    return {
        "proportion": _entry(p_vec),
        "ingroup": ingroup,
        "visibility": _entry(v_vec),
        "homophily": homophily,
    }


def _replication_rows(cfg: ExperimentConfig, rep: int) -> list[ResultRow]:
    g, known = _graph_for_rep(cfg, rep)
    if cfg.top_quantile not in known:
        gt = ground_truth(g, cfg.top_quantile)
        # The truths are the four measures of the population's exact vectors.
        vis = gt.visibility_b
        top = UndefinedShareError("no top quantile") if vis is None else PropVector(1.0 - vis, vis)
        population = (gt.p, gt.s, top)
        known[cfg.top_quantile] = {m: est for m, (est, _) in _variants(population, None).items()}
    truths = known[cfg.top_quantile]

    confusions = [symmetric_confusion(r) for r in cfg.rates]
    noisy_maps = [
        apply_noise(g.labels, confusions[ri], _stream(cfg.master_seed, _NOISE, rep, ri))
        for ri in range(len(cfg.rates))
    ]

    rows: list[ResultRow] = []
    for si, sampler in enumerate(cfg.samplers):
        for zi, size in enumerate(cfg.sample_sizes):
            base = _draw_sample(cfg, g, sampler, size, _stream(cfg.master_seed, _SAMPLE, rep, si, zi))
            # Weights depend only on degrees, so every label set shares one selection.
            top = _attempt(top_records, base, cfg.top_quantile)
            corrections = confusions
            if cfg.confusion_from_labeled is not None:
                # k labeled nodes among the distinct nodes the sample saw (a sort and
                # a mask: np.unique hashes, 10x slower), graded against every rate.
                seen = np.sort(base.nodes)
                seen = seen[np.append(True, seen[1:] != seen[:-1])]
                k = min(cfg.confusion_from_labeled, seen.shape[0])
                rng = np.random.default_rng(_stream(cfg.master_seed, _LABELED, rep, si, zi))
                labeled = rng.choice(seen, size=k, replace=False)
                gold = g.labels[labeled]
                # C is undefined when the labeled nodes hold one true group.
                corrections = [
                    None if gold.min() == gold.max() else empirical_confusion(gold, noisy[labeled])
                    for noisy in noisy_maps
                ]
            clean = _variants(_measure(base, top), None)
            for ri, rate in enumerate(cfg.rates):
                noisy_sample = with_noisy_labels(base, noisy_maps[ri])
                noisy_top = _attempt(with_noisy_labels, top, noisy_maps[ri])
                measured = _measure(noisy_sample, noisy_top)
                uncorrected = _variants(measured, None)
                if corrections[ri] is None:
                    corrected = {m: (None, "failed:confusion_undefined") for m in MEASURES}
                else:
                    corrected = _variants(measured, corrections[ri])
                # Measure-major, as in the file, so a cell's rows need no sort.
                for measure in MEASURES:
                    truth = truths[measure]
                    for variant, est in zip(VARIANTS, (clean, uncorrected, corrected)):
                        estimate, flags = est[measure]
                        if truth is None and not flags.startswith("failed"):
                            flags = "failed:undefined_truth"
                        error = None if estimate is None or truth is None else estimate - truth
                        rows.append(
                            ResultRow(sampler, rate, size, rep, measure, variant, estimate, error, flags)
                        )
    return rows


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run the full grid; deterministic given the config and master seed."""
    if threads < 1:
        raise ValueError("threads must be positive")
    reps = range(cfg.replications)
    rows: list[ResultRow] = []
    if threads == 1:
        for rep in reps:
            rows.extend(_replication_rows(cfg, rep))
    else:
        chunk = max(1, math.ceil(cfg.replications / (threads * 4)))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for batch in pool.map(partial(_replication_rows, cfg), reps, chunksize=chunk):
                rows.extend(batch)
    # Stable: each cell's rows keep their measure-then-variant order.
    rows.sort(key=attrgetter("sampler", "rate", "size", "rep"))
    return ExperimentResult(config=cfg, rows=rows)


def nrmse(errors, truth: float) -> float | None:
    """Root mean squared error over the truth's magnitude; None when the
    truth is 0.

    Dividing by ``|truth|`` keeps the NRMSE of a negative truth (homophily
    on a heterophilous graph) nonnegative. The undefined marker keeps
    zero-truth cells out of NRMSE tables instead of dividing by zero.
    """
    arr = np.asarray(list(errors), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one error")
    if truth == 0.0:
        return None
    return float(np.sqrt(np.mean(arr * arr)) / abs(truth))


def _nearest_rank(sorted_values: np.ndarray, pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * sorted_values.shape[0]))
    return float(sorted_values[rank - 1])


class SummaryRow(NamedTuple):
    """One line of summary.csv; the field order is the column order."""

    sampler: str
    rate: float
    size: int
    measure: str
    variant: str
    reps: int
    failures: int
    mean_error: float | None
    p2_5: float | None
    p97_5: float | None
    nrmse: float | None
    out_of_range_rate: float
    failure_rate: float


def summarize(result: ExperimentResult) -> list[SummaryRow]:
    """Per-cell error summaries: mean, central 95% band (nearest rank),
    NRMSE against the mean truth, and flag rates."""
    groups: dict[tuple, list[ResultRow]] = {}
    for row in result.rows:
        groups.setdefault(
            (row.sampler, row.rate, row.size, row.measure, row.variant), []
        ).append(row)

    out: list[SummaryRow] = []
    for key in sorted(
        groups,
        key=lambda k: (k[0], k[1], k[2], MEASURES.index(k[3]), VARIANTS.index(k[4])),
    ):
        rows = groups[key]
        ok = [r for r in rows if not r.flags.startswith("failed") and r.error is not None]
        failures = len(rows) - len(ok)
        flagged = sum(1 for r in rows if r.flags == "out_of_range")
        if ok:
            errors = np.sort(np.array([r.error for r in ok], dtype=float))
            truth_mean = float(np.mean([r.estimate - r.error for r in ok]))
            mean_error = float(errors.mean())
            p_lo = _nearest_rank(errors, 2.5)
            p_hi = _nearest_rank(errors, 97.5)
            cell_nrmse = nrmse(errors, truth_mean)
        else:
            mean_error = p_lo = p_hi = cell_nrmse = None
        out.append(
            SummaryRow(
                *key, len(rows), failures, mean_error, p_lo, p_hi, cell_nrmse,
                flagged / len(rows), failures / len(rows),
            )
        )
    return out


def _write_csv(path, rows, row_type) -> None:
    """The row type's field names, then one line per row. The csv module
    writes None as an empty field and a float as its shortest repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(row_type._fields)
        writer.writerows(rows)


def write_rows_csv(result: ExperimentResult, path) -> None:
    _write_csv(path, result.rows, ResultRow)


def write_summary_csv(summary: list[SummaryRow], path) -> None:
    _write_csv(path, summary, SummaryRow)

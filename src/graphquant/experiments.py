"""Replicated sampling experiments over graphs, noise rates and sizes.

A run crosses samplers x misclassification rates x sample sizes. Each
replication generates (or reuses) a graph, lets every sampler draw from
it, gives the drawn nodes one noisy label per rate, and records the four
minority-group measures (proportion, in-group edge share, top-quantile
visibility, Coleman homophily) in three variants: no_noise, uncorrected,
and corrected. Rows carry the signed error against that replication's
exact ground truth, the same four measures of the whole graph. A graph
reused across replications (``fixed_graph``, or files) is built once per
process, and its truths are computed once per top quantile and kept in
the same cache slot.

Each sampler draws once per replication, at the largest size, and every
size is measured on the draw's first records, which are a sample of that
size: ``Sample.prefix`` is the definition the tests check the grid's cuts
against. Rows of different sizes in one replication thus share random
numbers; each summary cell holds one size, and its rows are independent
across replications.

A replication keeps one (label sets x records) int8 table over its draws:
the true labels, then each rate's noisy labels. A rate draws one uniform
per graph node, as ``apply_noise`` does, and flips labels only at the
drawn nodes, so a node keeps one label however often it is drawn. Each
draw is measured in one pass that returns arrays over (size x label set):
the group shares from one reduction per size over the size's first
columns, the edge-type shares from pair codes computed once per draw and
counted at each size's edge cut (the draw's edges sorted once by their
later endpoint), and the group shares of the top-quantile records from
one ranking of the whole draw, cut at each size. The distinct nodes a
draw saw come from one first-occurrence pass, and each size's labeled
nodes are drawn among the first records of those it saw; estimated
confusion matrices grade every rate on one labeled set in one count.

The variants come from one array pass over every (sampler, size, rate,
variant) of the replication (``_variants``): no_noise and uncorrected read
the measured shares as they are, and corrected applies the confusion-matrix
correction to the noisy ones, as in adjusted classify and count. The
formulas are ``quantify``'s kernels, which its functions on single vectors
also call. A failure is recorded where it arises, so a measurement failure
flags both noisy variants and a correction failure only the corrected one.
Each domain failure carries its row flag as ``code`` (``failed:<code>``);
any other exception is a bug and raises.

A replication returns its estimates, errors and flag codes as arrays in
the file's measure-then-variant order, and the run places each in file
order by the config's axes, so no row is built or sorted: ``summarize``
reduces (cells x replications) blocks, the writers format lines, and
``ExperimentResult.rows`` builds NamedTuple rows only when asked. Rows and
summary cells are NamedTuples whose field order is the CSV column order.

Everything is deterministic given the master seed: per-purpose RNG
streams are split from it by counter keys, and each replication is an
independent task placed by its index, so thread count cannot change the
output bytes.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from .graph import (
    UndirectedGraph,
    check_growth,
    generate_homophilous_graph,
    load_graph_files,
)
from .noise import UndefinedConfusionError, empirical_confusion, flip_labels, symmetric_confusion
from .quantify import (
    SingularCorrectionError,
    UndefinedShareError,
    coleman_index,
    correct_edge_shares,
    correct_shares,
    ingroup_shares,
    outside_unit,
    singular,
)
from .samplers import (
    SEED_DEGREE,
    NoObservedEdgesError,
    check_quantile,
    check_walk,
    edge_sample,
    edge_type_counts,
    ground_truth,
    minority_shares,
    node_sample,
    rank_records,
    rwrw_walk,
    snowball_sample,
    top_cut,
)

# Names perfbench/tracing.py still wraps; nothing in the package defines or calls them.
adjust_visibility = importance_resample = top_quantile_indices = None
# Names it wraps that the grid no longer calls, each bound to the real function.
from .noise import apply_noise  # noqa: E402
from .quantify import adjust_edge_proportions, adjust_proportions, coleman_homophily, ingroup_share  # noqa: E402
from .samplers import estimate_edge_vector, estimate_proportions, with_noisy_labels  # noqa: E402

SAMPLERS = ("rwrw", "node", "edge", "snowball")
MEASURES = ("proportion", "ingroup", "visibility", "homophily")
VARIANTS = ("no_noise", "uncorrected", "corrected")

# RNG stream tags; every random decision is keyed (master, tag, rep, ...).
_GRAPH, _NOISE, _SAMPLE, _LABELED = 0, 1, 2, 3


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
        # As tuples, so that a config given lists still hashes.
        for name in ("samplers", "sample_sizes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        names = ("replications", "master_seed", "burn_in")
        integers = [(name, getattr(self, name)) for name in names]
        integers += [("sample_sizes", z) for z in self.sample_sizes]
        if self.confusion_from_labeled is not None:
            integers.append(("confusion_from_labeled", self.confusion_from_labeled))
        reals = [("rates", r) for r in self.rates] + [("top_quantile", self.top_quantile)]
        _check_kinds(integers, reals, [("fixed_graph", self.fixed_graph)])
        # As floats: a float32 rate would leave C in float32, and 0 would write "0".
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
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
    """One line of rows.csv; the field order is the column order. A row
    with an empty estimate or error always carries a ``failed:`` flag."""

    sampler: str
    rate: float
    size: int
    rep: int
    measure: str
    variant: str
    estimate: float | None
    error: float | None
    flags: str  # "" | "out_of_range" | "failed:<code>"


def _file_axes(cfg: ExperimentConfig) -> tuple:
    """The values of each key field of a row, in file order."""
    axes = (sorted(cfg.samplers), sorted(cfg.rates), sorted(cfg.sample_sizes))
    return (*axes, range(cfg.replications), MEASURES, VARIANTS)


@dataclass(eq=False)
class ExperimentResult:
    """A run's rows as arrays over the row key axes in file order: each
    row's estimate, error and flag code, the first two read only where the
    code lets the row have them. ``rows`` builds the ResultRows on demand."""

    config: ExperimentConfig
    estimates: np.ndarray
    errors: np.ndarray
    codes: np.ndarray

    def _columns(self, missing) -> tuple[list, list, list]:
        """Each row's estimate and error (a Python float, or ``missing``) and flag."""
        codes = self.codes.ravel()
        est, err = (a.astype(object).ravel() for a in (self.estimates, self.errors))
        est[(codes >= _FAILED) & (codes != _UNDEFINED_TRUTH)] = missing
        err[codes >= _FAILED] = missing
        return est.tolist(), err.tolist(), np.array(_FLAGS, dtype=object)[codes].tolist()

    @property
    def rows(self) -> list[ResultRow]:
        keys = itertools.product(*_file_axes(self.config))
        return [ResultRow(*key, *values) for key, values in zip(keys, zip(*self._columns(None)))]


def _stream(master: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(master),) + tuple(int(k) for k in key))


# The truths of the four measures by top quantile, NaN where undefined.
_Truths = dict[float, np.ndarray]

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


# Domain failures, each naming its row flag in ``code``; any other exception is a bug and raises.
_FAILURES = (NoObservedEdgesError, SingularCorrectionError, UndefinedConfusionError, UndefinedShareError)
# Row flags by code. Codes from _FAILED on are failures: the domain failures',
# a derived measure's failed inputs, and an estimate without a truth.
_FLAGS = (
    "", "out_of_range", *(f"failed:{f.code}" for f in _FAILURES), "failed:inputs", "failed:undefined_truth"
)
_OUT_OF_RANGE, _FAILED, _INPUTS, _UNDEFINED_TRUTH = 1, 2, len(_FLAGS) - 2, len(_FLAGS) - 1


def _code(failure) -> int:
    """Row flag code of a domain failure, given as its class or an instance."""
    return _FLAGS.index(f"failed:{failure.code}")


_NO_EDGES, _SINGULAR, _UNDEFINED_SHARE = map(
    _code, (NoObservedEdgesError, SingularCorrectionError, UndefinedShareError)
)


def _attempt(fn, *args):
    """``fn(*args)``, or the domain failure it raised."""
    try:
        return fn(*args)
    except _FAILURES as exc:
        return exc


def _records_for(sampler: str, size: int) -> int:
    """Records of a sample of the given size. Edge sampling spends the size
    budget on endpoint records, two per edge; a connected graph has at
    least N - 1 >= size // 2 edges."""
    return 2 * max(1, size // 2) if sampler == "edge" else size


def _draw_sample(cfg: ExperimentConfig, g: UndirectedGraph, sampler: str, seed):
    """One sample at the largest size; its prefixes are the smaller sizes."""
    size = max(cfg.sample_sizes)
    if size > g.node_count:
        raise ValueError(f"sample size {size} exceeds graph size {g.node_count}")
    if sampler == "rwrw":
        return rwrw_walk(g, size, seed_mode=cfg.seed_mode, burn_in=cfg.burn_in, rng_seed=seed)
    if sampler == "node":
        return node_sample(g, size, rng_seed=seed)
    if sampler == "edge":
        return edge_sample(g, _records_for(sampler, size) // 2, rng_seed=seed)
    return snowball_sample(g, size, rng_seed=seed)


def _measure(labels, drawn, counts, quantile: float):
    """Minority shares, edge-type shares and top-quantile minority shares
    of each label set, a row of ``labels``, over the first ``c`` records of
    the draw for each record count ``c`` in ``counts``: arrays over (size x
    label set), the edge-type shares along a last axis (aa, ab, bb). A
    size's edge or top-quantile measure that failed reads NaN, and its code
    is in the per-size edge and top failure codes that come last."""
    later = drawn.edge_positions.max(axis=1)
    by_later = np.argsort(later, kind="stable")
    # A size's edges are those whose later endpoint comes before its cut.
    cuts = np.searchsorted(later[by_later], counts)
    edge_counts = edge_type_counts(labels, drawn.edge_positions[by_later], cuts)
    with np.errstate(invalid="ignore"):
        edges = np.moveaxis(edge_counts, 0, 1) / cuts[:, None, None]
    edge_failed = np.where(cuts == 0, _NO_EDGES, 0)
    # The draw's ranking, cut at a size, is that size's own ranking.
    ranked = rank_records(drawn)
    props, tops, top_failed = [], [], []
    for count in counts:
        weights = drawn.weights[:count]
        props.append(minority_shares(weights, labels[:, :count]))
        top = _attempt(top_cut, ranked[ranked < count], weights, quantile)
        if isinstance(top, Exception):
            tops.append(np.full(labels.shape[0], np.nan))
            top_failed.append(_code(top))
        else:
            idx, top_weights = top
            tops.append(minority_shares(top_weights, np.take(labels, idx, axis=1)))
            top_failed.append(0)
    return np.array(props), edges, np.array(tops), edge_failed, np.array(top_failed)


def _variants(b, t, v, failed, correction=None):
    """The four measures (proportion, in-group share, visibility, Coleman's
    index) of the minority group in every unit, and their row flag codes,
    each stacked along a new first axis over arrays shaped like ``b``.

    A unit holds measured vectors: the minority share ``b``, the edge-type
    shares ``t`` (aa, ab, bb along its first axis) and the top-quantile
    minority share ``v``. ``failed`` holds the codes of its failed edge and
    top-quantile measures, 0 where they were measured. ``correction`` is
    None, or (entries, det, failed, corrected): confusion-matrix entries
    (row-major along their first axis), determinants, the code of a
    correction that failed, and where to correct. A failed correction fails
    every measure; otherwise each measure is flagged by its own failure, by
    its inputs' for the index, or as out of range. Rounding is monotone, so
    in-range inputs give an in-group share in [0, 1] and an index in
    [-1, 1]: each is flagged by its inputs.
    """
    edge_failed, top_failed = failed
    p, top = np.array((1.0 - b, b)), np.array((1.0 - v, v))
    p_failed = correction_failed = 0
    if correction is not None:
        entries, det, correction_failed, corrected = correction
        # Units left uncorrected, and failed measures, may divide by zero here.
        with np.errstate(all="ignore"):
            p = np.where(corrected, correct_shares(*p, entries, det), p)
            top = np.where(corrected, correct_shares(*top, entries, det), top)
            t = np.where(corrected, correct_edge_shares(t, entries, det), t)
        correction_failed = np.where(corrected, correction_failed, 0)
        p_failed = np.where(corrected & singular(det), _SINGULAR, 0)
        top_failed = np.where(top_failed > 0, top_failed, p_failed)
        edge_singular = np.where(corrected & singular(det, 3), _SINGULAR, 0)
        edge_failed = np.where(edge_failed > 0, edge_failed, edge_singular)
    share, no_share = ingroup_shares(t[2], t[1])
    index, no_index = coleman_index(share, p[1])
    share_failed = np.select(
        [edge_failed > 0, no_share, outside_unit(*t)],
        [edge_failed, _UNDEFINED_SHARE, _OUT_OF_RANGE],
    )
    codes = (
        np.select([p_failed > 0, outside_unit(*p)], [p_failed, _OUT_OF_RANGE]),
        share_failed,
        np.select([top_failed > 0, outside_unit(*top)], [top_failed, _OUT_OF_RANGE]),
        np.select(
            [(p_failed > 0) | (share_failed >= _FAILED), no_index, outside_unit(share, p[1])],
            [_INPUTS, _UNDEFINED_SHARE, _OUT_OF_RANGE],
        ),
    )
    estimates = np.stack(np.broadcast_arrays(p[1], share, top[1], index))
    codes = np.where(correction_failed > 0, correction_failed, np.stack(np.broadcast_arrays(*codes)))
    return estimates, codes


def _replication_rows(cfg: ExperimentConfig, rep: int):
    """One replication's estimates, errors and flag codes over (sampler,
    size, rate, measure, variant), each config axis in its given order."""
    g, known = _graph_for_rep(cfg, rep)
    if cfg.top_quantile not in known:
        gt = ground_truth(g, cfg.top_quantile)
        # The truths are the four measures of the population's exact vectors, NaN where undefined.
        vis = gt.visibility_b
        top_failed = 0 if vis is not None else _UNDEFINED_SHARE
        est, codes = _variants(
            np.array([gt.p.b]),
            np.array(gt.s.as_tuple())[:, None],
            np.array([np.nan if vis is None else vis]),
            (0, top_failed),
        )
        known[cfg.top_quantile] = np.where(codes >= _FAILED, np.nan, est)[:, 0]
    truths = known[cfg.top_quantile]

    # One label table over every draw's records: the true labels, then each
    # rate's noisy labels from apply_noise's uniforms, read at the drawn
    # nodes. The streams are independent, so drawing first changes nothing.
    draws = [
        _draw_sample(cfg, g, sampler, _stream(cfg.master_seed, _SAMPLE, rep, si))
        for si, sampler in enumerate(cfg.samplers)
    ]
    nodes = np.concatenate([d.nodes for d in draws])
    table = np.empty((1 + len(cfg.rates), nodes.shape[0]), dtype=np.int8)
    table[0] = g.labels[nodes]
    confusions = [symmetric_confusion(r) for r in cfg.rates]
    for ri, confusion in enumerate(confusions):
        u = np.random.default_rng(_stream(cfg.master_seed, _NOISE, rep, ri)).random(g.node_count)
        table[1 + ri] = flip_labels(table[0], u[nodes], confusion)
    tables = np.split(table, np.cumsum([len(d) for d in draws])[:-1], axis=1)

    # Per (sampler, size, rate): each rate's confusion matrix, or the one
    # estimated from labeled nodes, as entries, determinant and failure code.
    shape = (len(cfg.samplers), len(cfg.sample_sizes), len(cfg.rates))
    entries = np.empty(shape + (4,))
    entries[...] = [c.to_flat() for c in confusions]
    det = np.empty(shape)
    det[...] = [c.det for c in confusions]
    correction_failed = np.zeros(shape[:2], dtype=np.int64)
    measured = []
    for si, (sampler, drawn, labels) in enumerate(zip(cfg.samplers, draws, tables)):
        counts = [_records_for(sampler, size) for size in cfg.sample_sizes]
        measured.append(_measure(labels, drawn, counts, cfg.top_quantile))
        if cfg.confusion_from_labeled is None:
            continue
        # The first record of each distinct node of the draw, by ascending node.
        first = np.unique(drawn.nodes, return_index=True)[1]
        for zi, count in enumerate(counts):
            # k labeled nodes among the distinct nodes the size saw, graded against every rate.
            pool = first[first < count]
            k = min(cfg.confusion_from_labeled, pool.shape[0])
            rng = np.random.default_rng(_stream(cfg.master_seed, _LABELED, rep, si, zi))
            labeled = rng.choice(pool, size=k, replace=False)
            graded = _attempt(empirical_confusion, labels[0, labeled], labels[1:, labeled])
            if isinstance(graded, Exception):
                entries[si, zi], det[si, zi], correction_failed[si, zi] = np.nan, np.nan, _code(graded)
            else:
                entries[si, zi] = [c.to_flat() for c in graded]
                det[si, zi] = [c.det for c in graded]

    # Units over (sampler, size, rate, variant): the true labels as they are,
    # then each rate's noisy labels as they are and corrected.
    props, edges, tops, edge_failed, top_failed = (np.array(x) for x in zip(*measured))
    label_set = np.array([[0, 1 + ri, 1 + ri] for ri in range(len(cfg.rates))])
    est, codes = _variants(
        props[:, :, label_set],
        np.moveaxis(edges[:, :, label_set], -1, 0),
        tops[:, :, label_set],
        (edge_failed[:, :, None, None], top_failed[:, :, None, None]),
        (
            np.moveaxis(entries, -1, 0)[..., None],
            det[..., None],
            correction_failed[:, :, None, None],
            np.array([False, False, True]),
        ),
    )
    # Measure-major within each (sampler, size, rate), as in the file.
    est, codes = np.moveaxis(est, 0, -2), np.moveaxis(codes, 0, -2)
    truth = truths[:, None]
    codes = np.where(np.isnan(truth) & (codes < _FAILED), _UNDEFINED_TRUTH, codes)
    return est, est - truth, codes.astype(np.int8)


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run the full grid; deterministic given the config and master seed."""
    if threads < 1:
        raise ValueError("threads must be positive")
    reps = range(cfg.replications)
    if threads == 1:
        blocks = [_replication_rows(cfg, rep) for rep in reps]
    else:
        chunk = max(1, math.ceil(cfg.replications / (threads * 4)))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(partial(_replication_rows, cfg), reps, chunksize=chunk))
    # Stacked over (rep, sampler, size, rate, measure, variant), then placed in file order.
    order = np.ix_(*(np.argsort(a, kind="stable") for a in (cfg.samplers, cfg.sample_sizes, cfg.rates)))
    estimates, errors, codes = (
        np.stack(b)[(slice(None), *order)].transpose(1, 3, 2, 0, 4, 5) for b in zip(*blocks)
    )
    return ExperimentResult(cfg, estimates, errors, codes)


def _nearest_rank(pct: float, count: int) -> int:
    """Index of the nearest-rank percentile among ``count`` sorted values."""
    return max(1, math.ceil(pct / 100.0 * count)) - 1


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
    NRMSE, and flag rates. NRMSE is the root mean squared error over the
    magnitude of the mean truth, so a negative truth (homophily on a
    heterophilous graph) keeps it nonnegative; it is None when that truth
    is 0, which keeps such cells out of NRMSE tables.

    Cells come in file order. A row counts toward its cell's statistics
    unless its flag starts with ``failed``; every other row has an estimate
    and an error. The cells with k usable rows are reduced together, as a
    C-ordered (cells x k) block along its rows; each row of such a block
    rounds as the 1-D reduction of that cell alone would.
    """
    samplers, rates, sizes, reps, measures, variants = _file_axes(result.config)
    cells = list(itertools.product(samplers, rates, sizes, measures, variants))
    # (cells x replications), each cell's replications in order.
    arrays = (result.estimates, result.errors, result.codes)
    estimate, errors, codes = (np.moveaxis(a, 3, -1).reshape(len(cells), -1) for a in arrays)
    usable = codes < _FAILED
    ok = usable.sum(axis=1)
    stats = [(None,) * 4] * len(cells)
    for k in np.unique(ok[ok > 0]).tolist():
        block_cells = np.flatnonzero(ok == k)
        # Each cell's usable rows; a failed row may read NaN or inf, and is not gathered.
        kept = usable[block_cells]
        block_errors = errors[block_cells][kept].reshape(-1, k)
        truth_mean = (estimate[block_cells][kept].reshape(-1, k) - block_errors).mean(axis=1).tolist()
        errs = np.sort(block_errors, axis=1)
        rms = np.sqrt((errs * errs).mean(axis=1)).tolist()
        columns = (
            errs.mean(axis=1).tolist(),
            errs[:, _nearest_rank(2.5, k)].tolist(),
            errs[:, _nearest_rank(97.5, k)].tolist(),
            [None if t == 0.0 else r / abs(t) for r, t in zip(rms, truth_mean)],
        )
        for cell, stat in zip(block_cells.tolist(), zip(*columns)):
            stats[cell] = stat

    n = len(reps)
    flagged = (codes == _OUT_OF_RANGE).sum(axis=1)
    return [
        SummaryRow(*key, n, n - k, *stat, f / n, (n - k) / n)
        for key, k, f, stat in zip(cells, ok.tolist(), flagged.tolist(), stats)
    ]


def _line(row) -> str:
    """A row's line as csv.writer writes it: None as an empty field, and a
    float as its shortest repr (str, for a Python float)."""
    return ",".join(["" if x is None else str(x) for x in row]) + "\r\n"


def _write_lines(path, row_type, lines) -> None:
    """The row type's field names, then the lines. No field of either row
    type needs quoting: they are fixed tokens and numbers."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_line(row_type._fields))
        fh.write("".join(lines))


def write_rows_csv(result: ExperimentResult, path) -> None:
    """rows.csv, from the result's arrays: str writes each key field as
    csv.writer does, a float rate as its repr."""
    heads = map(",".join, itertools.product(*(list(map(str, a)) for a in _file_axes(result.config))))
    lines = [f"{h},{e},{x},{f}\r\n" for h, e, x, f in zip(heads, *result._columns(""))]
    _write_lines(path, ResultRow, lines)


def write_summary_csv(summary: list[SummaryRow], path) -> None:
    _write_lines(path, SummaryRow, map(_line, summary))

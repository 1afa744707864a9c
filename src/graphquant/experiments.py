"""Replicated sampling experiments over graphs, noise rates and sizes.

A run crosses samplers x misclassification rates x sample sizes. Each
replication generates (or reuses) a graph, draws one noisy label per node
and rate, lets every sampler observe the same graph, and records the four
minority-group measures (proportion, in-group edge share, top-quantile
visibility, Coleman homophily) in three variants: no_noise, uncorrected,
and corrected. Rows carry the signed error against that replication's
exact ground truth.

Everything is deterministic given the master seed: per-purpose RNG
streams are split from it by counter keys, replications are independent
tasks, and rows are sorted before writing so thread count cannot change
the output bytes.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from operator import attrgetter

import numpy as np

from .graph import (
    UndirectedGraph,
    generate_homophilous_graph,
    ground_truth,
    load_graph_files,
    top_quantile_indices,
)
from .noise import ConfusionMatrix, apply_noise, empirical_confusion, symmetric_confusion
from .quantify import (
    SingularCorrectionError,
    UndefinedShareError,
    adjust_edge_proportions,
    adjust_proportions,
    adjust_visibility,
    coleman_homophily,
    ingroup_share,
)
from .samplers import (
    SEED_DEGREE,
    SEED_UNIFORM,
    NoObservedEdgesError,
    edge_sample,
    estimate_edge_vector,
    estimate_proportions,
    importance_resample,
    node_sample,
    rwrw_walk,
    shares_in_top_quantile,
    snowball_sample,
    with_noisy_labels,
)

SAMPLERS = ("rwrw", "node", "edge", "snowball")
MEASURES = ("proportion", "ingroup", "visibility", "homophily")
VARIANTS = ("no_noise", "uncorrected", "corrected")

# RNG stream tags; every random decision is keyed (master, tag, rep, ...).
_GRAPH, _NOISE, _SAMPLE, _RESAMPLE, _LABELED = range(5)

ROWS_HEADER = (
    "sampler",
    "rate",
    "size",
    "rep",
    "measure",
    "variant",
    "estimate",
    "error",
    "flags",
)
SUMMARY_HEADER = (
    "sampler",
    "rate",
    "size",
    "measure",
    "variant",
    "reps",
    "failures",
    "mean_error",
    "p2_5",
    "p97_5",
    "nrmse",
    "out_of_range_rate",
    "failure_rate",
)


@dataclass(frozen=True)
class GraphSpec:
    """Graph source: synthetic generator parameters or input files."""

    kind: str = "generated"  # generated | files
    n: int = 10000
    m: int = 4
    minority_frac: float = 0.2
    ingroup_pref: float = 0.8
    edge_file: str | None = None
    label_file: str | None = None
    directed: bool = False

    def validate(self) -> None:
        if self.kind == "generated":
            if self.m < 1 or self.n <= self.m:
                raise ValueError("generated graph needs n > m >= 1")
            if not 0.0 <= self.minority_frac <= 1.0:
                raise ValueError("minority_frac must lie in [0, 1]")
            if not 0.0 <= self.ingroup_pref <= 1.0:
                raise ValueError("ingroup_pref must lie in [0, 1]")
        elif self.kind == "files":
            if not self.edge_file or not self.label_file:
                raise ValueError("files graph needs edge_file and label_file")
        else:
            raise ValueError(f"unknown graph kind {self.kind!r}")


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
    seed_mode: str = "degree_proportional"
    burn_in: int = 0
    snowball_seeds: int = 10
    resample_factor: int = 10
    confusion_from_labeled: int | None = None

    def validate(self) -> None:
        self.graph.validate()
        # bool is an int subclass, and a float size only fails inside numpy.
        names = ("replications", "master_seed", "burn_in", "snowball_seeds", "resample_factor")
        integers = [(name, getattr(self, name)) for name in names]
        integers += [("n", self.graph.n), ("m", self.graph.m)]
        integers += [("sample_sizes", z) for z in self.sample_sizes]
        if self.confusion_from_labeled is not None:
            integers.append(("confusion_from_labeled", self.confusion_from_labeled))
        for name, value in integers:
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not self.samplers:
            raise ValueError("need at least one sampler")
        for s in self.samplers:
            if s not in SAMPLERS:
                raise ValueError(f"unknown sampler {s!r}")
        if len(set(self.samplers)) != len(self.samplers):
            raise ValueError("duplicate sampler")
        if not self.rates:
            raise ValueError("need at least one rate")
        for r in self.rates:
            if not 0.0 <= r < 0.5:
                raise ValueError(f"rates must lie in [0, 0.5), got {r}")
        if not self.sample_sizes or any(z < 1 for z in self.sample_sizes):
            raise ValueError("sample sizes must be positive")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if not 0.0 < self.top_quantile <= 1.0:
            raise ValueError("top_quantile must lie in (0, 1]")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.seed_mode not in (SEED_DEGREE, SEED_UNIFORM):
            raise ValueError(f"unknown seed_mode {self.seed_mode!r}")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if self.snowball_seeds < 1:
            raise ValueError("need at least one snowball seed")
        if self.resample_factor < 1:
            raise ValueError("resample_factor must be positive")
        if self.confusion_from_labeled is not None and self.confusion_from_labeled < 2:
            raise ValueError("confusion_from_labeled needs at least 2 labeled nodes")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["samplers"] = list(self.samplers)
        out["rates"] = list(self.rates)
        out["sample_sizes"] = list(self.sample_sizes)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "graph" in kwargs:
            gknown = {f.name for f in GraphSpec.__dataclass_fields__.values()}
            gunknown = set(kwargs["graph"]) - gknown
            if gunknown:
                raise ValueError(f"unknown graph config keys: {sorted(gunknown)}")
            kwargs["graph"] = GraphSpec(**kwargs["graph"])
        for key in ("samplers", "rates", "sample_sizes"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True, slots=True)
class ResultRow:
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

    def rows_for(self, **filters) -> list[ResultRow]:
        out = self.rows
        for key, value in filters.items():
            out = [r for r in out if getattr(r, key) == value]
        return out

    def errors_for(self, **filters) -> np.ndarray:
        return np.array(
            [
                r.error
                for r in self.rows_for(**filters)
                if r.error is not None and not r.flags.startswith("failed")
            ]
        )


def _stream(master: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(master),) + tuple(int(k) for k in key))


_GRAPH_CACHE: dict[tuple, UndirectedGraph] = {}


def _build_graph(spec: GraphSpec, seed) -> UndirectedGraph:
    if spec.kind == "generated":
        return generate_homophilous_graph(
            spec.n, spec.m, spec.minority_frac, spec.ingroup_pref, seed
        )
    # Size and mtime are part of the key, so a rewritten file is read again,
    # and the graph of its previous contents is evicted.
    stats = [os.stat(path) for path in (spec.edge_file, spec.label_file)]
    key = (spec.edge_file, spec.label_file, spec.directed) + tuple(
        (st.st_size, st.st_mtime_ns) for st in stats
    )
    if key not in _GRAPH_CACHE:
        for stale in [k for k in _GRAPH_CACHE if k[:3] == key[:3]]:
            del _GRAPH_CACHE[stale]
        _GRAPH_CACHE[key] = load_graph_files(
            spec.edge_file, spec.label_file, directed=spec.directed
        )
    return _GRAPH_CACHE[key]


def _graph_for_rep(cfg: ExperimentConfig, rep: int) -> UndirectedGraph:
    if cfg.graph.kind == "files":
        return _build_graph(cfg.graph, None)
    if cfg.fixed_graph:
        key = (cfg.graph, cfg.master_seed)
        if key not in _GRAPH_CACHE:
            _GRAPH_CACHE[key] = _build_graph(cfg.graph, _stream(cfg.master_seed, _GRAPH))
        return _GRAPH_CACHE[key]
    return _build_graph(cfg.graph, _stream(cfg.master_seed, _GRAPH, rep))


_FAIL_CODES = (
    (NoObservedEdgesError, "no_edges"),
    (SingularCorrectionError, "singular"),
    (UndefinedShareError, "undefined_share"),
    (ValueError, "error"),
)


def _fail_flag(exc: Exception) -> str:
    for etype, code in _FAIL_CODES:
        if isinstance(exc, etype):
            return f"failed:{code}"
    raise exc


def _draw_sample(cfg: ExperimentConfig, g: UndirectedGraph, sampler: str, size: int, seed):
    if size > g.node_count:
        raise ValueError(f"sample size {size} exceeds graph size {g.node_count}")
    if sampler == "rwrw":
        return rwrw_walk(g, size, seed_mode=cfg.seed_mode, burn_in=cfg.burn_in, rng_seed=seed)
    if sampler == "node":
        return node_sample(g, size, rng_seed=seed)
    if sampler == "edge":
        # Edge sampling spends the size budget on endpoint records, two per edge.
        n_edges = max(1, size // 2)
        if n_edges > g.edge_count:
            raise ValueError(f"edge budget {n_edges} exceeds edge count {g.edge_count}")
        return edge_sample(g, n_edges, rng_seed=seed)
    if sampler == "snowball":
        return snowball_sample(g, size, n_seeds=cfg.snowball_seeds, rng_seed=seed)
    raise ValueError(f"unknown sampler {sampler!r}")


def _variant_estimates(
    sample,
    vis_source,
    vis_top: np.ndarray | None,
    label_field: str,
    correction: ConfusionMatrix | None,
) -> dict[str, tuple[float | None, str]]:
    """All four measure estimates with per-measure failure isolation.

    ``vis_source`` holds the records the visibility estimate reads (the
    importance resample for walks, the sample itself otherwise) and
    ``vis_top`` the precomputed top-quantile indices into it, shared
    across variants since only labels change between them.
    """
    out: dict[str, tuple[float | None, str]] = {}

    p_b = None
    try:
        m_vec = estimate_proportions(sample, label_field)
        p_vec = adjust_proportions(m_vec, correction) if correction else m_vec
        p_b = p_vec.b
        out["proportion"] = (p_b, "out_of_range" if p_vec.out_of_range else "")
    except ValueError as exc:
        out["proportion"] = (None, _fail_flag(exc))

    share = None
    try:
        t_vec = estimate_edge_vector(sample, label_field)
        s_vec = adjust_edge_proportions(t_vec, correction) if correction else t_vec
        share = ingroup_share(s_vec, 1)
        flagged = s_vec.out_of_range or not 0.0 <= share <= 1.0
        out["ingroup"] = (share, "out_of_range" if flagged else "")
    except ValueError as exc:
        out["ingroup"] = (None, _fail_flag(exc))

    if p_b is None or share is None:
        out["homophily"] = (None, "failed:inputs")
    else:
        try:
            h = coleman_homophily(share, p_b, group=1)
            out["homophily"] = (h.value, "out_of_range" if h.out_of_range else "")
        except ValueError as exc:
            out["homophily"] = (None, _fail_flag(exc))

    if vis_top is None:
        out["visibility"] = (None, "failed:undefined_share")
    else:
        try:
            v_vec = shares_in_top_quantile(vis_source, vis_top, label_field)
            if correction:
                v_vec = adjust_visibility(v_vec, correction)
            out["visibility"] = (v_vec.b, "out_of_range" if v_vec.out_of_range else "")
        except ValueError as exc:
            out["visibility"] = (None, _fail_flag(exc))

    return out


def _replication_rows(cfg: ExperimentConfig, rep: int) -> list[ResultRow]:
    g = _graph_for_rep(cfg, rep)
    gt = ground_truth(g, cfg.top_quantile)
    truths: dict[str, float | None] = {
        "proportion": gt.p.b,
        "visibility": gt.visibility_b,
        "homophily": gt.homophily_b,
    }
    try:
        truths["ingroup"] = ingroup_share(gt.s, 1)
    except UndefinedShareError:
        truths["ingroup"] = None

    confusions = [symmetric_confusion(r) for r in cfg.rates]
    noisy_maps = [
        apply_noise(g.labels, confusions[ri], _stream(cfg.master_seed, _NOISE, rep, ri))
        for ri in range(len(cfg.rates))
    ]

    rows: list[ResultRow] = []
    for si, sampler in enumerate(cfg.samplers):
        for zi, size in enumerate(cfg.sample_sizes):
            base = _draw_sample(cfg, g, sampler, size, _stream(cfg.master_seed, _SAMPLE, rep, si, zi))
            # Walk visibility reads a uniform-node resample of the walk.
            vis_source = base
            if sampler == "rwrw":
                vis_source = importance_resample(
                    base,
                    cfg.resample_factor * len(base),
                    _stream(cfg.master_seed, _RESAMPLE, rep, si, zi),
                )
            try:
                vis_top = top_quantile_indices(
                    vis_source.degrees, cfg.top_quantile, node_ids=vis_source.nodes
                )
            except ValueError:
                vis_top = None
            clean = _variant_estimates(base, vis_source, vis_top, "true", None)
            for ri, rate in enumerate(cfg.rates):
                noisy_sample = with_noisy_labels(base, noisy_maps[ri])
                noisy_vis = (
                    noisy_sample
                    if vis_source is base
                    else with_noisy_labels(vis_source, noisy_maps[ri])
                )
                correction: ConfusionMatrix | None = confusions[ri]
                correction_flag = ""
                if cfg.confusion_from_labeled is not None:
                    try:
                        correction = _estimated_confusion(
                            cfg, noisy_sample, noisy_maps[ri], rep, si, zi, ri
                        )
                    except ValueError:
                        correction = None
                        correction_flag = "failed:confusion_undefined"
                uncorrected = _variant_estimates(
                    noisy_sample, noisy_vis, vis_top, "noisy", None
                )
                if correction is None and cfg.confusion_from_labeled is not None:
                    corrected = {
                        m: (None, correction_flag) for m in MEASURES
                    }
                else:
                    corrected = _variant_estimates(
                        noisy_sample, noisy_vis, vis_top, "noisy", correction
                    )
                for variant, est in (
                    ("no_noise", clean),
                    ("uncorrected", uncorrected),
                    ("corrected", corrected),
                ):
                    for measure in MEASURES:
                        estimate, flags = est[measure]
                        truth = truths[measure]
                        if truth is None and not flags.startswith("failed"):
                            flags = "failed:undefined_truth"
                        error = (
                            estimate - truth
                            if (estimate is not None and truth is not None)
                            else None
                        )
                        rows.append(
                            ResultRow(
                                sampler=sampler,
                                rate=rate,
                                size=size,
                                rep=rep,
                                measure=measure,
                                variant=variant,
                                estimate=estimate,
                                error=error,
                                flags=flags,
                            )
                        )
    return rows


def _estimated_confusion(
    cfg: ExperimentConfig, sample, noisy_map: np.ndarray, rep: int, si: int, zi: int, ri: int
) -> ConfusionMatrix:
    """Confusion matrix estimated from k labeled nodes drawn from the sample."""
    unique, first = np.unique(sample.nodes, return_index=True)
    k = min(cfg.confusion_from_labeled, unique.shape[0])
    rng = np.random.default_rng(_stream(cfg.master_seed, _LABELED, rep, si, zi, ri))
    idx = rng.choice(unique.shape[0], size=k, replace=False)
    # True labels come from the sample's own records (first record of each
    # chosen node); the labeled subset only holds nodes the sampler saw.
    return empirical_confusion(sample.true_labels[first[idx]], noisy_map[unique[idx]])


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run the full grid; deterministic given the config and master seed."""
    cfg.validate()
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
    rows.sort(
        key=lambda r: (
            r.sampler,
            r.rate,
            r.size,
            r.rep,
            MEASURES.index(r.measure),
            VARIANTS.index(r.variant),
        )
    )
    return ExperimentResult(config=cfg, rows=rows)


def nrmse(errors, truth: float) -> float | None:
    """Root mean squared error over the truth; None when the truth is 0.

    The undefined marker keeps zero-truth cells out of NRMSE tables
    instead of dividing by zero.
    """
    arr = np.asarray(list(errors), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one error")
    if truth == 0.0:
        return None
    return float(np.sqrt(np.mean(arr * arr)) / truth)


def _nearest_rank(sorted_values: np.ndarray, pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * sorted_values.shape[0]))
    return float(sorted_values[rank - 1])


@dataclass(frozen=True)
class SummaryRow:
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
                sampler=key[0],
                rate=key[1],
                size=key[2],
                measure=key[3],
                variant=key[4],
                reps=len(rows),
                failures=failures,
                mean_error=mean_error,
                p2_5=p_lo,
                p97_5=p_hi,
                nrmse=cell_nrmse,
                out_of_range_rate=flagged / len(rows),
                failure_rate=failures / len(rows),
            )
        )
    return out


def _write_csv(path, header: tuple[str, ...], rows) -> None:
    """One line per row with the fields the header names. The csv module
    writes None as an empty field and a float as its shortest repr."""
    fields = attrgetter(*header)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(fields, rows))


def write_rows_csv(result: ExperimentResult, path) -> None:
    _write_csv(path, ROWS_HEADER, result.rows)


def write_summary_csv(summary: list[SummaryRow], path) -> None:
    _write_csv(path, SUMMARY_HEADER, summary)

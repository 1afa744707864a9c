"""Experiment harness: configs, determinism, summaries, NRMSE, CLI."""

import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from functools import partial
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_induced_edges_match,
    coleman_homophily,
    estimate_edge_vector,
    estimate_proportions,
    ingroup_share,
    prefix,
    reference_ground_truth,
    rows_for,
    top_records,
    with_noisy_labels,
)
from graphquant import experiments, ground_truth
from graphquant.cli import main as cli_main
from graphquant.experiments import (
    ExperimentConfig,
    GraphSpec,
    ResultRow,
    ExperimentResult,
    run_experiment,
    summarize,
    write_rows_csv,
    write_summary_csv,
)
from graphquant.graph import (
    UndirectedGraph,
    generate_homophilous_graph,
    load_graph_files,
    write_edge_list,
    write_label_file,
)
from graphquant.noise import (
    ConfusionMatrix,
    UndefinedConfusionError,
    apply_noise,
    empirical_confusion,
    symmetric_confusion,
)
from graphquant.quantify import (
    EdgeVector,
    PropVector,
    SingularCorrectionError,
    UndefinedShareError,
    adjust_edge_proportions,
    adjust_proportions,
)
from graphquant.samplers import (
    SEED_DEGREE,
    SEED_UNIFORM,
    NoObservedEdgesError,
    edge_sample,
    node_sample,
    rwrw_walk,
    snowball_sample,
)


def small_config(**overrides):
    base = dict(
        graph=GraphSpec(n=300, m=3, minority_frac=0.25, ingroup_pref=0.7),
        samplers=("rwrw", "node"),
        rates=(0.0, 0.2),
        sample_sizes=(80,),
        replications=4,
        master_seed=13,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        loaded = ExperimentConfig.from_json_file(path)
        assert loaded == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"reps": 5})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"graph": {"nodes": 50}})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"resample_factor": 10})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"snowball_seeds": 10})
        # The graph source follows from edge_file and label_file; the
        # former kind key is refused.
        for kind in ("files", "generated"):
            with pytest.raises(ValueError, match="^unknown graph keys: \\['kind'\\]"):
                ExperimentConfig.from_dict({"graph": {"kind": kind}})
        # JSON values of the wrong shape name their key instead of raising
        # TypeError from a tuple() or set() call.
        for data in ({"graph": None}, {"graph": 5}, {"samplers": 5}, {"rates": None}):
            with pytest.raises(ValueError, match=f"^{next(iter(data))} must be "):
                ExperimentConfig.from_dict(data)
        for data in (None, 5):
            with pytest.raises(ValueError, match="^config must be an object"):
                ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"rates": (0.5,)},
            {"rates": ()},
            {"replications": 0},
            {"samplers": ("bogus",)},
            {"samplers": ("rwrw", "rwrw")},
            {"sample_sizes": (0,)},
            {"top_quantile": 0.0},
            {"master_seed": -1},
            {"seed_mode": "bogus"},
            {"burn_in": -1},
            {"burn_in": True},
            {"sample_sizes": (20.0,)},
            {"graph": {"n": 200.0, "m": 3}},
            {"replications": True},
            {"graph": {"n": 300, "m": 3.0}},
            {"burn_in": 1.0},
            {"confusion_from_labeled": 1},
            {"top_quantile": 1.5},
            {"confusion_from_labeled": 40.0},
            {"master_seed": 1.5},
            {"rates": (0.1, 0.1)},
            {"sample_sizes": (50, 50)},
            {"fixed_graph": "no"},
            {"graph": {"n": 300, "m": 3, "directed": "false"}},
            {"rates": ("0.1",)},
            {"top_quantile": "0.2"},
            {"graph": {"n": 300, "m": 3, "minority_frac": "0.2"}},
            {"graph": {"n": 300, "m": 3, "ingroup_pref": "0.8"}},
            {"graph": {"edge_file": "g.edges"}},
            {"graph": {"label_file": "g.labels"}},
            {"graph": {"edge_file": "", "label_file": "g.labels"}},
            {"graph": {"edge_file": 0, "label_file": 0}},
            {"graph": {"edge_file": ["g.edges"], "label_file": "g.labels"}},
            {"graph": {"n": 3, "m": 3}},
            {"graph": {"n": 300, "m": 0}},
            {"graph": {"n": 300, "m": 3, "minority_frac": 1.5}},
            {"graph": {"n": 300, "m": 3, "ingroup_pref": -0.1}},
        ],
    )
    def test_invariant_violations(self, overrides):
        # A bad value is refused when the config is made, however it is
        # made. A "graph" entry holds GraphSpec keywords, so the spec is
        # built here rather than when the cases are collected.
        valid = small_config()
        graph = overrides.get("graph")
        if graph is None:
            direct = partial(small_config, **overrides)
            replaced = partial(dataclasses.replace, valid, **overrides)
            data = {**dataclasses.asdict(valid), **overrides}
        else:
            direct = lambda: small_config(graph=GraphSpec(**graph))
            replaced = partial(dataclasses.replace, valid.graph, **graph)
            data = {**dataclasses.asdict(valid), "graph": {**dataclasses.asdict(valid.graph), **graph}}
        for build in (direct, replaced, partial(ExperimentConfig.from_dict, data)):
            with pytest.raises(ValueError):
                build()

    def test_graph_must_be_a_graph_spec(self):
        # from_dict builds the GraphSpec; a direct caller must pass one.
        with pytest.raises(ValueError, match="^graph must be a GraphSpec"):
            small_config(graph={"n": 300, "m": 3})

    def test_sample_size_above_graph_fails_at_run(self):
        cfg = small_config(sample_sizes=(301,), replications=1)
        with pytest.raises(ValueError):
            run_experiment(cfg)

    def test_lists_are_stored_as_tuples(self):
        # A frozen config given lists directly once kept them and could not
        # be hashed; from_dict always passed tuples.
        listed = small_config(samplers=["rwrw", "node"], rates=[0.0, 0.2], sample_sizes=[80])
        assert hash(listed) == hash(small_config())
        assert listed == small_config()
        assert all(type(getattr(listed, name)) is tuple for name in ("samplers", "rates", "sample_sizes"))

    def test_rates_are_stored_as_floats(self, tmp_path):
        # A float32 rate once left C in float32, whose corrected shares
        # missed the sum tolerance; a JSON integer rate wrote "0".
        configs = {
            "float32": ExperimentConfig(
                graph=GraphSpec(n=2000, m=4), rates=(np.float32(0.2),),
                sample_sizes=(200, 300), replications=2,
            ),
            "json_int": ExperimentConfig.from_dict(json.loads(
                '{"graph": {"n": 300, "m": 3}, "samplers": ["node"], "rates": [0, 0.1],'
                ' "sample_sizes": [50], "replications": 1}'
            )),
        }
        expected = {"float32": {repr(float(np.float32(0.2)))}, "json_int": {"0.0", "0.1"}}
        for name, cfg in configs.items():
            assert all(type(r) is float for r in cfg.rates)
            write_rows_csv(run_experiment(cfg), tmp_path / f"{name}.csv")
            with open(tmp_path / f"{name}.csv", encoding="utf-8") as fh:
                assert {row["rate"] for row in csv.DictReader(fh)} == expected[name]


class TestNrmse:
    """The reference definition that reference_summarize uses."""

    def test_zero_errors(self):
        assert nrmse([0.0, 0.0, 0.0], 0.4) == 0.0

    def test_hand_arithmetic(self):
        assert nrmse([0.1, -0.1], 0.5) == pytest.approx(0.2)

    def test_zero_truth_is_undefined(self):
        assert nrmse([0.1, 0.2], 0.0) is None

    def test_empty_errors_rejected(self):
        with pytest.raises(ValueError):
            nrmse([], 1.0)


def grid_result(cfg, estimates, errors, codes) -> ExperimentResult:
    """A result of the config's grid whose estimates, errors and flag codes
    are the given values in file order, repeated to fill the grid."""
    shape = tuple(len(axis) for axis in experiments._file_axes(cfg))
    return ExperimentResult(cfg, *(np.resize(np.asarray(v), shape) for v in (estimates, errors, codes)))


class TestSummarize:
    def _result(self, errors, truth=0.5, codes=0):
        # One (sampler, rate, size): each replication's 12 rows hold its error.
        cfg = small_config(samplers=("node",), rates=(0.1,), sample_sizes=(10,), replications=len(errors))
        per_row = np.repeat(errors, 12)
        return grid_result(cfg, truth + per_row, per_row, codes)

    def test_single_replication_band_collapses(self):
        summary = summarize(self._result([0.07]))
        assert summary[0].p2_5 == summary[0].p97_5 == 0.07
        assert summary[0].mean_error == 0.07

    def test_symmetric_errors_mean_zero(self):
        summary = summarize(self._result([-0.1, 0.1, -0.2, 0.2]))
        assert summary[0].mean_error == pytest.approx(0.0)

    def test_nearest_rank_percentiles(self):
        errors = [float(i) for i in range(1, 41)]  # 1..40
        summary = summarize(self._result(errors))
        assert summary[0].p2_5 == 1.0  # ceil(0.025 * 40) = 1
        assert summary[0].p97_5 == 39.0  # ceil(0.975 * 40) = 39

    def test_nrmse_definition_exact(self):
        # A negative truth (homophily on a heterophilous graph) divides by
        # its magnitude, so NRMSE never goes negative.
        errors = [0.02, -0.01, 0.03]
        expected = np.sqrt(np.mean(np.square(errors))) / 0.4
        for truth in (0.4, -0.4):
            summary = summarize(self._result(errors, truth=truth))
            assert summary[0].nrmse == pytest.approx(expected, abs=1e-15)

    def test_zero_truth_marked_undefined(self):
        summary = summarize(self._result([0.1, -0.1], truth=0.0))
        assert summary[0].nrmse is None

    def test_failed_rows_counted(self):
        # The second replication's rows failed, and read NaN.
        codes = np.repeat([0, experiments._NO_EDGES], 12)
        summary = summarize(self._result([0.1, np.nan], codes=codes))
        assert summary[0].failures == 1
        assert summary[0].failure_rate == 0.5
        assert summary[0].reps == 2
        assert summary[0].mean_error == 0.1

    @pytest.mark.parametrize("fixed", [False, True], ids=["fresh", "fixed_graph"])
    def test_equals_per_cell_reference_on_pinned_rows(self, fixed):
        cfg = ExperimentConfig(graph=PINNED_GRAPH, **PINNED_GRID, **(PINNED_FIXED if fixed else {}))
        result = run_experiment(dataclasses.replace(cfg, replications=8))
        assert summarize(result) == reference_summarize(result)

    @pytest.mark.parametrize(
        "case, code",
        [
            ("fresh", None),
            ("one_group_labeled", "failed:confusion_undefined"),
            ("files", None),
            ("undefined_truth", "failed:undefined_truth"),
            ("tiny_node_samples", "failed:no_edges"),
        ],
    )
    def test_rows_without_error_are_failed(self, tmp_path, case, code):
        # summarize reads a row's flag alone: the rows of a run keep an
        # estimate and an error unless the flag starts with "failed:".
        if case == "files":
            g = generate_homophilous_graph(120, 3, 0.3, 0.7, rng_seed=3)
            write_edge_list(g, tmp_path / "g.edges")
            write_label_file(g, tmp_path / "g.labels")
        overrides = {
            "fresh": {},
            "one_group_labeled": dict(fixed_graph=True, confusion_from_labeled=2, replications=20),
            "files": dict(
                graph=GraphSpec(
                    edge_file=str(tmp_path / "g.edges"), label_file=str(tmp_path / "g.labels")
                ),
                sample_sizes=(40,),
            ),
            "undefined_truth": dict(graph=GraphSpec(n=300, m=1, minority_frac=0.0)),
            "tiny_node_samples": dict(samplers=("node",), sample_sizes=(2,), replications=5),
        }[case]
        res = run_experiment(small_config(**overrides))
        assert all(
            r.flags.startswith("failed:") for r in res.rows if r.estimate is None or r.error is None
        )
        if code is not None:
            assert any(r.flags == code for r in res.rows)
        failed = Counter(
            (r.sampler, r.rate, r.size, r.measure, r.variant)
            for r in res.rows
            if r.flags.startswith("failed")
        )
        summary = summarize(res)
        assert [s.failures for s in summary] == [failed[s[:5]] for s in summary]

    def test_equals_per_cell_reference_on_ragged_cells(self):
        # Cells whose usable rows number anything from none to every
        # replication: each cell fails and flags its rows at its own rates,
        # so cells of many counts are reduced in blocks together, with
        # truths of mixed signs and zero. Failed rows read NaN, inf or a
        # number, and are never gathered.
        rng = np.random.default_rng(3)
        cfg = small_config(
            samplers=("rwrw", "node", "edge"), rates=(0.2, 0.1, 0.0), sample_sizes=(30, 10, 20),
            replications=40,
        )
        shape = tuple(len(axis) for axis in experiments._file_axes(cfg))
        cells = shape[:3] + (1,) + shape[4:]
        truth = rng.choice([0.0, 0.3, -0.4, 1e-3], size=cells)
        errors = rng.normal(0.0, 10.0 ** rng.integers(-4, 1, size=cells), size=shape)
        p_failed = np.where(rng.random(cells) < 0.2, rng.integers(0, 2, size=cells), rng.random(cells))
        u = rng.random(shape)
        failures = rng.integers(experiments._FAILED, len(experiments._FLAGS), size=shape)
        codes = np.where(u < p_failed, failures, np.where(u < p_failed + 0.1, experiments._OUT_OF_RANGE, 0))
        estimates = truth + errors
        failed = codes >= experiments._FAILED
        for a in (estimates, errors):
            a[failed] = rng.choice([np.nan, np.inf, 7.0], size=failed.sum())
        result = ExperimentResult(cfg, estimates, errors, codes)
        summary = summarize(result)
        assert summary == reference_summarize(result)
        usable = Counter(s.reps - s.failures for s in summary)
        assert usable[0] > 0 and usable[cfg.replications] > 0 and len(usable) > 20
        # The cells come in file order.
        keys = [s[:5] for s in summary]
        assert keys == sorted(keys, key=lambda k: (*k[:3], *cell_rank(*k[3:])))


def cell_rank(measure: str, variant: str) -> tuple[int, int]:
    """A row's place within its replication's rows of one cell group."""
    return experiments.MEASURES.index(measure), experiments.VARIANTS.index(variant)


def nrmse(errors, truth: float) -> float | None:
    """NRMSE as summarize defines it, from a list of errors: root mean
    squared error over the truth's magnitude; None when the truth is 0."""
    arr = np.asarray(list(errors), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one error")
    if truth == 0.0:
        return None
    return float(np.sqrt(np.mean(arr * arr)) / abs(truth))


def reference_summarize(result):
    """summarize, cell by cell with 1-D reductions, as it was written before
    it reduced blocks of cells; cells in the order their first rows appear."""
    groups = {}
    for row in result.rows:
        groups.setdefault((row.sampler, row.rate, row.size, row.measure, row.variant), []).append(row)
    out = []
    for key, rows in groups.items():
        ok = [r for r in rows if not r.flags.startswith("failed")]
        failures = len(rows) - len(ok)
        flagged = sum(1 for r in rows if r.flags == "out_of_range")
        if ok:
            errors = np.sort(np.array([r.error for r in ok], dtype=float))
            truth_mean = float(np.mean([r.estimate - r.error for r in ok]))
            ranks = [max(1, math.ceil(pct / 100.0 * len(ok))) for pct in (2.5, 97.5)]
            band = [float(errors[rank - 1]) for rank in ranks]
            stats_ = [float(errors.mean()), *band, nrmse(errors, truth_mean)]
        else:
            stats_ = [None] * 4
        out.append(experiments.SummaryRow(
            *key, len(rows), failures, *stats_, flagged / len(rows), failures / len(rows)
        ))
    return out


def reference_attempt(fn, *args):
    """``fn(*args)``, or the domain failure it raised. A failure passed as
    the first argument comes straight back, so it flows down a chain."""
    if isinstance(args[0], Exception):
        return args[0]
    try:
        return fn(*args)
    except (NoObservedEdgesError, SingularCorrectionError, UndefinedConfusionError,
            UndefinedShareError) as exc:
        return exc


def reference_entry(result, out_of_range=False):
    """(estimate, flags) of a failure, of a share vector's minority share,
    or of a derived measure whose inputs give ``out_of_range``."""
    if isinstance(result, Exception):
        return None, f"failed:{result.code}"
    if isinstance(result, PropVector):
        result, out_of_range = result.b, result.out_of_range
    return result, "out_of_range" if out_of_range else ""


def reference_variants(measured, correction):
    """experiments._variants as it was written before it ran on arrays:
    the four measures of one set of measured vectors, corrected by one
    scalar correction when a confusion matrix is given, with per-measure
    failure isolation; a failed correction fails them all."""
    if isinstance(correction, Exception):
        return dict.fromkeys(experiments.MEASURES, reference_entry(correction))
    p_vec, t_vec, v_vec = measured
    if correction is not None:
        p_vec = reference_attempt(adjust_proportions, p_vec, correction)
        t_vec = reference_attempt(adjust_edge_proportions, t_vec, correction)
        v_vec = reference_attempt(adjust_proportions, v_vec, correction)
    share = reference_attempt(ingroup_share, t_vec, 1)
    if isinstance(p_vec, Exception) or isinstance(share, Exception):
        homophily = (None, "failed:inputs")
    else:
        in_range = 0.0 <= share <= 1.0 and 0.0 < p_vec.b < 1.0
        homophily = reference_entry(
            reference_attempt(coleman_homophily, share, p_vec.b), not in_range
        )
    return {
        "proportion": reference_entry(p_vec),
        "ingroup": reference_entry(
            share, not isinstance(share, Exception) and t_vec.out_of_range
        ),
        "visibility": reference_entry(v_vec),
        "homophily": homophily,
    }


def array_variants(measured, correction):
    """experiments._variants on one unit given as reference_variants takes
    it, and its result in the same form: {measure: (estimate, flags)}."""
    p, t, v = measured
    failed = tuple(experiments._code(x) if isinstance(x, Exception) else 0 for x in (t, v))
    t = (np.nan,) * 3 if isinstance(t, Exception) else t.as_tuple()
    v = np.nan if isinstance(v, Exception) else v.b
    if isinstance(correction, Exception):
        correction = (np.full((4, 1), np.nan), np.array([np.nan]), experiments._code(correction), True)
    elif correction is not None:
        correction = (np.array(correction.to_flat())[:, None], np.array([correction.det]), 0, True)
    est, codes = experiments._variants(
        np.array([p.b]), np.array(t)[:, None], np.array([v]), failed, correction
    )
    return {
        measure: (None if code >= experiments._FAILED else estimate, experiments._FLAGS[code])
        for measure, estimate, code in zip(experiments.MEASURES, est[:, 0].tolist(), codes[:, 0].tolist())
    }


def reference_replication_rows(cfg, rep):
    """_replication_rows as it was written before it measured every size
    and label set of a draw in one pass: each (sample, size, rate) as its
    own noisy copy, its prefix sorted for its own top quantile, and each
    rate's confusion matrix graded alone."""
    # The graph as the grid gets it; its truths computed here, not read from
    # the grid's cache.
    g, _ = experiments._graph_for_rep(cfg, rep)
    gt = reference_ground_truth(g, cfg.top_quantile)
    vis = gt.visibility_b
    top = UndefinedShareError("no top quantile") if vis is None else PropVector(1.0 - vis, vis)
    population = (gt.p, gt.s, top)
    truths = {m: est for m, (est, _) in reference_variants(population, None).items()}
    attempt, stream = reference_attempt, experiments._stream

    def measure(sample, top):
        return (
            attempt(estimate_proportions, sample),
            attempt(estimate_edge_vector, sample),
            attempt(estimate_proportions, top),
        )

    confusions = [symmetric_confusion(r) for r in cfg.rates]
    noisy_maps = [
        apply_noise(g.labels, confusions[ri], stream(cfg.master_seed, experiments._NOISE, rep, ri))
        for ri in range(len(cfg.rates))
    ]
    rows = []
    for si, sampler in enumerate(cfg.samplers):
        seed = stream(cfg.master_seed, experiments._SAMPLE, rep, si)
        drawn = experiments._draw_sample(cfg, g, sampler, seed)
        for zi, size in enumerate(cfg.sample_sizes):
            base = prefix(drawn, experiments._records_for(sampler, size))
            top = attempt(top_records, base, cfg.top_quantile)
            corrections = confusions
            if cfg.confusion_from_labeled is not None:
                seen = np.unique(base.nodes)
                k = min(cfg.confusion_from_labeled, seen.shape[0])
                key = (cfg.master_seed, experiments._LABELED, rep, si, zi)
                labeled = np.random.default_rng(stream(*key)).choice(seen, size=k, replace=False)
                gold = g.labels[labeled]
                corrections = [
                    attempt(empirical_confusion, gold, noisy[labeled]) for noisy in noisy_maps
                ]
            clean = reference_variants(measure(base, top), None)
            for ri, rate in enumerate(cfg.rates):
                noisy_top = attempt(with_noisy_labels, top, noisy_maps[ri])
                measured = measure(with_noisy_labels(base, noisy_maps[ri]), noisy_top)
                uncorrected = reference_variants(measured, None)
                corrected = reference_variants(measured, corrections[ri])
                for measure_name in experiments.MEASURES:
                    truth = truths[measure_name]
                    for variant, est in zip(experiments.VARIANTS, (clean, uncorrected, corrected)):
                        estimate, flags = est[measure_name]
                        if truth is None and not flags.startswith("failed"):
                            flags = "failed:undefined_truth"
                        error = None if estimate is None or truth is None else estimate - truth
                        rows.append(ResultRow(
                            sampler, rate, size, rep, measure_name, variant, estimate, error, flags
                        ))
    return rows


@st.composite
def replication_configs(draw):
    """Small grids over every sampler: sizes from 1 (no top quantile, node
    samples without edges), singular edge corrections at rate 0.4999,
    one-group labeled sets, both walk seed modes with burn-in, and fresh
    or fixed graphs."""
    graph = GraphSpec(
        n=draw(st.integers(12, 40)),
        m=draw(st.integers(1, 3)),
        minority_frac=draw(st.sampled_from([0.0, 0.2, 0.5])),
        ingroup_pref=draw(st.sampled_from([0.2, 0.8])),
    )
    return ExperimentConfig(
        graph=graph,
        samplers=draw(st.permutations(experiments.SAMPLERS)),
        rates=draw(st.lists(
            st.sampled_from([0.0, 0.1, 0.3, 0.4999]), min_size=1, max_size=3, unique=True
        )),
        sample_sizes=draw(st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True)),
        replications=4,
        top_quantile=draw(st.sampled_from([0.2, 0.5, 1.0])),
        master_seed=draw(st.integers(0, 2**20)),
        fixed_graph=draw(st.booleans()),
        seed_mode=draw(st.sampled_from([SEED_DEGREE, SEED_UNIFORM])),
        burn_in=draw(st.integers(0, 30)),
        confusion_from_labeled=draw(st.sampled_from([None, 2, 5])),
    )


class TestReplicationReference:
    @settings(max_examples=120, deadline=None)
    @given(cfg=replication_configs(), rep=st.integers(0, 3))
    @example(
        cfg=ExperimentConfig(
            graph=GraphSpec(n=30, m=2, minority_frac=0.3, ingroup_pref=0.7),
            rates=(0.0, 0.4999), sample_sizes=(1, 2, 3), replications=2, top_quantile=1.0,
            master_seed=3, seed_mode=SEED_UNIFORM, burn_in=5, confusion_from_labeled=2,
        ),
        rep=1,
    )
    def test_rows_equal_the_per_copy_replication(self, cfg, rep):
        # One measurement pass per draw gives the rows, bit for bit, that a
        # noisy copy, a sort and a grading per (sample, size, rate) give.
        # The grid's rows of the replication come in file order.
        result = run_experiment(dataclasses.replace(cfg, replications=rep + 1))
        got = [row for row in result.rows if row.rep == rep]
        want = sorted(reference_replication_rows(cfg, rep), key=itemgetter(0, 1, 2))
        assert repr(got) == repr(want)


class TestNoisyLabelsAtRecords:
    @pytest.mark.parametrize(
        "graph",
        [GraphSpec(n=300, m=3, minority_frac=0.25, ingroup_pref=0.7), GraphSpec(n=300, m=1, minority_frac=0.0)],
        ids=["two_groups", "one_group"],
    )
    def test_labels_equal_the_whole_graph_noise(self, monkeypatch, graph):
        # The grid flips labels only at the drawn records and the labeled
        # nodes. There they equal apply_noise's labels of the whole graph
        # from the same stream, at every rate, 0 included: at each visit of
        # a node a walk revisits, at each endpoint edges share, and at each
        # labeled node, one group or two.
        cfg = small_config(
            graph=graph, samplers=experiments.SAMPLERS, rates=(0.0, 0.2, 0.45),
            sample_sizes=(30, 60), confusion_from_labeled=12, replications=3,
        )
        measure, grade = experiments._measure, experiments.confusion_entries
        measured, graded = [], []

        def recorded_measure(labels, drawn, counts, quantile):
            # The census, the graph's one label set, is measured as well.
            if labels.shape[0] > 1:
                measured.append((labels.copy(), drawn.nodes))
            return measure(labels, drawn, counts, quantile)

        def recorded_grade(truth, predicted, sets, n_sets):
            # One call grades every (sampler, size)'s labeled set.
            graded.extend((truth[sets == i], predicted[:, sets == i]) for i in range(n_sets))
            return grade(truth, predicted, sets, n_sets)

        monkeypatch.setattr(experiments, "_measure", recorded_measure)
        monkeypatch.setattr(experiments, "confusion_entries", recorded_grade)
        repeats = Counter()
        for rep in range(cfg.replications):
            measured.clear()
            graded.clear()
            experiments._replication_rows(cfg, rep)
            g, _ = experiments._graph_for_rep(cfg, rep)
            noisy = np.array([
                apply_noise(g.labels, symmetric_confusion(r),
                            experiments._stream(cfg.master_seed, experiments._NOISE, rep, ri))
                for ri, r in enumerate(cfg.rates)
            ])
            assert len(measured) == len(cfg.samplers)
            for sampler, (labels, nodes) in zip(cfg.samplers, measured):
                assert np.array_equal(labels[0], g.labels[nodes])
                assert np.array_equal(labels[1:], noisy[:, nodes])
                repeats[sampler] += np.unique(nodes).shape[0] < nodes.shape[0]
            # The labeled nodes, drawn as the per-copy replication draws them.
            assert len(graded) == len(cfg.samplers) * len(cfg.sample_sizes)
            for i, (truth, predicted) in enumerate(graded):
                si, zi = divmod(i, len(cfg.sample_sizes))
                count = experiments._records_for(cfg.samplers[si], cfg.sample_sizes[zi])
                seen = np.unique(measured[si][1][:count])
                key = (cfg.master_seed, experiments._LABELED, rep, si, zi)
                labeled = np.random.default_rng(experiments._stream(*key)).choice(
                    seen, size=min(cfg.confusion_from_labeled, seen.shape[0]), replace=False
                )
                assert np.array_equal(truth, g.labels[labeled])
                assert np.array_equal(predicted, noisy[:, labeled])
        assert repeats["rwrw"] > 0 and repeats["edge"] > 0


class TestRunExperiment:
    def test_row_partition_complete(self):
        cfg = small_config()
        res = run_experiment(cfg)
        expected = (
            len(cfg.samplers)
            * len(cfg.rates)
            * len(cfg.sample_sizes)
            * cfg.replications
            * 4  # measures
            * 3  # variants
        )
        assert len(res.rows) == expected
        keys = {(r.sampler, r.rate, r.size, r.rep, r.measure, r.variant) for r in res.rows}
        assert len(keys) == expected

    def test_rate_zero_variants_identical(self):
        res = run_experiment(small_config())
        by_key = {}
        for r in res.rows:
            if r.rate == 0.0:
                by_key.setdefault((r.sampler, r.rep, r.measure), {})[r.variant] = r.estimate
        assert by_key
        for variants in by_key.values():
            assert len(set(variants.values())) == 1

    def test_deterministic_csv_bytes(self, tmp_path):
        paths = []
        for run in ("one", "two"):
            res = run_experiment(small_config())
            rows_path = tmp_path / f"rows_{run}.csv"
            summary_path = tmp_path / f"summary_{run}.csv"
            write_rows_csv(res, rows_path)
            write_summary_csv(summarize(res), summary_path)
            paths.append((rows_path, summary_path))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = small_config(replications=6)
        serial = run_experiment(cfg, threads=1)
        parallel = run_experiment(cfg, threads=2)
        assert serial.rows == parallel.rows

    @pytest.mark.parametrize("mode", ["files", "confusion_from_labeled", "uniform_with_burnin"])
    def test_threads_do_not_change_output_in_mode(self, tmp_path, mode):
        if mode == "files":
            g = generate_homophilous_graph(200, 3, 0.3, 0.7, rng_seed=8)
            edges, labels = tmp_path / "g.edges", tmp_path / "g.labels"
            write_edge_list(g, edges)
            write_label_file(g, labels)
            cfg = small_config(
                graph=GraphSpec(edge_file=str(edges), label_file=str(labels))
            )
        elif mode == "confusion_from_labeled":
            cfg = small_config(confusion_from_labeled=30)
        else:
            cfg = small_config(seed_mode="uniform_with_burnin", burn_in=50)
        cfg = dataclasses.replace(cfg, samplers=("rwrw", "node", "snowball"), replications=5)
        assert run_experiment(cfg, threads=1).rows == run_experiment(cfg, threads=2).rows

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rows_in_file_order(self, threads):
        # Grid axes out of order: the rows still come sorted by cell and
        # replication, then by measure and variant in their listed order.
        cfg = small_config(
            samplers=("snowball", "rwrw"), rates=(0.3, 0.0, 0.1), sample_sizes=(40, 20),
            replications=3,
        )
        rows = run_experiment(cfg, threads=threads).rows
        reference = sorted(
            rows,
            key=lambda r: (
                r.sampler,
                r.rate,
                r.size,
                r.rep,
                experiments.MEASURES.index(r.measure),
                experiments.VARIANTS.index(r.variant),
            ),
        )
        assert rows == reference

    def test_rows_csv_is_the_sorted_reference(self, tmp_path):
        # Samplers, rates and sizes all out of order: rows.csv holds the
        # per-copy replications' rows, stably sorted by (sampler, rate,
        # size, rep), though the grid sorts nothing; two processes write
        # the same bytes as one.
        cfg = small_config(
            samplers=("snowball", "node", "rwrw", "edge"), rates=(0.3, 0.0, 0.1),
            sample_sizes=(40, 20, 30), replications=3,
        )
        rows = [row for rep in range(cfg.replications) for row in reference_replication_rows(cfg, rep)]
        rows.sort(key=itemgetter(0, 1, 2, 3))
        want = csv_writer_bytes(ResultRow, rows)
        summaries = []
        for threads in (1, 2):
            result = run_experiment(cfg, threads=threads)
            assert written_bytes(write_rows_csv, result) == want
            summaries.append(written_bytes(write_summary_csv, summarize(result)))
        assert summaries[0] == summaries[1]

    def test_master_seed_changes_rows(self):
        a = run_experiment(small_config(master_seed=1))
        b = run_experiment(small_config(master_seed=2))
        assert a.rows != b.rows

    def test_fixed_graph_reuses_truth(self):
        cfg = small_config(fixed_graph=True, rates=(0.2,), replications=3)
        res = run_experiment(cfg)
        truths = {
            round(r.estimate - r.error, 12)
            for r in rows_for(res, measure="proportion", variant="no_noise", sampler="node")
            if r.error is not None
        }
        assert len(truths) == 1

    def test_fixed_graph_cache_holds_one_graph(self):
        cfg = small_config(fixed_graph=True, rates=(0.2,), replications=2)
        for seed in (0, 1, 2):
            run_experiment(dataclasses.replace(cfg, master_seed=seed))
            assert list(experiments._GRAPH_CACHE) == [(cfg.graph, seed)]

    @pytest.mark.parametrize("mode", ["fresh", "fixed_graph", "files"])
    def test_ground_truth_once_per_graph(self, tmp_path, monkeypatch, mode):
        # A cached graph keeps its truths; a fresh graph needs its own.
        calls = Counter()

        def counted(g, top_quantile):
            calls[top_quantile] += 1
            return ground_truth(g, top_quantile)

        monkeypatch.setattr(experiments, "ground_truth", counted)
        monkeypatch.setattr(experiments, "_GRAPH_CACHE", {})
        cfg = small_config(replications=4)
        if mode == "fixed_graph":
            cfg = dataclasses.replace(cfg, fixed_graph=True)
        elif mode == "files":
            g = generate_homophilous_graph(200, 3, 0.3, 0.7, rng_seed=8)
            edges, labels = tmp_path / "g.edges", tmp_path / "g.labels"
            write_edge_list(g, edges)
            write_label_file(g, labels)
            cfg = dataclasses.replace(
                cfg, graph=GraphSpec(edge_file=str(edges), label_file=str(labels))
            )
        run_experiment(cfg)
        assert calls == {0.2: 4 if mode == "fresh" else 1}
        run_experiment(cfg)
        assert calls == {0.2: 8 if mode == "fresh" else 1}

    def test_cached_truths_follow_top_quantile(self):
        # One cached graph, run at two quantiles and back: each run's
        # visibility truth is the graph's at that run's quantile.
        cfg = small_config(fixed_graph=True, rates=(0.2,), sample_sizes=(120,), replications=2)
        graphs = []
        for q in (0.2, 0.5, 0.2):
            res = run_experiment(dataclasses.replace(cfg, top_quantile=q))
            ((g, _),) = experiments._GRAPH_CACHE.values()
            graphs.append(g)
            truth = reference_ground_truth(g, q).visibility_b
            rows = rows_for(res, measure="visibility", variant="no_noise")
            rows = [r for r in rows if r.error is not None]
            assert rows
            for r in rows:
                assert r.estimate - r.error == pytest.approx(truth, abs=1e-12)
        assert graphs[0] is graphs[1] is graphs[2]
        visibility = [reference_ground_truth(g, q).visibility_b for q in (0.2, 0.5)]
        assert visibility[0] != visibility[1]

    def test_fresh_graphs_vary_truth(self):
        cfg = small_config(rates=(0.2,), replications=3)
        res = run_experiment(cfg)
        truths = {
            round(r.estimate - r.error, 12)
            for r in rows_for(res, measure="proportion", variant="no_noise", sampler="node")
            if r.error is not None
        }
        assert len(truths) > 1

    def test_tiny_node_samples_fail_gracefully(self):
        # Node samples of size 2 rarely induce any edge: ingroup and
        # homophily rows carry failure markers, the run completes.
        cfg = small_config(samplers=("node",), sample_sizes=(2,), rates=(0.2,), replications=5)
        res = run_experiment(cfg)
        flags = {r.flags for r in rows_for(res, measure="ingroup")}
        assert any(f.startswith("failed") for f in flags)
        summary = summarize(res)
        ingroup = [s for s in summary if s.measure == "ingroup"]
        assert all(0.0 <= s.failure_rate <= 1.0 for s in ingroup)

    def test_tiny_node_samples_induce_reference_edges(self, monkeypatch):
        # Each replication draws once, at the largest size, and measures
        # every size on a prefix: the draws, and every prefix of them,
        # against the mask over every edge.
        drawn = []

        def recorded(g, n, rng_seed=None):
            sample = node_sample(g, n, rng_seed=rng_seed)
            drawn.append((g, sample))
            return sample

        monkeypatch.setattr(experiments, "node_sample", recorded)
        run_experiment(
            small_config(samplers=("node",), sample_sizes=(2, 3), rates=(0.2,), replications=5)
        )
        assert [len(sample) for _, sample in drawn] == [3] * 5
        for g, sample in drawn:
            for z in (1, 2, 3):
                assert_induced_edges_match(g, prefix(sample, z))

    def test_undefined_truth_rows(self):
        # m = 1 seeds no B node, so at minority_frac 0 the graph is all A and
        # its minority in-group share and homophily are undefined. Noisy
        # labels still give estimates, which the rows keep with no error; an
        # estimate that failed itself keeps its own code.
        cfg = small_config(
            graph=GraphSpec(n=300, m=1, minority_frac=0.0), rates=(0.0, 0.2), replications=2
        )
        res = run_experiment(cfg)
        for measure in ("ingroup", "homophily"):
            for variant in ("uncorrected", "corrected"):
                rows = rows_for(res, rate=0.2, measure=measure, variant=variant)
                assert len(rows) == 4  # two samplers, two replications
                for r in rows:
                    assert r.error is None
                    if r.estimate is None:
                        assert r.flags in ("failed:undefined_share", "failed:inputs")
                    else:
                        assert r.flags == "failed:undefined_truth"
                assert sum(r.flags == "failed:undefined_truth" for r in rows) >= 3

    def test_files_graph_kind(self, tmp_path):
        g = generate_homophilous_graph(120, 3, 0.3, 0.7, rng_seed=3)
        edges = tmp_path / "g.edges"
        labels = tmp_path / "g.labels"
        write_edge_list(g, edges)
        write_label_file(g, labels)
        cfg = small_config(
            graph=GraphSpec(edge_file=str(edges), label_file=str(labels)),
            sample_sizes=(40,),
            replications=2,
        )
        res = run_experiment(cfg)
        truth = reference_ground_truth(g).p.b
        row = rows_for(res, sampler="node", measure="proportion", variant="no_noise")[0]
        assert row.estimate - row.error == pytest.approx(truth, abs=1e-12)

    def test_rewritten_files_are_read_again(self, tmp_path):
        edges = tmp_path / "g.edges"
        labels = tmp_path / "g.labels"
        cfg = small_config(
            graph=GraphSpec(edge_file=str(edges), label_file=str(labels)),
            sample_sizes=(40,),
            replications=1,
        )
        for n, frac in ((120, 0.3), (150, 0.5), (180, 0.4)):
            g = generate_homophilous_graph(n, 3, frac, 0.7, rng_seed=4)
            write_edge_list(g, edges)
            write_label_file(g, labels)
            res = run_experiment(cfg)
            row = rows_for(res, sampler="node", measure="proportion", variant="no_noise")[0]
            truth = reference_ground_truth(g)
            assert row.estimate - row.error == pytest.approx(truth.p.b, abs=1e-12)
            # The truths cached with the graph are the new contents' too.
            vis = rows_for(res, sampler="node", measure="visibility", variant="no_noise")[0]
            assert vis.estimate - vis.error == pytest.approx(truth.visibility_b, abs=1e-12)
            # The stale graph of the previous contents is evicted, not kept.
            cached = [key for key in experiments._GRAPH_CACHE if key[0] == str(edges)]
            assert len(cached) == 1

    def test_estimated_confusion_mode_runs(self):
        cfg = small_config(
            confusion_from_labeled=40, rates=(0.2,), sample_sizes=(120,), replications=3
        )
        res = run_experiment(cfg)
        corrected = rows_for(res, variant="corrected", measure="proportion")
        assert len(corrected) == 3 * 2  # reps x samplers
        assert any(r.estimate is not None for r in corrected)

    def test_programming_errors_raise(self, monkeypatch):
        # A plain ValueError from an estimator is a bug, not a domain
        # failure, so it must not turn into a failed row.
        def broken(labels, edge_positions, cuts):
            raise ValueError("bug")

        monkeypatch.setattr(experiments, "edge_type_counts", broken)
        with pytest.raises(ValueError, match="bug"):
            run_experiment(small_config(replications=1))

    def test_confusion_programming_errors_raise(self, monkeypatch):
        # Only a one-group draw leaves C undefined; any error from
        # estimating it is a bug and raises.
        def broken(truth, predicted, sets, n_sets):
            raise ValueError("bug")

        monkeypatch.setattr(experiments, "confusion_entries", broken)
        with pytest.raises(ValueError, match="bug"):
            run_experiment(small_config(confusion_from_labeled=40, replications=1))

    def test_one_group_draw_fails_corrected_rows_only(self):
        # Two labeled nodes often share a group, and then C is undefined.
        # About 60% of draws are one-group (64% of walks' and 59% of node
        # samples' over 200 replications), so all 40 draws here (20
        # replications, 2 samplers) or none are one-group with probability
        # under 0.65**40 + 0.35**40 < 1e-7.
        res = run_experiment(small_config(confusion_from_labeled=2, replications=20))
        corrected = rows_for(res, variant="corrected")
        undefined = [r for r in corrected if r.flags == "failed:confusion_undefined"]
        assert 0 < len(undefined) < len(corrected)
        assert all(r.estimate is None for r in undefined)
        assert all(r.flags != "failed:confusion_undefined" for r in res.rows if r.variant != "corrected")

    def test_rates_share_one_labeled_set(self, monkeypatch):
        # One confusion_entries call grades every (sampler, size)'s set:
        # per set, every rate's noisy labels, a (rates x k) table, against
        # the true labels of one set of k labeled nodes; the 0.0 rate's row
        # is that truth.
        cfg = small_config(
            rates=(0.0, 0.1, 0.2), sample_sizes=(60, 80), confusion_from_labeled=30
        )
        grade, calls = experiments.confusion_entries, []

        def recorded(truth, predicted, sets, n_sets):
            calls.append((truth, predicted, sets, n_sets))
            return grade(truth, predicted, sets, n_sets)

        monkeypatch.setattr(experiments, "confusion_entries", recorded)
        experiments._replication_rows(cfg, 0)
        [(truth_all, predicted_all, sets, n_sets)] = calls
        assert n_sets == len(cfg.samplers) * len(cfg.sample_sizes)
        for i in range(n_sets):
            truth, predicted = truth_all[sets == i], predicted_all[:, sets == i]
            assert truth.shape == (30,)
            assert predicted.shape == (len(cfg.rates), 30)
            assert np.array_equal(predicted[0], truth)
            assert not np.array_equal(predicted[2], truth)

    def test_each_label_set_measured_once(self, monkeypatch):
        # Each call measures a table of every label set: the true labels and
        # each rate's noisy labels. Group shares of the records and of the
        # top-quantile records per (sampler, size); edge-type counts at
        # every size's cut per sampler. The census is measured the same way,
        # with the graph's one label set.
        cfg = small_config(rates=(0.0, 0.1, 0.2), sample_sizes=(60, 80))
        calls = Counter()
        for name, labels_at in (("minority_shares", 1), ("edge_type_counts", 0)):
            def counted(*args, _name=name, _at=labels_at, _original=getattr(experiments, name)):
                calls[_name, args[_at].shape[0]] += 1
                return _original(*args)

            monkeypatch.setattr(experiments, name, counted)
        experiments._replication_rows(cfg, 0)
        cells = len(cfg.samplers) * len(cfg.sample_sizes)
        label_sets = 1 + len(cfg.rates)
        assert calls == {
            ("minority_shares", label_sets): 2 * cells,
            ("edge_type_counts", label_sets): len(cfg.samplers),
            ("minority_shares", 1): 2,
            ("edge_type_counts", 1): 1,
        }

    def test_failures_stay_with_their_variant(self):
        # A measurement failure flags both variants; a correction failure
        # flags only the corrected one.
        measured = (PropVector(0.7, 0.3), NoObservedEdgesError("none"), PropVector(0.6, 0.4))
        uncorrected = array_variants(measured, None)
        corrected = array_variants(measured, ConfusionMatrix(0.5, 0.5, 0.5, 0.5))
        assert uncorrected["proportion"] == (0.3, "")
        assert uncorrected["visibility"] == (0.4, "")
        assert corrected["proportion"] == (None, "failed:singular")
        assert corrected["visibility"] == (None, "failed:singular")
        for out in (uncorrected, corrected):
            assert out["ingroup"] == (None, "failed:no_edges")
            assert out["homophily"] == (None, "failed:inputs")

    def test_flagged_homophily_has_a_flagged_input(self):
        # Coleman's index is flagged only by its inputs, so an out-of-range
        # homophily row has an out-of-range in-group or proportion row in
        # its (sampler, rate, size, rep, variant) cell.
        cfg = small_config(
            graph=GraphSpec(n=600, m=3, minority_frac=0.3, ingroup_pref=0.6),
            samplers=experiments.SAMPLERS,
            rates=(0.2, 0.4),
            sample_sizes=(40, 100),
            replications=6,
            master_seed=7,
        )
        cells: dict[tuple, dict[str, str]] = {}
        for r in run_experiment(cfg).rows:
            cells.setdefault((r.sampler, r.rate, r.size, r.rep, r.variant), {})[r.measure] = r.flags
        flagged = [c for c in cells.values() if c["homophily"] == "out_of_range"]
        assert len(flagged) > 10
        for cell in flagged:
            assert "out_of_range" in (cell["ingroup"], cell["proportion"])
        # The converse need not hold: a flagged edge vector with no bb
        # edges gives an in-group share of -0.0, flagged with the vector,
        # and an index of exactly -1.0, unflagged.
        measured = (PropVector(0.7, 0.3), EdgeVector(1.1, -0.1, 0.0), PropVector(0.6, 0.4))
        one_way = array_variants(measured, None)
        assert one_way["ingroup"] == (0.0, "out_of_range")
        assert one_way["homophily"] == (-1.0, "")


class TestVariants:
    """Row flags of the four measures from measured (or corrected) vectors."""

    @pytest.mark.parametrize(
        "failure_type, flag",
        [
            (NoObservedEdgesError, "failed:no_edges"),
            (SingularCorrectionError, "failed:singular"),
            (UndefinedConfusionError, "failed:confusion_undefined"),
            (UndefinedShareError, "failed:undefined_share"),
        ],
        ids=lambda value: value if isinstance(value, str) else value.__name__,
    )
    def test_domain_failure_flags(self, failure_type, flag):
        # The flag vocabulary that readers of rows.csv rely on.
        assert failure_type in experiments._FAILURES
        assert experiments._FLAGS[experiments._code(failure_type("reason"))] == flag

    def test_failed_correction_fails_every_measure(self):
        # The correction's flag wins over a measured failure.
        measured = (PropVector(0.7, 0.3), NoObservedEdgesError("none"), PropVector(0.6, 0.4))
        out = array_variants(measured, UndefinedConfusionError("one group"))
        assert out == dict.fromkeys(experiments.MEASURES, (None, "failed:confusion_undefined"))

    def test_out_of_range_inputs_flagged(self):
        # An in-group share above 1 gives an index above 1, and a minority
        # share outside (0, 1) flags the index while the share is in range.
        p = PropVector(0.6, 0.4)
        out = array_variants((p, EdgeVector(0.5, -0.1, 0.6), p), None)
        share, flags = out["ingroup"]
        assert share > 1.0 and flags == "out_of_range"
        index, flags = out["homophily"]
        assert index > 1.0 and flags == "out_of_range"
        out = array_variants((p, EdgeVector(0.45, 0.1, 0.45), p), None)
        assert out["ingroup"] == (pytest.approx(0.9), "")
        assert out["homophily"] == (pytest.approx(0.5 / 0.6), "")
        low = PropVector(1.2, -0.2)
        out = array_variants((low, EdgeVector(0.45, 0.1, 0.45), p), None)
        assert out["proportion"] == (-0.2, "out_of_range")
        assert out["ingroup"] == (pytest.approx(0.9), "")
        assert out["homophily"][1] == "out_of_range"

    # Rounding is monotone, so in-range vectors give an in-group share in
    # [0, 1] and an index in [-1, 1], and neither is flagged.
    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @example(1.0, 0.0, 0.5)
    @example(0.0, 1.0, 0.5)
    @example(1.0, 0.0, 1.0 - 2.0**-53)
    @example(1.0 - 2.0**-53, 2.0**-53, 5e-324)
    @example(5e-324, 1.0 - 2.0**-53, 1.0 - 2.0**-53)
    @example(2.0**-53, 0.0, 5e-324)
    def test_in_range_inputs_give_unflagged_derived_measures(self, bb, ab, b):
        assume(bb + ab <= 1.0 and 2.0 * bb + ab > 0.0)
        t = EdgeVector(1.0 - bb - ab, ab, bb)
        p = PropVector(1.0 - b, b)
        assume(not t.out_of_range)
        out = array_variants((p, t, p), None)
        share, flags = out["ingroup"]
        assert 0.0 <= share <= 1.0 and flags == ""
        index, flags = out["homophily"]
        assert -1.0 <= index <= 1.0 and flags == ""


PINNED_GRAPH = GraphSpec(n=400, m=3, minority_frac=0.25, ingroup_pref=0.7)
PINNED_GRID = dict(rates=(0.0, 0.2), sample_sizes=(30, 90), replications=3, master_seed=5)


PINNED_FIXED = dict(
    fixed_graph=True, seed_mode="uniform_with_burnin", burn_in=50, confusion_from_labeled=20,
)


def pinned_csvs(tmp_path, overrides):
    """rows.csv and summary.csv bytes of the pinned grid with ``overrides``."""
    cfg = ExperimentConfig(graph=PINNED_GRAPH, **PINNED_GRID, **overrides)
    res = run_experiment(cfg)
    write_rows_csv(res, tmp_path / "rows.csv")
    write_summary_csv(summarize(res), tmp_path / "summary.csv")
    return [(tmp_path / name).read_bytes() for name in ("rows.csv", "summary.csv")]


class TestPinnedBytes:
    # sha256 of rows.csv and summary.csv, taken under numpy 2.4.6. A change
    # that keeps the output must keep these; numpy may change its random
    # streams in a feature release, which alone would also move them. They
    # moved last when each sampler came to draw once per replication, at the
    # largest size, and to measure every size on a prefix of that draw, which
    # draws new samples for every row.
    @pytest.mark.parametrize(
        "overrides, rows_sha, summary_sha",
        [
            (
                {},
                "ef2b248b104d0f56d1e30e72cfa0dc21e313d9045d10a57506912a7df2a31fe2",
                "2e7f38a5336a0ab39ec9951d5bf6dd2aa2f17305285b9a741cd3a2aed96e9752",
            ),
            (
                PINNED_FIXED,
                "afe1836c4bc5aba78ff7b3a3402c594338a9e942ab1b9acae3332d3fe79af26c",
                "885482d26cc771d31f7dcb3bd6bd7db35f929c345eef5c2dc20b3c59bee1d0b1",
            ),
        ],
        ids=["fresh", "fixed_graph"],
    )
    def test_csv_digests(self, tmp_path, overrides, rows_sha, summary_sha):
        got = [hashlib.sha256(data).hexdigest() for data in pinned_csvs(tmp_path, overrides)]
        assert got == [rows_sha, summary_sha], f"pinned under numpy 2.4.6, running {np.__version__}"

    # sha256 of the rows.csv lines other than the walk's visibility rows,
    # header included. The walk's top-quantile estimator alone does not move
    # them; they moved last with the one draw per sampler and replication.
    @pytest.mark.parametrize(
        "overrides, sha",
        [
            ({}, "9eb60a06159a48447fe78d63d92caf922fe6cca851bc0786a1c2b2580d473343"),
            (PINNED_FIXED, "f9ac3224deb84e8125f65cb4f078c415f3733b4e315e8739bf87866aa6594efc"),
        ],
        ids=["fresh", "fixed_graph"],
    )
    def test_rows_outside_walk_visibility(self, tmp_path, overrides, sha):
        rows, _ = pinned_csvs(tmp_path, overrides)
        lines = rows.splitlines(keepends=True)
        kept = [line for line in lines if line.split(b",")[0:5:4] != [b"rwrw", b"visibility"]]
        assert len(kept) == len(lines) - 36
        got = hashlib.sha256(b"".join(kept)).hexdigest()
        assert got == sha, f"pinned under numpy 2.4.6, running {np.__version__}"


# Floats whose shortest repr csv.writer must match: zeros of both signs,
# the switch points of exponent notation, the smallest subnormal, and the
# values that are not finite.
SPECIAL_FLOATS = [0.0, -0.0, 1e-05, 0.0001, 1e16, 9999999999999998.0, 5e-324, math.nan, math.inf,
                  -math.inf, 0.1, -2.5e-308]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
OPTIONAL_FLOATS = st.none() | FLOATS


def csv_writer_bytes(row_type, rows) -> bytes:
    """The file csv.writer makes of the row type's field names and the rows."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(row_type._fields)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def written_bytes(write, *args) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write(*args, path)
        return path.read_bytes()


class TestLineWriters:
    """Both CSVs are written as lines, floats from Python floats; their bytes
    must be those csv.writer makes of the same rows."""

    @settings(max_examples=60, deadline=None)
    @given(
        samplers=st.lists(st.sampled_from(experiments.SAMPLERS), min_size=1, max_size=3, unique=True),
        rates=st.lists(st.sampled_from([0.0, 1e-05, 0.1, 0.3, 0.49999999999999994]), min_size=1,
                       max_size=2, unique=True),
        sizes=st.lists(st.integers(1, 10**6), min_size=1, max_size=2, unique=True),
        reps=st.integers(1, 2),
        estimates=st.lists(FLOATS, min_size=1, max_size=24),
        errors=st.lists(FLOATS, min_size=1, max_size=24),
        codes=st.lists(st.integers(0, len(experiments._FLAGS) - 1), min_size=1, max_size=24),
    )
    @example(
        samplers=["rwrw"], rates=[0.1], sizes=[10], reps=1, estimates=SPECIAL_FLOATS,
        errors=SPECIAL_FLOATS[::-1], codes=list(range(len(experiments._FLAGS))),
    )
    def test_rows_csv_is_csv_writers(self, samplers, rates, sizes, reps, estimates, errors, codes):
        # Every flag code: "", out_of_range and each failed:*, whose rows
        # write an empty estimate or error.
        cfg = small_config(samplers=samplers, rates=rates, sample_sizes=sizes, replications=reps)
        result = grid_result(cfg, estimates, errors, np.array(codes, dtype=np.int8))
        rows = result.rows
        assert len(rows) == result.codes.size
        for row in rows:
            assert type(row.rate) is float and type(row.size) is int and type(row.rep) is int
            assert all(type(v) in (float, type(None)) for v in (row.estimate, row.error))
        assert written_bytes(write_rows_csv, result) == csv_writer_bytes(ResultRow, rows)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.builds(
            experiments.SummaryRow,
            sampler=st.sampled_from(experiments.SAMPLERS),
            rate=st.sampled_from([0.0, 1e-05, 0.2]),
            size=st.integers(1, 10**6),
            measure=st.sampled_from(experiments.MEASURES),
            variant=st.sampled_from(experiments.VARIANTS),
            reps=st.integers(1, 10**4),
            failures=st.integers(0, 10**4),
            mean_error=OPTIONAL_FLOATS,
            p2_5=OPTIONAL_FLOATS,
            p97_5=OPTIONAL_FLOATS,
            nrmse=OPTIONAL_FLOATS,
            out_of_range_rate=FLOATS,
            failure_rate=FLOATS,
        ),
        max_size=20,
    ))
    @example([
        experiments.SummaryRow("node", 0.1, 10, "proportion", "corrected", 3, 1, a, b, c, d, e, f)
        for a, b, c, d, e, f in zip(
            [None, *SPECIAL_FLOATS], SPECIAL_FLOATS, [*SPECIAL_FLOATS[1:], None],
            [None] * 3 + SPECIAL_FLOATS, SPECIAL_FLOATS[::-1], SPECIAL_FLOATS,
        )
    ])
    def test_summary_csv_is_csv_writers(self, summary):
        want = csv_writer_bytes(experiments.SummaryRow, summary)
        assert written_bytes(write_summary_csv, summary) == want


def assert_mirrored(x, y):
    """y is x with the groups A and B swapped, to 1e-12."""
    if isinstance(x, PropVector):
        assert (y.a, y.b) == pytest.approx((x.b, x.a), abs=1e-12)
    else:
        assert (y.aa, y.ab, y.bb) == pytest.approx((x.bb, x.ab, x.aa), abs=1e-12)


def reference_truths(g, top_quantile):
    """The grid's four truths of the census from the single-sample chain:
    proportion, in-group share, visibility and homophily of B, None where
    undefined."""
    gt = reference_ground_truth(g, top_quantile)
    share = reference_attempt(ingroup_share, gt.s, 1)
    share = None if isinstance(share, Exception) else share
    return [gt.p.b, share, gt.visibility_b, gt.homophily_b]


def assert_census_matches_reference(edges, labels, top_quantile, directed=False):
    """ground_truth's truths and the truth command's JSON, bit for bit,
    against the single-sample chain on the graph the files hold."""
    g = load_graph_files(edges, labels, directed=directed)
    got = [None if np.isnan(x) else repr(x) for x in ground_truth(g, top_quantile)[0].tolist()]
    assert got == [None if x is None else repr(x) for x in reference_truths(g, top_quantile)]
    out = Path(edges).with_suffix(".json")
    argv = ["truth", "--edges", str(edges), "--labels", str(labels),
            "--top-quantile", repr(top_quantile), "--out", str(out)]
    assert cli_main(argv + ["--directed"] * directed) == 0
    payload = {"nodes": g.node_count, "edges": g.edge_count,
               **reference_ground_truth(g, top_quantile).as_dict()}
    assert out.read_text(encoding="utf-8") == json.dumps(payload, indent=2) + "\n"


def write_graph(g, directory):
    edges, labels = Path(directory) / "g.edges", Path(directory) / "g.labels"
    write_edge_list(g, edges)
    write_label_file(g, labels)
    return edges, labels


class TestCensus:
    """The census measured and derived on the grid's path equals the
    single-sample chain's measures of it, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(3, 80),
        m=st.integers(1, 3),
        frac=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        pref=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        quantile=st.one_of(st.sampled_from([0.01, 0.05, 1.0]), st.floats(0.001, 1.0)),
        seed=st.integers(0, 2**31),
    )
    # One group only, with visibility below 1/q nodes; and a complete graph.
    @example(n=12, m=1, frac=0.0, pref=1.0, quantile=0.05, seed=0)
    @example(n=15, m=1, frac=1.0, pref=0.0, quantile=0.2, seed=1)
    @example(n=4, m=3, frac=0.5, pref=0.5, quantile=1.0, seed=2)
    def test_generated_graphs(self, n, m, frac, pref, quantile, seed):
        assume(m < n)
        g = generate_homophilous_graph(n, m, frac, pref, rng_seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            assert_census_matches_reference(*write_graph(g, tmp), quantile)

    def test_null_fields_are_exercised(self):
        g = generate_homophilous_graph(12, 1, 0.0, 1.0, rng_seed=0)
        assert reference_truths(g, 0.05)[1:] == [None, None, None]
        assert np.isnan(ground_truth(g, 0.05)[0][1:]).all()

    def test_large_generated_graph(self, tmp_path):
        # The census reduces a (1 x N) block at N = 20 000.
        g = generate_homophilous_graph(20_000, 4, 0.2, 0.8, rng_seed=20)
        assert_census_matches_reference(*write_graph(g, tmp_path), 0.2)

    def test_ingested_directed_file_graph(self, tmp_path):
        # Sparse ids, one-way edges, a second component and NA labels.
        g = generate_homophilous_graph(2000, 3, 0.3, 0.7, rng_seed=21)
        ids = 7 + 1000 * np.random.default_rng(22).permutation(g.node_count)
        rng = np.random.default_rng(23)
        one_way = rng.random(g.edge_count) < 0.1
        lines = [f"{ids[u]} {ids[v]}\n{ids[v]} {ids[u]}\n" for u, v in g.edges[~one_way].tolist()]
        lines += [f"{ids[u]} {ids[v]}\n" for u, v in g.edges[one_way].tolist()]
        lines += ["5 6\n6 5\n6 9\n9 6\n"]
        rng.shuffle(lines)
        edges, labels = tmp_path / "g.edges", tmp_path / "g.labels"
        edges.write_text("".join(lines))
        tokens = np.array(["A", "B"])[g.labels].tolist()
        tokens[:5] = ["NA"] * 5
        labels.write_text("".join(f"{i} {t}\n" for i, t in zip(ids.tolist(), tokens)) + "5 A\n6 B\n9 A\n")
        loaded = load_graph_files(edges, labels, directed=True)
        assert 1000 < loaded.node_count < g.node_count and loaded.id_map.max() > 10**6
        for quantile in (0.2, 0.37, 1.0):
            assert_census_matches_reference(edges, labels, quantile, directed=True)


class TestGroupSwap:
    def test_swap_mirrors_pipeline(self):
        # Relabel A as B and B as A, and swap the confusion matrix to match
        # (a|a with b|b, a|b with b|a). Every truth, noisy label, measured
        # and corrected vector must come out mirrored.
        g = generate_homophilous_graph(2000, 3, 0.3, 0.7, rng_seed=11)
        swapped = UndirectedGraph.from_edges(g.node_count, g.edges, 1 - g.labels)
        c = ConfusionMatrix(0.95, 0.4, 0.05, 0.6)
        c_swap = ConfusionMatrix(c.b_given_b, c.b_given_a, c.a_given_b, c.a_given_a)

        gt, gt_swap = reference_ground_truth(g), reference_ground_truth(swapped)
        assert_mirrored(gt.p, gt_swap.p)
        assert_mirrored(gt.s, gt_swap.s)
        assert gt_swap.visibility_b == pytest.approx(1.0 - gt.visibility_b, abs=1e-12)
        assert gt_swap.homophily_a == pytest.approx(gt.homophily_b, abs=1e-12)
        assert gt_swap.homophily_b == pytest.approx(gt.homophily_a, abs=1e-12)

        noisy = apply_noise(g.labels, c, rng_seed=3)
        noisy_swap = apply_noise(swapped.labels, c_swap, rng_seed=3)
        assert np.array_equal(noisy_swap, 1 - noisy)

        for draw in (rwrw_walk, node_sample, edge_sample, snowball_sample):
            vectors = []
            for graph, labels, confusion in ((g, noisy, c), (swapped, noisy_swap, c_swap)):
                sample = with_noisy_labels(draw(graph, 400, rng_seed=4), labels)
                top = top_records(sample, 0.2)
                p = estimate_proportions(sample)
                t = estimate_edge_vector(sample)
                v = estimate_proportions(top)
                vectors.append((
                    p, t, v,
                    adjust_proportions(p, confusion),
                    adjust_edge_proportions(t, confusion),
                    adjust_proportions(v, confusion),
                ))
            for x, y in zip(*vectors):
                assert_mirrored(x, y)


class TestCli:
    def _generate(self, tmp_path, n=150):
        prefix = tmp_path / "graph"
        code = cli_main(
            [
                "generate",
                "--n", str(n),
                "--m", "3",
                "--minority-frac", "0.3",
                "--ingroup-pref", "0.7",
                "--seed", "5",
                "--out", str(prefix),
            ]
        )
        assert code == 0
        return prefix.with_suffix(".edges"), prefix.with_suffix(".labels")

    def test_generate_and_truth(self, tmp_path, capsys):
        edges, labels = self._generate(tmp_path)
        assert edges.exists() and labels.exists()
        out = tmp_path / "truth.json"
        code = cli_main(
            ["truth", "--edges", str(edges), "--labels", str(labels), "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["nodes"] == 150
        assert payload["p_a"] + payload["p_b"] == pytest.approx(1.0)

    def test_truth_refuses_top_quantile_outside_unit_interval(self, tmp_path, capsys):
        edges, labels = self._generate(tmp_path)
        out = tmp_path / "truth.json"
        argv = ["truth", "--edges", str(edges), "--labels", str(labels), "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--top-quantile", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "graphquant: error: top_quantile must lie in (0, 1], got 2.0\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["correct", "--prop", "0.68", "0.32"], "provide --rate or --matrix"),
            (["correct", "--rate", "0.2"], "provide --prop and/or --edge"),
            (["correct", "--rate", "0.2", "--prop", "nan", "0.5"],
             "shares must be finite, got (nan, 0.5)"),
            (["correct", "--rate", "0.2", "--edge", "0.5", "inf", "0.5"],
             "shares must be finite, got (0.5, inf, 0.5)"),
            (["correct", "--rate", "0.1", "--matrix", "0.9", "0.3", "0.1", "0.7",
              "--prop", "0.7", "0.3"], "give --rate or --matrix, not both"),
        ],
    )
    def test_refused_input_exits_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"graphquant: error: {message}\n"

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"graph": {"kind": "generated"}}))
        with pytest.raises(SystemExit) as exc:
            cli_main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "graphquant: error: unknown graph keys: ['kind']\n"
        assert not (tmp_path / "run").exists()

    def test_truth_below_one_over_q_nodes_prints_null(self, tmp_path, capsys):
        # Four nodes at the default q = 0.2: floor(4 * 0.2) selects no node.
        edges, labels = tmp_path / "g.edges", tmp_path / "g.labels"
        edges.write_text("0 1\n1 2\n2 3\n")
        labels.write_text("0\tA\n1\tB\n2\tA\n3\tB\n")
        assert cli_main(["truth", "--edges", str(edges), "--labels", str(labels)]) == 0
        out = capsys.readouterr().out
        assert '"visibility_b": null' in out
        assert json.loads(out)["nodes"] == 4

    def test_closed_stdout_exits_1_silently(self, tmp_path):
        # The reader of stdout is gone before the command writes, as when
        # `| head` has exited.
        edges, labels = self._generate(tmp_path)
        path = [str(Path(experiments.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        argv = ["truth", "--edges", str(edges), "--labels", str(labels)]
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "graphquant.cli", *argv],
                stdout=w, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr) == (1, b"")

    @pytest.mark.parametrize(
        "argv, message",
        [(["--config", "cfg.json", "--seed", "-1"], "master_seed must be nonnegative"),
         (["--config", "cfg.json", "--threads", "0"], "threads must be positive"),
         (["--config", "oversized.json"], "sample size 500 exceeds graph size 300"),
         (["--config", "no_file.json"], "[Errno 2] No such file or directory: 'absent.edges'"),
         (["--config", "fractional_m.json"], "m must be an integer, got 3.5")],
    )
    def test_refused_experiment_leaves_no_directory(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        # The oversized and no_file configs are valid and refused only while
        # the grid runs; fractional_m is refused when it is read.
        monkeypatch.chdir(tmp_path)
        configs = {
            "cfg.json": dataclasses.asdict(small_config(replications=1)),
            "oversized.json": {"graph": {"n": 300, "m": 3}, "samplers": ["node"], "rates": [0.1],
                               "sample_sizes": [500], "replications": 1},
            "no_file.json": {"graph": {"edge_file": "absent.edges", "label_file": "absent.labels"}},
            "fractional_m.json": {"graph": {"n": 300, "m": 3.5}},
        }
        for name, cfg in configs.items():
            Path(name).write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as exc:
            cli_main(["experiment", "--out", "run"] + argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"graphquant: error: {message}\n"
        assert not Path("run").exists()

    def test_walk_records(self, tmp_path):
        edges, labels = self._generate(tmp_path)
        out = tmp_path / "records.txt"
        code = cli_main(
            [
                "walk",
                "--edges", str(edges),
                "--labels", str(labels),
                "--steps", "50",
                "--rate", "0.2",
                "--seed", "9",
                "--out", str(out),
            ]
        )
        assert code == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 50

    def test_walk_refuses_rate_and_matrix_together(self, tmp_path, capsys):
        # Either one names the classifier; given both, neither is dropped in
        # silence, and the refusal comes before the audit file is written.
        edges, labels = self._generate(tmp_path)
        capsys.readouterr()
        out = tmp_path / "records.txt"
        argv = ["walk", "--edges", str(edges), "--labels", str(labels), "--steps", "50",
                "--rate", "0.1", "--matrix", "0.9", "0.3", "0.1", "0.7", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == "graphquant: error: give --rate or --matrix, not both\n"
        assert not out.exists()

    @pytest.mark.parametrize("rate", [["--rate", "0.2"], []], ids=["rate", "no_rate"])
    def test_walk_writes_file_ids(self, tmp_path, rate):
        # Sparse ids: the walk runs on dense ids 0..3, the audit file names
        # each node, its degree and its label as the input files do. With
        # no classifier the noisy column reads NA.
        edges, labels = tmp_path / "g.edges", tmp_path / "g.labels"
        pairs = [(100, 200), (200, 300), (300, 400), (400, 100), (100, 300)]
        groups = {100: "A", 200: "B", 300: "B", 400: "A"}
        edges.write_text("".join(f"{u} {v}\n" for u, v in pairs))
        labels.write_text("".join(f"{node} {group}\n" for node, group in groups.items()))
        degree = Counter(node for pair in pairs for node in pair)
        out = tmp_path / "records.txt"
        argv = ["walk", "--edges", str(edges), "--labels", str(labels), "--steps", "40",
                "--seed", "4", "--out", str(out)] + rate
        assert cli_main(argv) == 0
        body = [l.split() for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 40
        for node, deg, true_label, noisy_label, _ in body:
            assert int(node) in groups
            assert int(deg) == degree[int(node)]
            assert true_label == groups[int(node)]
            assert noisy_label in (("A", "B") if rate else ("NA",))

    def test_correct_matches_closed_form(self, capsys):
        code = cli_main(["correct", "--rate", "0.2", "--prop", "0.68", "0.32"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["proportions"]["a"] == pytest.approx(0.8, abs=1e-12)
        assert payload["proportions"]["b"] == pytest.approx(0.2, abs=1e-12)
        assert payload["variance_inflation"] == pytest.approx(1 / 0.36, abs=1e-9)

    @pytest.mark.parametrize(
        "argv",
        [["--matrix", "0.8", "0.2", "0.2", "0.8"], ["--rate", "0.2", "--prop", "0.68", "0.32"]],
        ids=["edge", "prop_and_edge"],
    )
    def test_correct_edge_vector(self, argv, capsys):
        # Given both vectors, one call corrects each.
        code = cli_main(["correct"] + argv + ["--edge", "0.5", "0.3", "0.2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(payload["edges"][k] for k in ("aa", "ab", "bb")) == pytest.approx(1.0)
        if "--prop" in argv:
            assert payload["proportions"]["b"] == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize(
        "argv, key",
        [
            # det(C) 0.0016: corrected edge shares near 1e5, whose sum
            # rounds by more than 1e-9.
            (["--matrix", "0.0909090909090909", "0.0892857142857143", "0.9090909090909091",
              "0.9107142857142857", "--edge", "0.45395799676898224", "0.2633279483037157",
              "0.2827140549273021"], "edges"),
            # det(C) 5e-9, above the guard: components near 4e7 round by more than 1e-9.
            (["--matrix", "0.500000005", "0.5", "0.499999995", "0.5", "--prop", "0.3", "0.7"],
             "proportions"),
        ],
        ids=["edges_det_0.0016", "proportions_det_5e-9"],
    )
    def test_correct_near_singular_flags_out_of_range(self, argv, key, capsys):
        assert cli_main(["correct"] + argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[key]["out_of_range"] is True

    def test_experiment_subcommand(self, tmp_path, capsys):
        cfg = small_config(replications=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)))
        out_dir = tmp_path / "run"
        code = cli_main(
            ["experiment", "--config", str(cfg_path), "--out", str(out_dir), "--threads", "1"]
        )
        assert code == 0
        assert (out_dir / "rows.csv").exists()
        assert (out_dir / "summary.csv").exists()
        lines = (out_dir / "rows.csv").read_text().splitlines()
        assert lines[0] == "sampler,rate,size,rep,measure,variant,estimate,error,flags"
        # The row count printed is the grid's: 2 samplers x 2 rates x 1 size x 2 reps x 12.
        assert len(lines) == 1 + 96
        assert "(96 rows)" in capsys.readouterr().out
        header = (out_dir / "summary.csv").read_text().splitlines()[0]
        assert header == (
            "sampler,rate,size,measure,variant,reps,failures,mean_error,p2_5,p97_5,nrmse,"
            "out_of_range_rate,failure_rate"
        )

    def test_seed_override_matches_config_seed(self, tmp_path):
        cfg = small_config(replications=2)
        outs = []
        for name, cfg_seed, argv_seed in (("flag", 13, ["--seed", "7"]), ("config", 7, [])):
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(
                json.dumps(dataclasses.asdict(dataclasses.replace(cfg, master_seed=cfg_seed)))
            )
            out_dir = tmp_path / name
            argv = ["experiment", "--config", str(cfg_path), "--out", str(out_dir)] + argv_seed
            assert cli_main(argv) == 0
            outs.append((out_dir / "rows.csv").read_bytes())
        assert outs[0] == outs[1]


def test_run_grid_quick(tmp_path):
    # scripts/run_grid.py puts src/ on its own path: 4 samplers x 4 rates x
    # 5 sizes x 2 replications, 12 rows each, and an NRMSE line per measure.
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_grid.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--quick", "--reps", "2", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("1920 rows in ")
    for name, row_type, count in (("rows", ResultRow, 1920), ("summary", experiments.SummaryRow, 960)):
        lines = (tmp_path / f"{name}.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(row_type._fields)
        assert len(lines) == 1 + count
    table = [line.split() for line in proc.stdout.splitlines()]
    for measure in experiments.MEASURES:
        (cells,) = [line[1:] for line in table if line[:1] == [measure]]
        assert len(cells) == 4 * 3  # "corrected / uncorrected" per rate
        assert all(float(x) >= 0.0 for x in cells[0::3] + cells[2::3])


class TestTracerNames:
    """The benchmark's tracer looks functions up by module and name, so a
    name it wraps must stay findable, and its block must put back every
    original."""

    @pytest.fixture(scope="class")
    def tracing(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_every_wrapped_name_resolves(self, tracing):
        import graphquant

        missing = [(module, attr) for module, attr, _ in tracing.WRAPPED
                   if not hasattr(getattr(graphquant, module), attr)]
        assert missing == []
        # Only the declared placeholders stand for functions the package dropped.
        placeholders = {attr for module, attr, _ in tracing.WRAPPED
                        if getattr(getattr(graphquant, module), attr) is None}
        assert placeholders == {
            "adjust_visibility", "importance_resample", "top_quantile_indices", "coleman_homophily",
            "estimate_edge_vector", "estimate_proportions", "ingroup_share", "with_noisy_labels",
        }

    def test_installed_block_restores_originals(self, tracing):
        import graphquant

        def current():
            return ([getattr(getattr(graphquant, module), attr)
                     for module, attr, _ in tracing.WRAPPED],
                    UndirectedGraph.__dict__["from_edges"])

        before, before_from_edges = current()
        with tracing.Tracer().installed():
            inside, inside_from_edges = current()
            assert all(a is not b for a, b in zip(before, inside))
            assert inside_from_edges is not before_from_edges
        after, after_from_edges = current()
        assert all(a is b for a, b in zip(before, after))
        assert after_from_edges is before_from_edges

"""Experiment harness: configs, determinism, summaries, NRMSE, CLI."""

import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_induced_edges_match, rows_for
from graphquant import experiments, ground_truth
from graphquant.cli import main as cli_main
from graphquant.experiments import (
    ExperimentConfig,
    GraphSpec,
    ResultRow,
    ExperimentResult,
    nrmse,
    run_experiment,
    summarize,
    write_rows_csv,
    write_summary_csv,
)
from graphquant.graph import (
    UndirectedGraph,
    generate_homophilous_graph,
    write_edge_list,
    write_label_file,
)
from graphquant.noise import ConfusionMatrix, apply_noise
from graphquant.quantify import (
    EdgeVector,
    PropVector,
    adjust_edge_proportions,
    adjust_proportions,
)
from graphquant.samplers import (
    NoObservedEdgesError,
    edge_sample,
    estimate_edge_vector,
    estimate_proportions,
    node_sample,
    rwrw_walk,
    snowball_sample,
    top_records,
    with_noisy_labels,
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


class TestNrmse:
    def test_zero_errors(self):
        assert nrmse([0.0, 0.0, 0.0], 0.4) == 0.0

    def test_hand_arithmetic(self):
        assert nrmse([0.1, -0.1], 0.5) == pytest.approx(0.2)

    def test_zero_truth_is_undefined(self):
        assert nrmse([0.1, 0.2], 0.0) is None

    def test_empty_errors_rejected(self):
        with pytest.raises(ValueError):
            nrmse([], 1.0)


class TestSummarize:
    def _result(self, errors, truth=0.5):
        rows = [
            ResultRow("node", 0.1, 10, i, "proportion", "corrected", truth + e, e, "")
            for i, e in enumerate(errors)
        ]
        return ExperimentResult(config=small_config(), rows=rows)

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
        rows = [
            ResultRow("node", 0.1, 10, 0, "ingroup", "corrected", 0.5, 0.1, ""),
            ResultRow("node", 0.1, 10, 1, "ingroup", "corrected", None, None, "failed:no_edges"),
        ]
        summary = summarize(ExperimentResult(config=small_config(), rows=rows))
        assert summary[0].failures == 1
        assert summary[0].failure_rate == 0.5
        assert summary[0].reps == 2


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
            truth = ground_truth(g, q).visibility_b
            rows = rows_for(res, measure="visibility", variant="no_noise")
            rows = [r for r in rows if r.error is not None]
            assert rows
            for r in rows:
                assert r.estimate - r.error == pytest.approx(truth, abs=1e-12)
        assert graphs[0] is graphs[1] is graphs[2]
        assert ground_truth(g, 0.2).visibility_b != ground_truth(g, 0.5).visibility_b

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
        # Every draw of the run above, against the mask over every edge.
        drawn = []

        def checked(g, n, rng_seed=None):
            sample = node_sample(g, n, rng_seed=rng_seed)
            assert_induced_edges_match(g, sample)
            drawn.append(n)
            return sample

        monkeypatch.setattr(experiments, "node_sample", checked)
        run_experiment(
            small_config(samplers=("node",), sample_sizes=(2,), rates=(0.2,), replications=5)
        )
        assert drawn == [2] * 5

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
        truth = ground_truth(g).p.b
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
            assert row.estimate - row.error == pytest.approx(ground_truth(g).p.b, abs=1e-12)
            # The truths cached with the graph are the new contents' too.
            vis = rows_for(res, sampler="node", measure="visibility", variant="no_noise")[0]
            truth = ground_truth(g).visibility_b
            assert vis.estimate - vis.error == pytest.approx(truth, abs=1e-12)
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
        def broken(sample):
            raise ValueError("bug")

        monkeypatch.setattr(experiments, "estimate_edge_vector", broken)
        with pytest.raises(ValueError, match="bug"):
            run_experiment(small_config(replications=1))

    def test_confusion_programming_errors_raise(self, monkeypatch):
        # Only a one-group draw leaves C undefined; any error from
        # estimating it is a bug and raises.
        def broken(truth, predicted):
            raise ValueError("bug")

        monkeypatch.setattr(experiments, "empirical_confusion", broken)
        with pytest.raises(ValueError, match="bug"):
            run_experiment(small_config(confusion_from_labeled=40, replications=1))

    def test_one_group_draw_fails_corrected_rows_only(self):
        # Two labeled nodes often share a group, and then C is undefined.
        res = run_experiment(small_config(confusion_from_labeled=2, replications=3))
        corrected = rows_for(res, variant="corrected")
        undefined = [r for r in corrected if r.flags == "failed:confusion_undefined"]
        assert 0 < len(undefined) < len(corrected)
        assert all(r.estimate is None for r in undefined)
        assert all(r.flags != "failed:confusion_undefined" for r in res.rows if r.variant != "corrected")

    def test_rates_share_one_labeled_set(self, monkeypatch):
        # Noisy maps carry each node's id beside its label (label + 2 id), so
        # the nodes each empirical_confusion call grades can be read back;
        # the samples see the label alone. Per (sampler, size), every rate
        # grades its noisy labels on one set of labeled nodes.
        cfg = small_config(
            rates=(0.0, 0.1, 0.2), sample_sizes=(60, 80), confusion_from_labeled=30
        )
        ids = 2 * np.arange(cfg.graph.n)
        noise, relabel, grade = (
            experiments.apply_noise, experiments.with_noisy_labels, experiments.empirical_confusion
        )
        calls = []

        def recorded(truth, predicted):
            calls.append((predicted // 2, truth))
            return grade(truth, predicted % 2)

        monkeypatch.setattr(experiments, "apply_noise", lambda *args: noise(*args) + ids)
        monkeypatch.setattr(experiments, "with_noisy_labels", lambda s, noisy: relabel(s, noisy % 2))
        monkeypatch.setattr(experiments, "empirical_confusion", recorded)
        experiments._replication_rows(cfg, 0)
        g, _ = experiments._graph_for_rep(cfg, 0)
        assert len(calls) == len(cfg.samplers) * len(cfg.sample_sizes) * len(cfg.rates)
        for cell in range(0, len(calls), len(cfg.rates)):
            nodes, truth = calls[cell]
            assert np.unique(nodes).size == nodes.size == 30
            assert np.array_equal(truth, g.labels[nodes])
            for other_nodes, other_truth in calls[cell + 1 : cell + len(cfg.rates)]:
                assert np.array_equal(other_nodes, nodes)
                assert np.array_equal(other_truth, truth)

    def test_each_label_set_measured_once(self, monkeypatch):
        # Per (sampler, size): group, edge-type and top-quantile shares of
        # the true labels and of each rate's noisy labels, once each.
        cfg = small_config(rates=(0.0, 0.1, 0.2), sample_sizes=(60, 80))
        calls = Counter()
        for name in ("estimate_proportions", "estimate_edge_vector"):
            def counted(*args, _name=name, _original=getattr(experiments, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(experiments, name, counted)
        experiments._replication_rows(cfg, 0)
        label_sets = len(cfg.samplers) * len(cfg.sample_sizes) * (1 + len(cfg.rates))
        assert calls == {
            "estimate_proportions": 2 * label_sets,
            "estimate_edge_vector": label_sets,
        }

    def test_failures_stay_with_their_variant(self):
        # A measurement failure flags both variants; a correction failure
        # flags only the corrected one.
        measured = (PropVector(0.7, 0.3), NoObservedEdgesError("none"), PropVector(0.6, 0.4))
        uncorrected = experiments._variants(measured, None)
        corrected = experiments._variants(measured, ConfusionMatrix(0.5, 0.5, 0.5, 0.5))
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
        one_way = experiments._variants(measured, None)
        assert one_way["ingroup"] == (0.0, "out_of_range")
        assert one_way["homophily"] == (-1.0, "")


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
    # moved last when the edge correction became D(adj C) / det(C)^2, which
    # rounds differently in the last bits of corrected ingroup and homophily
    # rows, and when every rate came to share one labeled set per sample,
    # which draws new labeled nodes for every corrected fixed_graph row.
    @pytest.mark.parametrize(
        "overrides, rows_sha, summary_sha",
        [
            (
                {},
                "477c572096c02d7a23bd7e8e1e462c59e21cd94a4488ad132a9b7324834101d5",
                "a915e7547818ee1b5956626f82d3056652607d3e5a1c681ddf8ed0db3218e747",
            ),
            (
                PINNED_FIXED,
                "3e54efcac81f6141fa75e502b8cd23d9d0061a4f44a90ac3b82c28228e02c732",
                "6b34ded9fe4cd04030e2eee2ac3ea37d5d18536658990b1f9d50cbeaac050d9d",
            ),
        ],
        ids=["fresh", "fixed_graph"],
    )
    def test_csv_digests(self, tmp_path, overrides, rows_sha, summary_sha):
        got = [hashlib.sha256(data).hexdigest() for data in pinned_csvs(tmp_path, overrides)]
        assert got == [rows_sha, summary_sha], f"pinned under numpy 2.4.6, running {np.__version__}"

    # sha256 of the rows.csv lines other than the walk's visibility rows,
    # header included. The walk's top-quantile estimator alone does not move
    # them; they moved with the edge correction and the shared labeled set.
    @pytest.mark.parametrize(
        "overrides, sha",
        [
            ({}, "ee4448545ee95382584f8264c95ec1e948d7d5d35a662c1aeb9b105bc3e9ea17"),
            (PINNED_FIXED, "42b894056c72212f2044c283ef5ac62cd96e1152227439689a59069adb87fd2c"),
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


def assert_mirrored(x, y):
    """y is x with the groups A and B swapped, to 1e-12."""
    if isinstance(x, PropVector):
        assert (y.a, y.b) == pytest.approx((x.b, x.a), abs=1e-12)
    else:
        assert (y.aa, y.ab, y.bb) == pytest.approx((x.bb, x.ab, x.aa), abs=1e-12)


class TestGroupSwap:
    def test_swap_mirrors_pipeline(self):
        # Relabel A as B and B as A, and swap the confusion matrix to match
        # (a|a with b|b, a|b with b|a). Every truth, noisy label, measured
        # and corrected vector must come out mirrored.
        g = generate_homophilous_graph(2000, 3, 0.3, 0.7, rng_seed=11)
        swapped = UndirectedGraph.from_edges(g.node_count, g.edges, 1 - g.labels)
        c = ConfusionMatrix(0.95, 0.4, 0.05, 0.6)
        c_swap = ConfusionMatrix(c.b_given_b, c.b_given_a, c.a_given_b, c.a_given_a)

        gt, gt_swap = ground_truth(g), ground_truth(swapped)
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
         (["--config", "no_file.json"], "[Errno 2] No such file or directory: 'absent.edges'")],
    )
    def test_refused_experiment_leaves_no_directory(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        # The last two configs are valid and refused only while the grid runs.
        monkeypatch.chdir(tmp_path)
        configs = {
            "cfg.json": dataclasses.asdict(small_config(replications=1)),
            "oversized.json": {"graph": {"n": 300, "m": 3}, "samplers": ["node"], "rates": [0.1],
                               "sample_sizes": [500], "replications": 1},
            "no_file.json": {"graph": {"edge_file": "absent.edges", "label_file": "absent.labels"}},
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

    def test_walk_writes_file_ids(self, tmp_path):
        # Sparse ids: the walk runs on dense ids 0..3, the audit file names
        # each node, its degree and its label as the input files do.
        edges, labels = tmp_path / "g.edges", tmp_path / "g.labels"
        pairs = [(100, 200), (200, 300), (300, 400), (400, 100), (100, 300)]
        groups = {100: "A", 200: "B", 300: "B", 400: "A"}
        edges.write_text("".join(f"{u} {v}\n" for u, v in pairs))
        labels.write_text("".join(f"{node} {group}\n" for node, group in groups.items()))
        degree = Counter(node for pair in pairs for node in pair)
        out = tmp_path / "records.txt"
        argv = ["walk", "--edges", str(edges), "--labels", str(labels), "--steps", "40",
                "--rate", "0.2", "--seed", "4", "--out", str(out)]
        assert cli_main(argv) == 0
        body = [l.split() for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 40
        for node, deg, true_label, _, _ in body:
            assert int(node) in groups
            assert int(deg) == degree[int(node)]
            assert true_label == groups[int(node)]

    def test_correct_matches_closed_form(self, capsys):
        code = cli_main(["correct", "--rate", "0.2", "--prop", "0.68", "0.32"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["proportions"]["a"] == pytest.approx(0.8, abs=1e-12)
        assert payload["proportions"]["b"] == pytest.approx(0.2, abs=1e-12)
        assert payload["variance_inflation"] == pytest.approx(1 / 0.36, abs=1e-9)

    def test_correct_edge_vector(self, capsys):
        code = cli_main(
            ["correct", "--matrix", "0.8", "0.2", "0.2", "0.8", "--edge", "0.5", "0.3", "0.2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(payload["edges"][k] for k in ("aa", "ab", "bb")) == pytest.approx(1.0)

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
        header = (out_dir / "rows.csv").read_text().splitlines()[0]
        assert header == "sampler,rate,size,rep,measure,variant,estimate,error,flags"
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
        assert placeholders == {"adjust_visibility", "importance_resample", "top_quantile_indices"}

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

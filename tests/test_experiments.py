"""Experiment harness: configs, determinism, summaries, NRMSE, CLI."""

import json

import numpy as np
import pytest

from graphquant import experiments
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
from graphquant.graph import generate_homophilous_graph, ground_truth, write_edge_list, write_label_file


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
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = ExperimentConfig.from_json_file(path)
        assert loaded == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"reps": 5})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"graph": {"nodes": 50}})

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
            {"snowball_seeds": 0},
            {"sample_sizes": (20.0,)},
            {"graph": GraphSpec(n=200.0, m=3)},
            {"replications": True},
            {"graph": GraphSpec(n=300, m=3.0)},
            {"burn_in": 1.0},
            {"snowball_seeds": 2.5},
            {"resample_factor": True},
            {"confusion_from_labeled": 40.0},
            {"master_seed": 1.5},
        ],
    )
    def test_invariant_violations(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides).validate()

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
        errors = [0.02, -0.01, 0.03]
        summary = summarize(self._result(errors, truth=0.4))
        expected = np.sqrt(np.mean(np.square(errors))) / 0.4
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

    def test_master_seed_changes_rows(self):
        a = run_experiment(small_config(master_seed=1))
        b = run_experiment(small_config(master_seed=2))
        assert a.rows != b.rows

    def test_fixed_graph_reuses_truth(self):
        cfg = small_config(fixed_graph=True, rates=(0.2,), replications=3)
        res = run_experiment(cfg)
        truths = {
            round(r.estimate - r.error, 12)
            for r in res.rows_for(measure="proportion", variant="no_noise", sampler="node")
            if r.error is not None
        }
        assert len(truths) == 1

    def test_fresh_graphs_vary_truth(self):
        cfg = small_config(rates=(0.2,), replications=3)
        res = run_experiment(cfg)
        truths = {
            round(r.estimate - r.error, 12)
            for r in res.rows_for(measure="proportion", variant="no_noise", sampler="node")
            if r.error is not None
        }
        assert len(truths) > 1

    def test_tiny_node_samples_fail_gracefully(self):
        # Node samples of size 2 rarely induce any edge: ingroup and
        # homophily rows carry failure markers, the run completes.
        cfg = small_config(samplers=("node",), sample_sizes=(2,), rates=(0.2,), replications=5)
        res = run_experiment(cfg)
        flags = {r.flags for r in res.rows_for(measure="ingroup")}
        assert any(f.startswith("failed") for f in flags)
        summary = summarize(res)
        ingroup = [s for s in summary if s.measure == "ingroup"]
        assert all(0.0 <= s.failure_rate <= 1.0 for s in ingroup)

    def test_files_graph_kind(self, tmp_path):
        g = generate_homophilous_graph(120, 3, 0.3, 0.7, rng_seed=3)
        edges = tmp_path / "g.edges"
        labels = tmp_path / "g.labels"
        write_edge_list(g, edges)
        write_label_file(g, labels)
        cfg = small_config(
            graph=GraphSpec(kind="files", edge_file=str(edges), label_file=str(labels)),
            sample_sizes=(40,),
            replications=2,
        )
        res = run_experiment(cfg)
        truth = ground_truth(g).p.b
        row = res.rows_for(sampler="node", measure="proportion", variant="no_noise")[0]
        assert row.estimate - row.error == pytest.approx(truth, abs=1e-12)

    def test_rewritten_files_are_read_again(self, tmp_path):
        edges = tmp_path / "g.edges"
        labels = tmp_path / "g.labels"
        cfg = small_config(
            graph=GraphSpec(kind="files", edge_file=str(edges), label_file=str(labels)),
            sample_sizes=(40,),
            replications=1,
        )
        for n, frac in ((120, 0.3), (150, 0.5), (180, 0.4)):
            g = generate_homophilous_graph(n, 3, frac, 0.7, rng_seed=4)
            write_edge_list(g, edges)
            write_label_file(g, labels)
            row = run_experiment(cfg).rows_for(
                sampler="node", measure="proportion", variant="no_noise"
            )[0]
            assert row.estimate - row.error == pytest.approx(ground_truth(g).p.b, abs=1e-12)
            # The stale graph of the previous contents is evicted, not kept.
            cached = [key for key in experiments._GRAPH_CACHE if key[0] == str(edges)]
            assert len(cached) == 1

    def test_estimated_confusion_mode_runs(self):
        cfg = small_config(
            confusion_from_labeled=40, rates=(0.2,), sample_sizes=(120,), replications=3
        )
        res = run_experiment(cfg)
        corrected = res.rows_for(variant="corrected", measure="proportion")
        assert len(corrected) == 3 * 2  # reps x samplers
        assert any(r.estimate is not None for r in corrected)


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

    def test_experiment_subcommand(self, tmp_path, capsys):
        cfg = small_config(replications=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out_dir = tmp_path / "run"
        code = cli_main(
            ["experiment", "--config", str(cfg_path), "--out", str(out_dir), "--threads", "1"]
        )
        assert code == 0
        assert (out_dir / "rows.csv").exists()
        assert (out_dir / "summary.csv").exists()
        header = (out_dir / "rows.csv").read_text().splitlines()[0]
        assert header == "sampler,rate,size,rep,measure,variant,estimate,error,flags"

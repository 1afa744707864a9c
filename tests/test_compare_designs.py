"""scripts/compare_designs.py: its statistics, and a tree against itself."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_designs.py"


@pytest.fixture(scope="module")
def cd():
    spec = importlib.util.spec_from_file_location("compare_designs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestStatistics:
    def test_ks_matches_scipy(self, cd):
        rng = np.random.default_rng(1)
        for n, m, shift in ((2000, 2000, 0.0), (2000, 1900, 0.1), (300, 500, 0.3), (50, 40, 1.0)):
            x, y = rng.normal(size=n), rng.normal(shift, size=m)
            d = cd.ks_statistic(x, y)
            assert d == pytest.approx(stats.ks_2samp(x, y).statistic, abs=1e-12)
            t = np.sqrt(n * m / (n + m)) * d
            assert cd.ks_pvalue(d, n, m) == pytest.approx(stats.kstwobign.sf(t), abs=1e-12)

    def test_ks_of_identical_samples(self, cd):
        x = np.repeat([0.1, 0.2, 0.3], 5)
        assert cd.ks_statistic(x, x.copy()) == 0.0
        assert cd.ks_pvalue(0.0, 15, 15) == 1.0

    def test_holm_steps_down(self, cd):
        # m = 4: 0.01 <= 0.05/4, 0.015 <= 0.05/3, 0.03 > 0.05/2 stops there.
        assert cd.holm([0.03, 0.01, 0.5, 0.015]) == [False, True, False, True]
        assert cd.holm([0.02, 0.02]) == [True, True]
        assert cd.holm([0.026, 0.03]) == [False, False]

    def test_tost_passes_the_same_law_and_fails_a_shift_or_a_spread(self, cd):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=2000), rng.normal(size=2000)
        assert cd.tost_mean(x, y)["passes"]
        assert cd.tost_variance_ratio(x, y)["passes"]
        assert not cd.tost_mean(x, y + 0.3)["passes"]
        assert not cd.tost_variance_ratio(x, 1.3 * y)["passes"]
        # 200 replications a side cannot pass a 0.1 SD margin; 0.2 SD at 2000 can.
        assert 0.1 - cd.Z * np.sqrt(2 / 200) < 0 < cd.MEAN_MARGIN - cd.Z * np.sqrt(2 / 2000)

    def test_constant_samples(self, cd):
        same = np.full(10, 0.5)
        assert cd.tost_mean(same, same.copy())["passes"]
        assert cd.tost_variance_ratio(same, same.copy())["passes"]
        assert not cd.tost_mean(same, same + 0.1)["passes"]
        assert not cd.tost_variance_ratio(same, np.linspace(0, 1, 10))["passes"]

    def test_quantile_tost_passes_the_same_heavy_law_and_fails_a_shift_or_a_spread(self, cd):
        # Cauchy errors have no variance; the variance TOST cannot pass them.
        rng = np.random.default_rng(3)
        x, y = rng.standard_cauchy(2000), rng.standard_cauchy(2000)
        location, scale = cd.tost_quantiles(x, y)
        assert location["passes"] and scale["passes"]
        assert not cd.tost_variance_ratio(x, y)["passes"]
        assert not cd.tost_quantiles(x, y + 0.5)[0]["passes"]
        assert not cd.tost_quantiles(x, 1.5 * y)[1]["passes"]
        same = np.full(10, 0.5)
        assert all(t["passes"] for t in cd.tost_quantiles(same, same.copy()))

    def test_heavy_tailed_cells_follow_from_cell_and_config(self, cd):
        known_c, estimated_c = cd.CONFIGS["grid_fresh"], cd.CONFIGS["grid_fixed"]
        for measure in ("ingroup", "homophily"):
            assert cd.heavy_tailed(("node", 0.1, 1000, measure, "corrected"), known_c)
            assert not cd.heavy_tailed(("node", 0.1, 1000, measure, "uncorrected"), estimated_c)
        for measure in ("proportion", "visibility"):
            assert not cd.heavy_tailed(("node", 0.1, 1000, measure, "corrected"), known_c)
            assert cd.heavy_tailed(("node", 0.1, 1000, measure, "corrected"), estimated_c)
        assert not cd.heavy_tailed(("node", None, 1000, "ingroup", "no_noise"), estimated_c)

    def test_untestable_cell_passes_only_when_both_sides_are_short(self, cd):
        key = ("node", 0.1, 10, "ingroup", "corrected")
        short = {key: (np.array([0.1]), 9)}
        config = cd.CONFIGS["tiny"]
        assert cd.compare(short, {key: (np.array([]), 10)}, config)["passes"]
        assert not cd.compare(short, {key: (np.linspace(0, 1, 10), 0)}, config)["passes"]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_tree_against_its_own_head(tmp_path):
    # A copy of this tree committed as the HEAD of a new repository: both
    # sides run the same code on the same seeds, so every cell's errors
    # are the same sample and every KS statistic is 0. Six replications are
    # far too few for the TOSTs to pass, so the verdict is not asked for.
    # The control is the parent's replications 6-11 against its 0-5.
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src" / "graphquant", repo / "src" / "graphquant",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (repo / "scripts").mkdir()
    shutil.copy(SCRIPT, repo / "scripts")
    git = ["git", "-c", "user.name=test", "-c", "user.email=test@example.com", "-C", str(repo)]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "tree"]):
        subprocess.run(git + args, check=True)
    out = tmp_path / "cells.json"
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "compare_designs.py"), "--parent", "HEAD",
         "--config", "tiny", "--reps", "6", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode in (0, 1), proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["identical"]
    assert summary["cells"] == summary["tested"] == 4 * 2 * 4 * 5
    assert summary["ks_max"] == 0.0 and summary["holm_rejections"] == 0
    assert summary["heavy_tailed"] == 4 * 2 * 2 * 2  # corrected ingroup and homophily
    assert summary["control"]["tested"] == summary["tested"]
    assert not summary["control"]["identical"]
    cells = json.loads(out.read_text())["per_cell"]
    for c in cells:
        assert c["identical"] and c["ks"] == 0.0 and c["ks_p"] == 1.0
        assert c["location"]["diff"] == 0.0 and c["scale"]["ratio"] == 1.0

#!/usr/bin/env python3
"""Compare the grid's error distributions of two trees, cell by cell.

    python scripts/compare_designs.py --parent COMMIT --config grid_fixed --reps 2000

A change that moves every row's bytes (a new sampling design, say) is
equivalent to its parent only if each cell's errors keep their law. This
script exports the parent's tree with ``git archive`` under
``.perfbench_out/`` and runs each tree's own ``run_experiment`` in a child
process: the parent's, then this checkout's. Both run the same config over
the same master seeds: ``--reps`` replications in runs of at most
``CHUNK``, run j at master seed ``--seed + j``. With a fixed graph, each
run's seed builds its own graph, so the two trees must run the same
seeds: runs at other seeds average over other graphs.

The parent runs each run twice as long. Its first half of replications
is the sample the change is compared with; its second half, on the same
graphs and from disjoint random streams, is a control: the same tests
applied to the parent's two halves show how an identical design fares.
Only the comparison with the change decides the exit status.

A cell is (sampler, rate, size, measure, variant); no_noise cells are
the same at every rate, so they are compared once. For each cell the
errors of its rows that did not fail are compared by

- the two-sample Kolmogorov-Smirnov statistic D with its asymptotic
  p-value, Holm-corrected across cells at family level ``ALPHA``;
- two one-sided tests (TOST, Schuirmann 1987) at level ``ALPHA`` on
  location and on scale. Every cell must pass both, so the TOSTs need no
  multiplicity correction: together they are an intersection-union test
  (Berger, Technometrics 24:295, 1982).

Which location and scale a cell's TOSTs use is fixed by the cell, not by
its data. Errors with a finite variance are tested on the mean (margin
``MEAN_MARGIN`` pooled SDs) and the variance ratio (``VAR_MARGINS``).
Corrected in-group and homophily estimates divide by a corrected edge
share that can come near 0, and with C estimated from labeled nodes
(``confusion_from_labeled``) every corrected estimate divides by the
estimated det(C): those errors have no usable variance, and the variance
test fails there for any design. Such cells (``heavy_tailed``) are tested
on the median (margin ``MEAN_MARGIN`` robust SDs, IQR / 1.349) and the
IQR ratio (``IQR_MARGINS``), with bootstrap standard errors.

The margins are set so that an identical design passes. A TOST passes
when |estimate| + z SE stays inside the margin; with n replications a
side, the mean difference has SE sqrt(2/n) SDs, so a margin of 0.1 SD
cannot pass at 200 replications (0.1 - 1.645 * 0.1 < 0). At 2000 it is
0.032 SD, and a margin of 0.2 SD fails an identical design with
probability P(|Z| > 4.68), about 3e-6 per cell. The log IQR ratio has
SE 0.037 for normal errors and 0.050 for Cauchy ones at 2000 a side, so
IQR_MARGINS fail an identical design with probability under 1e-4 per
cell; the median's margin, about 7e-4 (normal) and 2e-5 (Cauchy). Errors
with a sharp peak and a long flat shoulder, as corrected homophily's
are, put a quartile where the density is low; their IQR is noisier, and
there an identical design can fail the scale test. The control shows
where.

The result is one JSON object on stdout: a summary that says whether
every cell passed and whether the two trees' error samples were
identical, with the failing cells, and the control's summary. ``--out``
also gets every cell's sample sizes, failure counts, statistics and
verdicts. Exits 0 when every cell passes, 1 otherwise. Needs numpy only.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

ALPHA = 0.05
MEAN_MARGIN = 0.2  # in pooled standard deviations
VAR_MARGINS = (0.75, 1.33)  # on the change's variance over the parent's
IQR_MARGINS = (0.75, 1.33)  # on the change's IQR over the parent's, in heavy-tailed cells
Z = 1.6448536269514722  # one-sided standard normal quantile at ALPHA
BOOTSTRAP = 400  # resamples per side for the quantile TOSTs' standard errors
CHUNK = 250  # replications per run_experiment call

_GRID = dict(
    samplers=["rwrw", "node", "edge", "snowball"],
    rates=[0.1, 0.2, 0.3],
    sample_sizes=[1000, 1500, 2000, 2500, 3000],
)
# The benchmark's grids at full scale, and a tiny one for the tests.
CONFIGS = {
    "grid_fresh": dict(graph=dict(n=10_000, m=4, minority_frac=0.2, ingroup_pref=0.8), **_GRID),
    "grid_fixed": dict(
        graph=dict(n=100_000, m=4, minority_frac=0.2, ingroup_pref=0.8),
        fixed_graph=True,
        seed_mode="uniform_with_burnin",
        burn_in=1000,
        confusion_from_labeled=200,
        **_GRID,
    ),
    "tiny": dict(
        graph=dict(n=600, m=4, minority_frac=0.2, ingroup_pref=0.8),
        samplers=_GRID["samplers"],
        rates=[0.1, 0.2],
        sample_sizes=[100, 200],
    ),
}


# ---------------------------------------------------------------- statistics


def ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Largest distance between the two empirical distribution functions."""
    x, y = np.sort(x), np.sort(y)
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / x.shape[0]
    fy = np.searchsorted(y, grid, side="right") / y.shape[0]
    return float(np.max(np.abs(fx - fy)))


def ks_pvalue(d: float, n: int, m: int) -> float:
    """Asymptotic two-sample p-value of D: Kolmogorov's limit law,
    P(K > sqrt(nm / (n + m)) D) = 2 sum_j (-1)^(j-1) exp(-2 j^2 t^2)."""
    t = math.sqrt(n * m / (n + m)) * d
    if t < 0.2:  # 100 terms need not converge below 0.2, and Q(0.2) = 1 - 5e-13
        return 1.0
    j = np.arange(1, 101)
    return float(np.clip(2.0 * np.sum((-1.0) ** (j - 1) * np.exp(-2.0 * j * j * t * t)), 0.0, 1.0))


def holm(pvalues: list[float], alpha: float = ALPHA) -> list[bool]:
    """Holm's step-down rejections at family level alpha, in input order."""
    m = len(pvalues)
    rejected = [False] * m
    for rank, i in enumerate(sorted(range(m), key=pvalues.__getitem__)):
        if pvalues[i] > alpha / (m - rank):
            break
        rejected[i] = True
    return rejected


def tost_mean(x: np.ndarray, y: np.ndarray) -> dict:
    """TOST on mean(y) - mean(x) against +-MEAN_MARGIN pooled SDs."""
    n, m = x.shape[0], y.shape[0]
    vx, vy = x.var(ddof=1), y.var(ddof=1)
    pooled = math.sqrt(((n - 1) * vx + (m - 1) * vy) / (n + m - 2))
    diff = float(y.mean() - x.mean())
    se = math.sqrt(vx / n + vy / m)
    margin = MEAN_MARGIN * pooled
    return {
        "diff": diff,
        "diff_sd": diff / pooled if pooled else 0.0,
        "passes": abs(diff) + Z * se < margin if pooled else diff == 0.0,
    }


def _log_var_se2(v: np.ndarray) -> float:
    """Variance of log s^2 for a sample of any kurtosis k: (k - (n-3)/(n-1)) / n."""
    n = v.shape[0]
    c = v - v.mean()
    m2 = np.mean(c * c)
    kurtosis = np.mean(c**4) / (m2 * m2)
    return float((kurtosis - (n - 3) / (n - 1)) / n)


def tost_variance_ratio(x: np.ndarray, y: np.ndarray) -> dict:
    """TOST on log(var(y) / var(x)) against the logs of VAR_MARGINS."""
    vx, vy = float(x.var(ddof=1)), float(y.var(ddof=1))
    if vx == 0.0 or vy == 0.0:
        return {"ratio": 1.0 if vx == vy else math.inf, "passes": vx == vy}
    log_ratio = math.log(vy / vx)
    se = math.sqrt(_log_var_se2(x) + _log_var_se2(y))
    lo, hi = (math.log(b) for b in VAR_MARGINS)
    return {"ratio": vy / vx, "passes": lo < log_ratio - Z * se and log_ratio + Z * se < hi}


def tost_quantiles(x: np.ndarray, y: np.ndarray) -> tuple[dict, dict]:
    """TOSTs for errors without a usable variance: on median(y) - median(x)
    against +-MEAN_MARGIN robust SDs (the mean of the two IQRs over 1.349,
    the IQR of a unit normal), and on log(IQR(y) / IQR(x)) against the logs
    of IQR_MARGINS. Standard errors come from BOOTSTRAP resamples a side."""
    rng = np.random.default_rng(0)

    def median_iqr(v):
        lo, med, hi = np.quantile(v, [0.25, 0.5, 0.75], axis=-1)
        return med, hi - lo

    (mx, ix), (my, iy) = median_iqr(x), median_iqr(y)
    (bmx, bix), (bmy, biy) = (median_iqr(v[rng.integers(0, v.shape[0], (BOOTSTRAP, v.shape[0]))])
                              for v in (x, y))
    diff = float(my - mx)
    robust_sd = (ix + iy) / 2 / 1.349
    se = math.sqrt(bmx.var() + bmy.var())
    location = {"test": "median", "diff": diff, "diff_sd": diff / robust_sd if robust_sd else 0.0,
                "passes": bool(abs(diff) + Z * se < MEAN_MARGIN * robust_sd if robust_sd else diff == 0.0)}
    if min(ix, iy, bix.min(), biy.min()) == 0.0:
        return location, {"test": "iqr", "ratio": 1.0 if ix == iy else math.inf,
                          "passes": bool(ix == iy == 0.0)}
    log_ratio = math.log(iy / ix)
    se = math.sqrt(np.log(bix).var() + np.log(biy).var())
    lo, hi = (math.log(b) for b in IQR_MARGINS)
    return location, {"test": "iqr", "ratio": iy / ix,
                      "passes": lo < log_ratio - Z * se and log_ratio + Z * se < hi}


def heavy_tailed(cell: tuple, config: dict) -> bool:
    """Whether a cell's errors lack a usable variance, from the cell and the
    config alone: corrected in-group and homophily errors, and every
    corrected error when C is estimated from labeled nodes."""
    measure, variant = cell[3], cell[4]
    return variant == "corrected" and (
        measure in ("ingroup", "homophily") or bool(config.get("confusion_from_labeled"))
    )


def compare(parent: dict, change: dict, config: dict) -> dict:
    """Per-cell tests of the change's errors against the parent's."""
    cells = []
    for key in sorted(parent, key=str):
        x, fx = parent[key]
        y, fy = change[key]
        cell = {"cell": list(key), "n": [x.shape[0], y.shape[0]], "failed": [fx, fy],
                "identical": bool(np.array_equal(x, y))}
        if min(x.shape[0], y.shape[0]) >= 2:
            d = ks_statistic(x, y)
            cell.update(ks=d, ks_p=ks_pvalue(d, x.shape[0], y.shape[0]))
            if heavy_tailed(key, config):
                cell["location"], cell["scale"] = tost_quantiles(x, y)
            else:
                cell["location"] = {"test": "mean", **tost_mean(x, y)}
                cell["scale"] = {"test": "variance", **tost_variance_ratio(x, y)}
        else:
            # Too few errors to test: a pass only when both trees have too few.
            cell["passes"] = max(x.shape[0], y.shape[0]) < 2
        cells.append(cell)
    tested = [c for c in cells if "ks" in c]
    for cell, rejected in zip(tested, holm([c["ks_p"] for c in tested])):
        cell["ks_rejected"] = rejected
        cell["passes"] = not rejected and cell["location"]["passes"] and cell["scale"]["passes"]
    failing = [c for c in cells if not c["passes"]]

    def ratio_range(test):
        ratios = [c["scale"]["ratio"] for c in tested if c["scale"]["test"] == test]
        return [min(ratios), max(ratios)] if ratios else None

    return {
        "cells": len(cells),
        "tested": len(tested),
        "heavy_tailed": sum(c["scale"]["test"] == "iqr" for c in tested),
        "identical": all(c["identical"] for c in cells),
        "ks_max": max((c["ks"] for c in tested), default=0.0),
        "ks_min_p": min((c["ks_p"] for c in tested), default=1.0),
        "holm_rejections": sum(c["ks_rejected"] for c in tested),
        "location_tost_failures": sum(not c["location"]["passes"] for c in tested),
        "scale_tost_failures": sum(not c["scale"]["passes"] for c in tested),
        "max_abs_diff_sd": max((abs(c["location"]["diff_sd"]) for c in tested), default=0.0),
        "variance_ratio_range": ratio_range("variance"),
        "iqr_ratio_range": ratio_range("iqr"),
        "passes": not failing,
        "failing_cells": failing,
        "per_cell": cells,
    }


# ---------------------------------------------------------------- trees


def export_tree(commit: str) -> Path:
    """The commit's tree, from ``git archive``, under ``.perfbench_out/``."""
    sha = subprocess.run(["git", "rev-parse", "--verify", commit + "^{commit}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    tree = OUT / f"compare-{sha[:12]}"
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    archive = tree / "tree.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", sha], cwd=ROOT, stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()
    return tree


def run_tree(src: Path, config: dict, reps: int, seed: int, copies: int, threads: int,
             out: Path) -> list[dict]:
    """Each cell's errors from ``src``'s own run_experiment, in a child
    process, as ``copies`` samples of ``reps`` replications: run j at seed
    ``seed + j`` runs ``copies`` times its share of replications, and copy h
    takes its h-th block, so every copy sees the same graphs."""
    spec = json.dumps({"config": config, "reps": reps, "seed": seed, "copies": copies,
                       "threads": threads})
    subprocess.run([sys.executable, __file__, "--child", str(src), spec, str(out)], check=True)
    with np.load(out) as data:
        keys = [tuple(k) for k in json.loads(str(data["keys"]))]
        return [{k: (data[f"e{h}_{i}"], int(data["failed"][h, i])) for i, k in enumerate(keys)}
                for h in range(copies)]


def child(src: str, spec: str, out: str) -> None:
    """Child side of ``run_tree``: run the grid with the tree's code and
    save each copy's errors per cell, in replication order, and its
    failed-row counts."""
    sys.path.insert(0, src)
    from graphquant.experiments import ExperimentConfig, run_experiment

    spec = json.loads(spec)
    copies = spec["copies"]
    errors: list[dict[tuple, list[float]]] = [{} for _ in range(copies)]
    failed: list[dict[tuple, int]] = [{} for _ in range(copies)]
    for j, start in enumerate(range(0, spec["reps"], CHUNK)):
        reps = min(CHUNK, spec["reps"] - start)
        cfg = ExperimentConfig.from_dict(
            {**spec["config"], "replications": copies * reps, "master_seed": spec["seed"] + j}
        )
        for row in run_experiment(cfg, threads=spec["threads"]).rows:
            if row.variant == "no_noise":
                if row.rate != cfg.rates[0]:
                    continue
                key = (row.sampler, None, row.size, row.measure, row.variant)
            else:
                key = (row.sampler, row.rate, row.size, row.measure, row.variant)
            h = row.rep // reps
            errors[h].setdefault(key, [])
            failed[h].setdefault(key, 0)
            if row.error is None or row.flags.startswith("failed"):
                failed[h][key] += 1
            else:
                errors[h][key].append(row.error)
    keys = list(errors[0])
    np.savez(out, keys=json.dumps(keys),
             failed=np.array([[f[k] for k in keys] for f in failed]),
             **{f"e{h}_{i}": np.array(e[k], dtype=float)
                for h, e in enumerate(errors) for i, k in enumerate(keys)})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        child(*argv[1:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare this checkout against")
    parser.add_argument("--config", required=True, choices=CONFIGS,
                        help="the benchmark's grids, or a tiny one")
    parser.add_argument("--reps", type=int, default=2000, help="replications per tree")
    parser.add_argument("--seed", type=int, default=0, help="master seed of the first run")
    parser.add_argument("--threads", type=int, default=1, help="worker processes per run")
    parser.add_argument("--out", type=Path, help="also write the JSON result here")
    args = parser.parse_args(argv)
    if args.reps < 2 or args.seed < 0:
        parser.error("need --reps >= 2 and --seed >= 0")
    config = CONFIGS[args.config]

    tree = export_tree(args.parent)
    parent, control = run_tree(tree / "src", config, args.reps, args.seed, 2, args.threads,
                               tree / "parent.npz")
    [change] = run_tree(ROOT / "src", config, args.reps, args.seed, 1, args.threads,
                        tree / "change.npz")
    result = {"parent": args.parent, "config": args.config, "reps": args.reps, "seed": args.seed,
              "chunk": CHUNK, "alpha": ALPHA, "mean_margin_sd": MEAN_MARGIN,
              "variance_margins": list(VAR_MARGINS), "iqr_margins": list(IQR_MARGINS),
              **compare(parent, change, config),
              "control": compare(parent, control, config)}
    if args.out:
        args.out.write_text(json.dumps(result))
    del result["per_cell"], result["control"]["per_cell"]
    print(json.dumps(result))
    return 0 if result["passes"] else 1


if __name__ == "__main__":
    sys.exit(main())

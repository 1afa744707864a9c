#!/usr/bin/env python3
"""Run the full simulation grid and write row + summary CSVs.

The grid is the reference one of ExperimentConfig's and GraphSpec's
defaults: all four samplers, misclassification rates 0/0.1/0.2/0.3 and
sample sizes 1000..3000 on 10,000-node graphs (minority fraction 0.2,
in-group preference 0.8). Then it prints a small table of corrected vs
uncorrected NRMSE per rate for the walk sampler.

The full grid at 500 replications takes a few minutes single-threaded;
--quick drops to at most 50 replications on 2,000-node graphs, with
sizes 200..600, for a fast look.
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graphquant.experiments import (
    MEASURES,
    ExperimentConfig,
    run_experiment,
    summarize,
    write_rows_csv,
    write_summary_csv,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="grid_output", help="output directory")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=ExperimentConfig.replications)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--quick", action="store_true", help="small graphs, 50 reps")
    args = parser.parse_args()

    cfg = ExperimentConfig(replications=args.reps, master_seed=args.seed)
    if args.quick:
        cfg = dataclasses.replace(
            cfg,
            graph=dataclasses.replace(cfg.graph, n=2000),
            sample_sizes=(200, 300, 400, 500, 600),
            replications=min(args.reps, 50),
        )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    result = run_experiment(cfg, threads=args.threads)
    summary = summarize(result)
    write_rows_csv(result, out_dir / "rows.csv")
    write_summary_csv(summary, out_dir / "summary.csv")
    print(f"{result.codes.size} rows in {time.time() - started:.0f}s -> {out_dir}/")

    top_size = max(cfg.sample_sizes)
    print(f"\nrwrw NRMSE at size {top_size} (corrected / uncorrected):")
    print(f"{'measure':<12}" + "".join(f"rate {r:<11}" for r in cfg.rates))
    for measure in MEASURES:
        cells = []
        for rate in cfg.rates:
            pair = {
                s.variant: s.nrmse
                for s in summary
                if s.sampler == "rwrw"
                and s.rate == rate
                and s.size == top_size
                and s.measure == measure
                and s.variant in ("corrected", "uncorrected")
            }
            cells.append(f"{pair['corrected']:.3f} / {pair['uncorrected']:.3f}")
        print(f"{measure:<12}" + "".join(f"{c:<16}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry points.

Subcommands: ``generate`` (emit a synthetic graph as edge + label files),
``truth`` (exact measures of a graph), ``walk`` (one random-walk sample
as an audit record file), ``correct`` (apply the confusion-matrix
corrections to supplied vectors), and ``experiment`` (full replicated
grid from a JSON config). Refused input exits with status 2 and one
line on stderr, ``graphquant: error: <message>``. A reader that closes
stdout early ends the command with status 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .experiments import (
    ExperimentConfig,
    GraphSpec,
    run_experiment,
    summarize,
    write_rows_csv,
    write_summary_csv,
)
from .graph import generate_homophilous_graph, load_graph_files, write_edge_list, write_label_file
from .noise import ConfusionMatrix, apply_noise, symmetric_confusion
from .quantify import (
    EdgeVector,
    PropVector,
    adjust_edge_proportions,
    adjust_proportions,
    variance_inflation_nodes,
)
from .samplers import (
    SEED_DEGREE,
    SEED_UNIFORM,
    ground_truth,
    rwrw_walk,
    with_noisy_labels,
    write_sample_records,
)


def _confusion_from_args(args) -> ConfusionMatrix:
    if args.matrix is not None and args.rate is not None:
        raise ValueError("give --rate or --matrix, not both")
    if args.matrix is not None:
        return ConfusionMatrix(*args.matrix)
    if args.rate is not None:
        return symmetric_confusion(args.rate)
    raise ValueError("provide --rate or --matrix")


def _cmd_generate(args) -> int:
    g = generate_homophilous_graph(
        args.n, args.m, args.minority_frac, args.ingroup_pref, args.seed
    )
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    edge_path = prefix.with_suffix(".edges")
    label_path = prefix.with_suffix(".labels")
    write_edge_list(g, edge_path)
    write_label_file(g, label_path)
    gt = ground_truth(g)
    print(
        f"wrote {edge_path} and {label_path}: n={g.node_count} "
        f"edges={g.edge_count} p_b={gt.p.b:.4f} mean_degree={g.mean_degree:.3f}"
    )
    return 0


def _cmd_truth(args) -> int:
    g = load_graph_files(args.edges, args.labels, directed=args.directed)
    gt = ground_truth(g, args.top_quantile)
    payload = {"nodes": g.node_count, "edges": g.edge_count, **gt.as_dict()}
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_walk(args) -> int:
    g = load_graph_files(args.edges, args.labels, directed=args.directed)
    seeds = np.random.SeedSequence(args.seed).spawn(2)
    sample = rwrw_walk(
        g, args.steps, seed_mode=args.seed_mode, burn_in=args.burn_in, rng_seed=seeds[0]
    )
    noisy = None
    if args.rate is not None or args.matrix is not None:
        confusion = _confusion_from_args(args)
        noisy = with_noisy_labels(sample, apply_noise(g.labels, confusion, seeds[1]))
    # The walk ran on dense ids; the audit file names nodes as the edge file does.
    sample = dataclasses.replace(sample, nodes=g.id_map[sample.nodes])
    write_sample_records(sample, args.out, noisy)
    print(f"wrote {args.out}: {len(sample)} steps over {np.unique(sample.nodes).size} nodes")
    return 0


def _cmd_correct(args) -> int:
    if args.prop is None and args.edge is None:
        raise ValueError("provide --prop and/or --edge")
    confusion = _confusion_from_args(args)
    payload: dict = {"matrix": confusion.to_flat(), "det": confusion.det}
    for key, values, vector_type, adjust in (
        ("proportions", args.prop, PropVector, adjust_proportions),
        ("edges", args.edge, EdgeVector, adjust_edge_proportions),
    ):
        if values is None:
            continue
        corrected = adjust(vector_type(*values), confusion)
        payload[key] = {**dataclasses.asdict(corrected), "out_of_range": corrected.out_of_range}
        if vector_type is PropVector:
            payload["variance_inflation"] = variance_inflation_nodes(confusion)
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    result = run_experiment(cfg, threads=args.threads)
    # Made once the grid has run, so a refused run leaves no directory.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows_path = out_dir / "rows.csv"
    summary_path = out_dir / "summary.csv"
    write_rows_csv(result, rows_path)
    write_summary_csv(summarize(result), summary_path)
    print(f"wrote {rows_path} ({result.codes.size} rows) and {summary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphquant",
        description="Group-property estimation on two-group graphs with "
        "confusion-matrix bias correction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic graph and label file")
    p.add_argument("--n", type=int, default=GraphSpec.n)
    p.add_argument("--m", type=int, default=GraphSpec.m)
    p.add_argument("--minority-frac", type=float, default=GraphSpec.minority_frac)
    p.add_argument("--ingroup-pref", type=float, default=GraphSpec.ingroup_pref)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("truth", help="exact measures of a graph by enumeration")
    p.add_argument("--edges", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--directed", action="store_true")
    p.add_argument("--top-quantile", type=float, default=ExperimentConfig.top_quantile)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_truth)

    p = sub.add_parser("walk", help="one random-walk sample as an audit record file")
    p.add_argument("--edges", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--directed", action="store_true")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed-mode", default=SEED_DEGREE, choices=(SEED_DEGREE, SEED_UNIFORM))
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--rate", type=float, help="symmetric misclassification rate")
    p.add_argument("--matrix", type=float, nargs=4, metavar=("AA", "AB", "BA", "BB"),
                   help="confusion matrix, 4 numbers row-major")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("correct", help="apply confusion-matrix corrections to vectors")
    p.add_argument("--rate", type=float)
    p.add_argument("--matrix", type=float, nargs=4, metavar=("AA", "AB", "BA", "BB"))
    p.add_argument("--prop", type=float, nargs=2, metavar=("A", "B"))
    p.add_argument("--edge", type=float, nargs=3, metavar=("AA", "AB", "BB"))
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("experiment", help="run a replicated grid from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the config master seed")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout, as ``| head`` does. Python's signal docs:
        # point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        parser.exit(2, f"graphquant: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())

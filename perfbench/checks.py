"""Checks on the files and graphs the program produces.

The grid checker reads ``rows.csv`` and ``summary.csv`` back from disk and
returns the replications whose rows are wrong, so that a failure is
counted per replication. It uses no graphquant code: the closed-form
inverse below is written out independently of ``adjust_proportions``.
"""

from __future__ import annotations

import csv
import hashlib
from collections import Counter
from pathlib import Path

MEASURES = ("proportion", "ingroup", "visibility", "homophily")
VARIANTS = ("no_noise", "uncorrected", "corrected")

# Corrected values come from one division of numbers of order one; any
# sound rewrite of the correction stays well inside this.
INVERSE_TOL = 1e-12
TRUTH_TOL = 1e-9


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _num(text: str) -> float | None:
    return float(text) if text else None


def symmetric_inverse(measured_b: float, rate: float) -> float:
    """Minority share before noise, given its measured share and a
    symmetric misclassification rate."""
    keep = 1.0 - rate
    return (measured_b * keep - (1.0 - measured_b) * rate) / (keep * keep - rate * rate)


class GridCheck:
    """Outcome of checking one grid's CSV files."""

    def __init__(self, reps: int) -> None:
        self.reps = reps
        self.failed_reps: set[int] = set()
        self.problems: list[str] = []
        self.flag_counts: Counter = Counter()  # (sampler, flag) -> rows

    def fail(self, rep: int | None, message: str) -> None:
        if rep is None or not 0 <= rep < self.reps:
            self.failed_reps.update(range(self.reps))
        else:
            self.failed_reps.add(rep)
        if len(self.problems) < 10:
            self.problems.append(message)


def check_grid(
    out_dir: Path,
    samplers,
    rates,
    sizes,
    reps: int,
    known_confusion: bool,
) -> GridCheck:
    """Check a grid's ``rows.csv`` and ``summary.csv``.

    - every (sampler, rate, size, rep, measure, variant) appears exactly once;
    - estimate minus error, the replication's truth, is the same on every
      row of one replication and measure;
    - with a known symmetric confusion matrix, the corrected proportion and
      visibility equal the closed-form inverse of the uncorrected ones;
    - the summary has one row per cell, each over all replications.
    """
    result = GridCheck(reps)
    rate_text = {repr(float(r)): float(r) for r in rates}
    expected = {
        (s, rt, str(z), rep, m, v)
        for s in samplers
        for rt in rate_text
        for z in sizes
        for rep in range(reps)
        for m in MEASURES
        for v in VARIANTS
    }
    seen: dict[tuple, dict] = {}
    with open(Path(out_dir) / "rows.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            try:
                rep = int(row["rep"])
            except (TypeError, ValueError):
                result.fail(None, f"unreadable rep in row {row}")
                continue
            key = (row["sampler"], row["rate"], row["size"], rep, row["measure"], row["variant"])
            if key not in expected:
                result.fail(rep, f"unexpected row {key}")
            elif key in seen:
                result.fail(rep, f"duplicate row {key}")
            else:
                seen[key] = row
            if row["flags"]:
                result.flag_counts[(row["sampler"], row["flags"])] += 1
    for key in expected - seen.keys():
        result.fail(key[3], f"missing row {key}")

    truths: dict[tuple, float] = {}
    for key, row in seen.items():
        try:
            estimate, error = _num(row["estimate"]), _num(row["error"])
        except ValueError:
            result.fail(key[3], f"unreadable number in {key}")
            continue
        if estimate is None or error is None:
            if not row["flags"].startswith("failed"):
                result.fail(key[3], f"empty estimate without a failure flag in {key}")
            continue
        truth = estimate - error
        first = truths.setdefault((key[3], key[4]), truth)
        # A huge corrected estimate leaves few digits of the truth in
        # estimate - error, so the tolerance scales with the estimate.
        if abs(truth - first) > TRUTH_TOL * max(1.0, abs(estimate)):
            result.fail(key[3], f"truth {truth!r} differs from {first!r} in {key}")

    if known_confusion:
        for (sampler, rt, size, rep, measure, variant), row in seen.items():
            if variant != "corrected" or measure not in ("proportion", "visibility"):
                continue
            raw = seen.get((sampler, rt, size, rep, measure, "uncorrected"))
            if raw is None:
                continue
            if not raw["estimate"]:
                if row["estimate"]:
                    result.fail(rep, f"corrected value without an uncorrected one at {sampler} {rt} {size} {rep} {measure}")
                continue
            try:
                want = symmetric_inverse(float(raw["estimate"]), rate_text[rt])
                got = float(row["estimate"])
            except ValueError:
                result.fail(rep, f"unreadable estimate at {sampler} {rt} {size} {rep} {measure}")
                continue
            if abs(got - want) > INVERSE_TOL:
                result.fail(rep, f"corrected {got!r} is not the inverse {want!r} at {sampler} {rt} {size} {rep} {measure}")

    cells = len(samplers) * len(rates) * len(sizes) * len(MEASURES) * len(VARIANTS)
    with open(Path(out_dir) / "summary.csv", newline="", encoding="utf-8") as fh:
        summary = list(csv.DictReader(fh))
    if len(summary) != cells:
        result.fail(None, f"summary has {len(summary)} rows, expected {cells}")
    bad = [s for s in summary if s.get("reps") != str(reps)]
    if bad:
        result.fail(None, f"summary cell {bad[0]} is not over {reps} replications")
    return result


def check_ingest(loaded, expected_path: Path) -> list[str]:
    """Problems with an ingested graph against the generated component."""
    import numpy as np
    from graphquant.graph import UndirectedGraph, graphs_equal

    want = np.load(expected_path)
    main = UndirectedGraph.from_edges(
        want["labels"].shape[0], want["edges"], want["labels"], check_connected=False
    )
    problems = []
    if not graphs_equal(loaded, main):
        problems.append("ingested graph differs from the generated component")
    if loaded.id_map is None or not np.array_equal(loaded.id_map, want["id_map"]):
        problems.append("ingested id map differs from the generated ids")
    return problems

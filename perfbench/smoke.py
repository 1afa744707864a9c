"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json at tiny sizes, traced and untraced,
and checks the result line against the metric lists. Then checks that the
output checker rejects corrupted copies of a grid's ``rows.csv`` and a
wrong ingested graph. Exits non-zero on the first failure.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import check_grid, check_ingest  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def run_workloads(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            expect(proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{workload}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace {trace}: {proc.stdout[-2000:]}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace {trace}: metrics {got} differ from BENCHMARK.json {want}")
            print(f"smoke: {workload} trace {trace} ok ({result['attempted']} operations)")


def corrupted(src: Path, dst: Path, edit) -> Path:
    """Copy a grid's output directory and apply edit(rows) to rows.csv."""
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    with open(src / "rows.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = [rows[0]] + edit(rows[1:])
    with open(dst / "rows.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return dst


def change_corrected(rows):
    for row in rows:
        if row[4] == "proportion" and row[5] == "corrected" and row[6]:
            row[6] = repr(float(row[6]) + 1e-6)
            row[7] = repr(float(row[7]) + 1e-6)
            return rows
    raise AssertionError("no corrected proportion row")


def change_error(rows):
    for row in rows:
        if row[4] == "ingroup" and row[5] == "no_noise" and row[7]:
            row[7] = repr(float(row[7]) + 0.01)
            return rows
    raise AssertionError("no ingroup row")


def check_checker() -> None:
    run.import_program()
    scale = run.SCALES["tiny"]
    cfg = run.grid_config("grid_fresh", scale, 7, 2)
    work = run.OUT / "smoke"
    clean = work / "clean"
    run.run_grid(cfg, 1, clean)

    def failures(out_dir: Path) -> set[int]:
        return check_grid(out_dir, cfg.samplers, cfg.rates, cfg.sample_sizes, 2, True).failed_reps

    expect(not failures(clean), "checker rejects a clean grid")
    cases = {
        "a corrected value off the inverse": change_corrected,
        "an error inconsistent with the truth": change_error,
        "a duplicated row": lambda rows: rows + rows[-1:],
        "a missing row": lambda rows: rows[:-1],
        "a renamed sampler": lambda rows: [["walk"] + rows[0][1:]] + rows[1:],
    }
    for name, edit in cases.items():
        bad = failures(corrupted(clean, work / "bad", edit))
        expect(bool(bad), f"checker accepts a rows.csv with {name}")
        print(f"smoke: checker rejects a rows.csv with {name} (replications {sorted(bad)})")

    from ingest_input import write_ingest_input
    from graphquant.graph import load_graph_files

    write_ingest_input(work / "ingest", 5, scale.ingest_nodes, scale.ingest_components, scale.ingest_leading)
    loaded = load_graph_files(work / "ingest" / "edges.txt", work / "ingest" / "labels.txt", directed=True)
    expect(not check_ingest(loaded, work / "ingest" / "expected.npz"), "checker rejects a correct ingest")
    loaded.labels[0] ^= 1
    expect(bool(check_ingest(loaded, work / "ingest" / "expected.npz")), "checker accepts a wrong label")
    print("smoke: checker rejects an ingested graph with a wrong label")
    shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_workloads(spec)
    check_checker()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

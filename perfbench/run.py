"""graphquant benchmark: replication grids and file ingest, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn, each in its own process.

One caller runs one operation at a time and starts the next when the
last has finished. A grid operation is what ``graphquant experiment``
does (``run_experiment``, ``summarize`` and both CSV writers) over a
batch of replications; an ingest operation is one ``load_graph_files``
call. Operations repeat until ``--seconds`` of operation time has been
measured. The inputs come from ``--seed`` alone.

Workloads (see README.md for why each exists):

- ``grid_fresh``: acceptance-grid shape, a new 10k-node graph per
  replication, one process, known confusion matrix.
- ``grid_fixed``: one 100k-node graph built in set-up, walks with burn-in,
  confusion matrix estimated from labeled nodes, one process.
- ``grid_fresh_2p``: ``grid_fresh``'s inputs on two processes.
- ``ingest``: a directed edge list of 100k-node power-law component plus
  debris, written in set-up by a separate process.

Every output is checked (see checks.py). The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` count
operations (replications, or ingests), and ``metrics`` holds the
end-to-end metrics with ``--trace 0`` and the per-layer metrics, from
traced operations interleaved with untraced ones, with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("grid_fresh", "grid_fixed", "grid_fresh_2p", "ingest")
SETUP_ROUNDS = 3
# Operation seeds are seed * SEED_STRIDE + index; set-up uses the top of
# each block so its replications never coincide with timed ones.
SEED_STRIDE = 1000
SETUP_SEED_OFFSET = 900


@dataclass(frozen=True)
class Scale:
    fresh_nodes: int
    fixed_nodes: int
    sizes: tuple[int, ...]
    fresh_reps: int
    fixed_reps: int
    burn_in: int
    labeled: int
    ingest_nodes: int
    ingest_components: int
    ingest_leading: int


SCALES = {
    "full": Scale(
        fresh_nodes=10_000, fixed_nodes=100_000, sizes=(1000, 1500, 2000, 2500, 3000),
        fresh_reps=8, fixed_reps=4, burn_in=1000, labeled=200,
        ingest_nodes=100_000, ingest_components=2000, ingest_leading=60,
    ),
    # Small enough for the smoke test; same code paths.
    "tiny": Scale(
        fresh_nodes=600, fixed_nodes=2000, sizes=(100, 200),
        fresh_reps=2, fixed_reps=2, burn_in=50, labeled=40,
        ingest_nodes=2000, ingest_components=60, ingest_leading=5,
    ),
}


def import_program():
    """Import graphquant from this checkout's ``src``, never from elsewhere."""
    init = SRC / "graphquant" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"graphquant sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphquant

    if Path(graphquant.__file__).resolve() != init.resolve():
        raise SystemExit(f"imported graphquant from {graphquant.__file__}, not {init}")
    return graphquant


# ---------------------------------------------------------------- grids


def grid_config(workload: str, scale: Scale, master_seed: int, reps: int):
    from graphquant.experiments import ExperimentConfig, GraphSpec

    common = dict(
        samplers=("rwrw", "node", "edge", "snowball"),
        rates=(0.1, 0.2, 0.3),
        sample_sizes=scale.sizes,
        replications=reps,
        master_seed=master_seed,
    )
    if workload == "grid_fixed":
        return ExperimentConfig(
            graph=GraphSpec(n=scale.fixed_nodes, m=4, minority_frac=0.2, ingroup_pref=0.8),
            fixed_graph=True,
            seed_mode="uniform_with_burnin",
            burn_in=scale.burn_in,
            confusion_from_labeled=scale.labeled,
            **common,
        )
    return ExperimentConfig(
        graph=GraphSpec(n=scale.fresh_nodes, m=4, minority_frac=0.2, ingroup_pref=0.8),
        **common,
    )


def threads_for(workload: str) -> int:
    return 2 if workload == "grid_fresh_2p" else 1


def run_grid(cfg, threads: int, out_dir: Path, tracer=None):
    """What ``graphquant experiment`` does: run, summarize, write both CSVs."""
    from graphquant.experiments import (
        run_experiment,
        summarize,
        write_rows_csv,
        write_summary_csv,
    )

    from tracing import RUN, SUMMARIZE, WRITE_CSV

    call = tracer.call if tracer else untraced_call
    out_dir.mkdir(parents=True, exist_ok=True)
    result = call(RUN, run_experiment, cfg, threads=threads)
    summary = call(SUMMARIZE, summarize, result)
    call(WRITE_CSV, write_rows_csv, result, out_dir / "rows.csv")
    call(WRITE_CSV, write_summary_csv, summary, out_dir / "summary.csv")
    return result


def untraced_call(name, fn, *args, **kwargs):
    """``Tracer.call`` without the span."""
    return fn(*args, **kwargs)


def timed(tracer, rss: "PeakRss", fn, *args):
    """Run one operation with memory sampling on and, when tracing, the
    program's functions wrapped. Returns (result, exception, seconds)."""
    with tracer.installed() if tracer else nullcontext():
        rss.active.set()
        start = time.perf_counter()
        try:
            return fn(*args), None, time.perf_counter() - start
        except Exception as exc:  # an operation that raises counts as failed
            return None, exc, time.perf_counter() - start
        finally:
            rss.active.clear()


def grid_setup_round(workload: str, seed: int, scale_name: str, out_dir: str) -> float:
    """One set-up round: config, graph build (fixed graph) and a warm-up grid."""
    import_program()
    scale = SCALES[scale_name]
    start = time.perf_counter()
    if workload == "grid_fixed":
        # Same master seed as the timed grids: the warm-up builds the
        # fixed graph they reuse.
        cfg = grid_config(workload, scale, seed * SEED_STRIDE, 1)
    else:
        # One replication per worker process.
        reps = threads_for(workload)
        cfg = grid_config(workload, scale, seed * SEED_STRIDE + SETUP_SEED_OFFSET, reps)
    run_grid(cfg, threads_for(workload), Path(out_dir))
    return time.perf_counter() - start


# ---------------------------------------------------------------- ingest


def ingest_setup_round(seed: int, scale_name: str, out_dir: str) -> float:
    """One set-up round: generate and write the ingest input files."""
    import_program()
    from ingest_input import write_ingest_input

    scale = SCALES[scale_name]
    start = time.perf_counter()
    write_ingest_input(
        Path(out_dir), seed, scale.ingest_nodes, scale.ingest_components, scale.ingest_leading
    )
    return time.perf_counter() - start


SETUP_ROUND_FNS = {fn.__name__: fn for fn in (grid_setup_round, ingest_setup_round)}


def in_child(fn, *args) -> float:
    """Run set-up round fn(*args) in a fresh Python process, wait until it
    has ended, and return the seconds it reports. A plain child process,
    not a multiprocessing one, so that no helper process outlives the run."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-round", fn.__name__, json.dumps(args)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, check=True, timeout=600,
    )
    return float(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------- memory


class PeakRss:
    """Peak resident memory of this process plus its child processes,
    sampled by a background thread while ``active`` is set."""

    INTERVAL_S = 0.002

    def __init__(self) -> None:
        self.peak_bytes = 0
        self.active = threading.Event()
        self._stop = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _rss(self, pid) -> int:
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                return int(fh.read().split()[1]) * self._page
        except (FileNotFoundError, ProcessLookupError, IndexError, ValueError):
            return 0

    def _children(self) -> list[str]:
        pids: list[str] = []
        for task in os.listdir("/proc/self/task"):
            try:
                with open(f"/proc/self/task/{task}/children", "rb") as fh:
                    pids.extend(fh.read().decode().split())
            except FileNotFoundError:
                continue
        return pids

    def sample(self) -> None:
        total = self._rss("self") + sum(self._rss(pid) for pid in self._children())
        self.peak_bytes = max(self.peak_bytes, total)

    def _run(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            if self.active.is_set():
                self.sample()

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


# ---------------------------------------------------------------- stamp


def git_commit() -> str:
    """Commit of the checkout from ``.git``, or a note when there is none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def source_digest() -> str:
    """sha256 over the program's source files, path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------- runs


class Run:
    """Operations, failures and outputs of one benchmark run."""

    def __init__(self, workload: str, seed: int, scale: Scale, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Keyed by whether the operations were traced.
        self.op_rates: dict[bool, list[float]] = {False: [], True: []}  # per operation, units/s
        self.units: dict[bool, int] = {False: 0, True: 0}
        self.seconds: dict[bool, float] = {False: 0.0, True: 0.0}
        self.notes: dict = {}

    def record(self, traced: bool, units: int, seconds: float, failed: int, problems) -> None:
        self.attempted += units
        self.failed += failed
        self.problems.extend(problems[: max(0, 10 - len(self.problems))])
        self.op_rates[traced].append(units / seconds)
        self.units[traced] += units
        self.seconds[traced] += seconds

    @property
    def op_seconds(self) -> float:
        return self.seconds[False] + self.seconds[True]

    def rate(self, traced: bool) -> float:
        """Units of work completed per second of operation time."""
        return self.units[traced] / self.seconds[traced] if self.seconds[traced] else 0.0


def grid_op(run: Run, index: int, tracer, rss: PeakRss) -> None:
    from checks import check_grid, sha256

    workload = run.workload
    fixed = workload == "grid_fixed"
    reps = run.scale.fixed_reps if fixed else run.scale.fresh_reps
    # Every grid_fixed operation reuses the set-up graph, so shares its seed.
    master = run.seed * SEED_STRIDE + (0 if fixed else index)
    cfg = grid_config(workload, run.scale, master, reps)
    out_dir = run.work / "grid"
    threads = threads_for(workload)

    result, exc, seconds = timed(tracer, rss, run_grid, cfg, threads, out_dir, tracer)
    if exc is not None:
        run.record(tracer is not None, reps, seconds, reps, [f"grid raised {exc!r}"])
        return

    if tracer is not None:
        tracer.counts["rows"] += len(result.rows)
        tracer.counts["rows_failed"] += sum(r.flags.startswith("failed") for r in result.rows)
    check = check_grid(
        out_dir, cfg.samplers, cfg.rates, cfg.sample_sizes, reps,
        known_confusion=cfg.confusion_from_labeled is None,
    )
    hashes = {"rows.csv": sha256(out_dir / "rows.csv"), "summary.csv": sha256(out_dir / "summary.csv")}
    if index == 0:
        run.notes["op0"] = {
            "master_seed": master,
            "replications": reps,
            "sha256": hashes,
            "flags": {f"{s} {f}": n for (s, f), n in sorted(check.flag_counts.items())},
        }
    elif fixed and hashes != run.notes["op0"]["sha256"]:
        check.fail(None, f"grid_fixed operation {index} wrote other bytes than operation 0")
    run.record(tracer is not None, reps, seconds, len(check.failed_reps), check.problems)


def grid_reference_check(run: Run) -> None:
    """grid_fresh_2p must write the same bytes as grid_fresh at one seed."""
    from checks import sha256

    op0 = run.notes.get("op0")
    if op0 is None:
        return
    cfg = grid_config("grid_fresh", run.scale, op0["master_seed"], op0["replications"])
    out_dir = run.work / "reference"
    run_grid(cfg, 1, out_dir)
    ref = {"rows.csv": sha256(out_dir / "rows.csv"), "summary.csv": sha256(out_dir / "summary.csv")}
    if ref != op0["sha256"]:
        run.failed += op0["replications"]
        run.problems.append("two-process CSVs differ from the one-process CSVs")
    run.notes["one_process_sha256"] = ref


def ingest_op(run: Run, index: int, tracer, rss: PeakRss) -> None:
    from graphquant.graph import load_graph_files

    from checks import check_ingest
    from tracing import INGEST

    edges, labels = run.work / "input" / "edges.txt", run.work / "input" / "labels.txt"
    call = tracer.call if tracer else untraced_call
    loaded, exc, seconds = timed(tracer, rss, call, INGEST, load_graph_files, edges, labels, True)
    if exc is not None:
        run.record(tracer is not None, 1, seconds, 1, [f"ingest raised {exc!r}"])
        return
    problems = check_ingest(loaded, run.work / "input" / "expected.npz")
    run.record(tracer is not None, 1, seconds, 1 if problems else 0, problems)


def run_all(args) -> int:
    """Every workload in turn, each in its own process, with its lines
    prefixed by the workload name. Exits non-zero if any run fails."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        for line in lines:
            print(f"{workload}: {line}", flush=True)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{workload}: FAILED (exit {proc.returncode}) {proc.stderr[-2000:]}")
            status = 1
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--setup-round"]:
        # Child side of ``in_child``.
        print(repr(SETUP_ROUND_FNS[argv[1]](*json.loads(argv[2]))))
        return 0
    parser = argparse.ArgumentParser(description="graphquant benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if args.workload == "all":
        return run_all(args)

    import_program()
    sys.path.insert(0, str(HERE))
    from tracing import Tracer

    scale = SCALES[args.scale]
    trace = bool(args.trace)
    # Wrapped functions inside pool workers record nothing here, so the
    # per-layer numbers of grid_fresh_2p are those of grid_fresh.
    workload = "grid_fresh" if trace and args.workload == "grid_fresh_2p" else args.workload
    work = OUT / f"{args.workload}-{args.seed}-{args.scale}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, args.seed, scale, work)
    info = stamp(args.workload, args.seed, args.seconds, trace)
    info["traced_workload"] = workload if trace else None
    print("stamp " + json.dumps(info), flush=True)

    # Set-up. Rounds that would leave a graph cached in this process run in
    # a fresh child process; the ingest input is always written by a child, so
    # that its memory never counts toward this process.
    setup_times = []
    if workload == "ingest":
        for _ in range(SETUP_ROUNDS):
            setup_times.append(in_child(ingest_setup_round, args.seed, args.scale, str(work / "input")))
        op, units_name = ingest_op, "ingest"
    else:
        for _ in range(SETUP_ROUNDS - 1):
            setup_times.append(in_child(grid_setup_round, workload, args.seed, args.scale, str(work / "warmup")))
        setup_times.append(grid_setup_round(workload, args.seed, args.scale, str(work / "warmup")))
        op, units_name = grid_op, "replication"

    tracer = Tracer() if trace else None
    with PeakRss() as rss:
        index = 0
        while index == 0 or run.op_seconds < args.seconds or (trace and not run.op_rates[True]):
            # A traced run alternates untraced and traced operations, so the
            # two see the same machine state and their ratio is the overhead.
            op(run, index, tracer if trace and index % 2 == 1 else None, rss)
            index += 1
    if workload == "grid_fresh_2p":
        grid_reference_check(run)

    untraced = run.rate(False)
    summary = {
        "setup_rounds_s": setup_times,
        "operations": index,
        "op_seconds": run.op_seconds,
        "ops_per_s_untraced": run.op_rates[False],
        "ops_per_s_traced": run.op_rates[True],
        "problems": run.problems,
        **run.notes,
    }
    if trace:
        layers = tracer.layer_metrics(run.units[True])
        traced = run.rate(True)
        overhead = 1.0 - traced / untraced if untraced else 0.0
        layers["trace.overhead_share"] = (overhead, "share")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        tracer.dump(work / "trace.json")
        print(f"trace {args.workload}: {len(tracer.spans)} spans in {work / 'trace.json'}; "
              f"overhead {overhead:.3%} ({traced:.4g} vs {untraced:.4g} {units_name}s/s)")
    else:
        metrics = {
            "ops_per_s": {"value": untraced, "unit": "1/s"},
            "peak_rss_mb": {"value": rss.peak_bytes / 2**20, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }

    # Human-readable lines, one per figure, before the result line.
    print(f"workload {workload} seed {args.seed}: {index} operations of "
          f"{units_name}s, {run.op_seconds:.2f} s measured")
    if workload == "ingest":
        import numpy as np

        records = int(np.load(work / "input" / "expected.npz")["records"])
        print(f"ingest_records_per_s {untraced * records:.6g} records/s ({records} records per ingest)")
    else:
        print(f"reps_per_s {untraced:.6g} 1/s")
        for name, digest in run.notes.get("op0", {}).get("sha256", {}).items():
            print(f"sha256 {name} {digest}")
        for key, count in run.notes.get("op0", {}).get("flags", {}).items():
            print(f"flag {key} {count}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    failed_share = run.failed / run.attempted if run.attempted else 1.0
    print(f"failed_share {failed_share:.6g} share ({run.failed} of {run.attempted} operations)")
    for problem in run.problems:
        print(f"problem {problem}")

    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"stamp": info, "metrics": metrics, "failed_share": failed_share, **summary}, fh, indent=1)
    for scratch in ("grid", "reference", "warmup"):
        shutil.rmtree(work / scratch, ignore_errors=True)

    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

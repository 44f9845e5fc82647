"""Benchmark of ivbounds: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload d3-ours-k8 --seed 0 --seconds 50 --trace 0

With ``--trace 0`` it repeats the workload for about ``--seconds`` seconds
(at least once) and reports medians over the repetitions, plus ``setup_s``,
the median wall time of a fresh interpreter importing ``ivbounds.cli``.
With ``--trace 1`` it runs the workload once untraced and once with every
layer's public functions wrapped, and reports per-layer metrics.

Every run's outputs are checked (see ``workloads.check_run``). The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
environment, each run's ``bounds.csv`` sha256 and any problems found. The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: pool workers would otherwise
# oversubscribe the cores.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WARM_UP = {"n": 300, "overrides": {"max_epochs": 1}}
SETUP_SAMPLES = 11


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter that imports ivbounds.cli
    (after one unmeasured import that may write bytecode caches)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ivbounds.cli"], env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples[1:])


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_PIN,
        "seed": seed,
    }


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + child.ru_utime + child.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def warm_up(name: str, seed: int, execute) -> None:
    """One untimed pass over a tiny configuration of the workload, so that
    lazy imports and first-call costs land before timing starts (without it
    the first timed repetition was the slowest in 4 of 5 runs)."""
    out = Path(tempfile.mkdtemp(dir=WORK))
    try:
        execute(name, seed, out, **WARM_UP)
    finally:
        shutil.rmtree(out, ignore_errors=True)


class Repetition:
    """One timed execution of the workload with its checked outputs."""

    def __init__(self, name: str, seed: int, execute):
        out = Path(tempfile.mkdtemp(dir=WORK))
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            self.checks = execute(name, seed, out)
            self.error = None
        except Exception:  # a failing run is reported, not fatal
            self.checks = []
            self.error = traceback.format_exc()
        finally:
            self.wall = time.perf_counter() - t0
            self.cpu = cpu_seconds() - cpu0
            shutil.rmtree(out, ignore_errors=True)

    @property
    def problems(self) -> list[str]:
        if self.error is not None:
            return [self.error.strip().splitlines()[-1]]
        return [p for c in self.checks for p in c.problems]


def summarize(reps: list[Repetition], runs_per_rep: int) -> tuple[dict, int, int, list[str]]:
    """Run records of the first repetition, plus attempted/failed counts and
    problems over all repetitions (a rep that raised fails all its runs)."""
    problems: list[str] = []
    failed = 0
    for rep in reps:
        problems += rep.problems
        failed += runs_per_rep if rep.error else sum(1 for c in rep.checks if c.problems)
    hashes = {tuple(c.bounds_sha256 for c in rep.checks) for rep in reps if not rep.error}
    if len(hashes) > 1:
        problems.append("bounds.csv differs between repetitions of the same seed")
        failed = max(failed, 1)
    first = next((rep for rep in reps if not rep.error), None)
    runs = [vars(c) for c in first.checks] if first else []
    return {"runs": runs}, runs_per_rep * len(reps), failed, problems


def main(argv=None) -> int:
    if not (SRC / "ivbounds" / "__init__.py").is_file():
        print(f"no ivbounds source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    from spans import Recorder

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    runs_per_rep = len(workloads.WORKLOADS[args.workload].runs)
    WORK.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)
    tempfile.tempdir = None
    try:
        warm_up(args.workload, args.seed, workloads.execute)
        if args.trace:
            untraced = Repetition(args.workload, args.seed, workloads.execute)
            recorder = Recorder(worker_dir=tempfile.mkdtemp(dir=WORK))
            with layers.instrumented(recorder):
                with recorder.span("workload", workload=args.workload) as root:
                    traced = Repetition(args.workload, args.seed, workloads.execute)
            reps = [untraced, traced]
            details, attempted, failed, problems = summarize(reps, runs_per_rep)
            sweeps = [s for s in recorder.spans if s.name == "experiments.run_sweep" and s.attrs["jobs"] > 1]
            if sweeps and recorder.worker_spans == 0:
                problems.append("no spans were collected from the pool workers")
                failed = max(failed, 1)
            values = layers.layer_metrics(recorder, root, untraced.wall)
        else:
            setup = setup_seconds()
            reps = []
            start = time.perf_counter()
            while True:
                reps.append(Repetition(args.workload, args.seed, workloads.execute))
                elapsed = time.perf_counter() - start
                if reps[-1].error or elapsed + reps[-1].wall > args.seconds:
                    break
            details, attempted, failed, problems = summarize(reps, runs_per_rep)
            runs = details["runs"]
            values = {
                "run_s": (statistics.median(r.wall for r in reps), "s"),
                "cpu_s": (statistics.median(r.cpu for r in reps), "s"),
                "setup_s": (setup, "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
                "coverage": (min((r["coverage"] for r in runs if r["method"] == "ours"), default=0.0), "share"),
            }
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    details.update(workload=args.workload, env=environment(args.seed), problems=problems,
                   rep_wall_s=[r.wall for r in reps], rep_cpu_s=[r.cpu for r in reps])
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()},
    }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

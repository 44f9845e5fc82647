"""The benchmark's workloads and the checks every run's outputs must pass.

Each workload drives ``ivbounds`` only through ``experiments.run_experiment``
and ``experiments.run_sweep`` (plus ``aggregate_table`` for the sweep), with
artifacts written to a directory as ``ivbounds run`` writes them.

Runs use the default training configuration, so early stopping decides how
much work a run does and that amount depends on the seed. A fixed epoch
budget would make the work seed-independent, but at 10 epochs per fit three
of seeds 400-406 gave a d2/ours/k3 coverage below 0.95 that the default
configuration does not (for example 0.8738 against 1.0 at seed 402).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ivbounds import bounds, experiments

N = 2000
JOBS = min(2, os.cpu_count() or 1)
MIN_OURS_COVERAGE = 0.95


@dataclass(frozen=True)
class Workload:
    """Runs of one workload; why each was chosen is in BENCHMARK.json."""

    name: str
    runs: tuple[tuple[int, str, int], ...]  # (dataset, method, k)

    @property
    def sweep(self) -> bool:
        return len(self.runs) > 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("d3-ours-k8", ((3, "ours", 8),)),
        Workload("d2-table1-sweep", ((2, "naive", 2), (2, "naive", 3), (2, "ours", 2), (2, "ours", 3))),
    )
}


@dataclass
class RunCheck:
    """Outputs of one run and what was wrong with them."""

    dataset: int
    method: str
    k: int
    coverage: float
    mean_width: float
    bounds_sha256: str
    problems: list[str] = field(default_factory=list)


def run_dir(root: Path, dataset: int, method: str, k: int, seed: int) -> Path:
    return root / f"d{dataset}_{method}_k{k}_seed{seed}"


def check_run(report, directory: Path) -> RunCheck:
    """Finite, non-crossing bounds on disk; ours covers at least 95%."""
    raw = (directory / "bounds.csv").read_bytes()
    pair = bounds.BoundPair.from_csv(directory / "bounds.csv")
    check = RunCheck(report.dataset, report.method, report.k, float(report.coverage),
                     float(report.mean_width), hashlib.sha256(raw).hexdigest())
    tag = f"d{report.dataset}/{report.method}/k{report.k}"
    if not (np.all(np.isfinite(pair.lower)) and np.all(np.isfinite(pair.upper))):
        check.problems.append(f"{tag}: non-finite bounds")
    elif np.any(pair.lower > pair.upper):
        check.problems.append(f"{tag}: {int(np.sum(pair.lower > pair.upper))} crossing bounds")
    if not (np.isfinite(check.coverage) and np.isfinite(check.mean_width)):
        check.problems.append(f"{tag}: non-finite coverage or width")
    if report.method == "ours" and not check.coverage >= MIN_OURS_COVERAGE:
        check.problems.append(f"{tag}: coverage {check.coverage} below {MIN_OURS_COVERAGE}")
    return check


def execute(name: str, seed: int, out_root: Path, n: int = N,
            overrides: dict | None = None) -> list[RunCheck]:
    """Run one repetition of a workload and check every run's outputs."""
    workload = WORKLOADS[name]
    runs = [(d, m, k, seed, n, run_dir(out_root, d, m, k, seed), overrides) for d, m, k in workload.runs]
    if workload.sweep:
        reports = experiments.run_sweep(runs, jobs=JOBS)
    else:
        reports = [experiments.run_experiment(*runs[0])]
    checks = [check_run(report, run[5]) for report, run in zip(reports, runs)]
    if workload.sweep:
        by_run = {(d, m, k, seed): bounds.BoundPair.from_csv(run_dir(out_root, d, m, k, seed) / "bounds.csv")
                  for d, m, k in workload.runs}
        rows = experiments.aggregate_table(reports, by_run)
        if len(rows) != len(workload.runs) or not all(
                np.isfinite(r.coverage_mean) and np.isfinite(r.width_mean) for r in rows):
            checks[0].problems.append("aggregate_table: missing or non-finite rows")
    return checks


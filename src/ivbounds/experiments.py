"""End-to-end experiment runner: single runs, seed sweeps, table builds.

A run is fully determined by (dataset, method, k, seed, n, training
config); every artifact directory carries a manifest with the config hash
and package version. Its byte-reproducible artifacts (``bounds.csv``,
checkpoints, ``train_log.csv``, ``metrics.json``, ``metrics.txt``) hold no
wall time; the runtime goes to ``metrics.trace.json`` only.

Processes: ``run_experiment`` runs in the calling process and spreads the
independent restarts of each fit over the usable CPUs (see ``parallel``).
``run_sweep(jobs > 1)`` spreads whole runs over ``min(jobs, len(runs))``
processes through the same ``parallel.map_tasks``; pools never nest, so the
restarts inside each of those runs train serially. Every run draws only
from its own seeded streams, so the artifacts are the same bytes for every
``jobs`` value and worker count. They are fixed per BLAS thread count, not
across counts: OpenBLAS sums some matrix products (the bound aggregates
over all aggregation samples) in another order on 1 and on 2 threads, so a
bound can move in the last bits when that count changes. The seed-0 golden
test compares bounds at rtol 1e-12, which absorbs that drift.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, bounds, data, metrics, naive, nuisance, parallel, partition
from .nets import TrainConfig, save_checkpoint

MASS_FLOOR = 0.01

TABLE_GRIDS = {
    1: {"datasets": (1, 2), "ks": (2, 3), "methods": ("naive", "ours")},
    2: {"datasets": (3,), "ks": (2, 4, 6, 8), "methods": ("naive", "ours")},
}


def config_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def write_manifest(directory: Path, command: str, payload: dict) -> None:
    manifest = {
        "command": command,
        "package_version": __version__,
        "config": payload,
        "config_sha256": config_hash(payload),
    }
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _train_config(seed: int, k: int, overrides: dict | None) -> TrainConfig:
    config = TrainConfig(seed=seed, k=k)
    if overrides:
        config = replace(config, **overrides)
    return config


def run_experiment(dataset: int, method: str, k: int, seed: int, n: int = 2000,
                   out_dir: Path | str | None = None, overrides: dict | None = None) -> metrics.MetricsReport:
    """One (dataset, method, k, seed) run; writes artifacts when out_dir given."""
    start = time.perf_counter()
    config = _train_config(seed, k, overrides)
    batch = data.generate_dataset(dataset, n, seed)
    split = data.split_dataset(batch, seed)
    rng_range = data.outcome_range_from_train(split.train)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    extra: dict = {"outcome_range": [rng_range.s1, rng_range.s2]}
    if method == "ours":
        nuis = nuisance.fit_nuisances(split, config)
        net, rows, stage2 = partition.train_partition(split, nuis, config, rng_range)
        pair, diag = partition.evaluate_bounds(net, nuis, split, rng_range)
        extra["stage2_restart"] = stage2.restart
        extra["stage2_val_total"] = stage2.val_total
        if out is not None:
            partition.write_train_log_csv(rows, out / "train_log.csv")
            save_checkpoint(nuis.mu, out / "mu.ckpt")
            save_checkpoint(nuis.pi, out / "pi.ckpt")
            save_checkpoint(nuis.eta, out / "eta.ckpt")
            save_checkpoint(net, out / "partition.ckpt")
    elif method == "naive":
        fit = naive.fit_naive(split, k, config)
        pair, diag = naive.naive_bounds(fit, split.test, rng_range)
        extra["kmeans_inertia"] = fit.kmeans.inertia
        extra["nuisance_architecture"] = {
            "mu": fit.mu.meta()["spec"],
            "pi": fit.pi.meta()["spec"],
        }
        if out is not None:
            save_checkpoint(fit.mu, out / "mu.ckpt")
            save_checkpoint(fit.pi, out / "pi.ckpt")
            np.savetxt(out / "kmeans_centroids.csv", fit.kmeans.centroids, delimiter=",", fmt="%.17g")
    elif method == "oracle":
        if dataset != 3:
            raise ValueError("oracle bounds are defined for dataset 3 only")
        pair = metrics.oracle_bounds_dataset3(split.test.x, rng_range)
        diag = {"cell_masses": data.rho_level_probs(), "min_cell_mass": float(data.rho_level_probs().min())}
    else:
        raise ValueError(f"unknown method {method!r}")

    tau = split.test.tau_true
    report = metrics.MetricsReport(
        dataset=dataset,
        method=method,
        k=k if method != "oracle" else 6,
        seed=seed,
        coverage=metrics.coverage(pair, tau),
        mean_width=metrics.mean_width(pair),
        crossing_rate=metrics.crossing_rate(pair),
        min_cell_mass=diag["min_cell_mass"],
        mass_floor_violated=bool(diag["min_cell_mass"] < MASS_FLOOR),
        extra=extra,
    )
    if dataset == 3 and method in ("ours", "naive"):
        oracle_pair = metrics.oracle_bounds_dataset3(split.test.x, rng_range)
        report.oracle_mse, report.oracle_coverage = metrics.oracle_comparison(pair, oracle_pair)
    report.runtime_seconds = time.perf_counter() - start
    if out is not None:
        pair.to_csv(out / "bounds.csv")
        report.to_json(out / "metrics.json")
        (out / "metrics.txt").write_text(replace(report, runtime_seconds=None).render_text())
        write_manifest(out, "run", {
            "dataset": dataset, "method": method, "k": k, "seed": seed, "n": n,
            "train": asdict(config),
        })
    return report


def run_sweep(runs: list[tuple], jobs: int = 1) -> list[metrics.MetricsReport]:
    """Execute (dataset, method, k, seed, n, out_dir, overrides) tuples over
    at most ``jobs`` processes; reports come back in run order."""
    return parallel.map_tasks(run_experiment, runs, jobs=jobs)


@dataclass
class TableRow:
    dataset: int
    method: str
    k: int
    coverage_mean: float
    coverage_sd: float
    width_mean: float
    width_sd: float
    msd_mean: float
    msd_sd: float
    oracle_coverage_mean: float | None = None
    oracle_coverage_sd: float | None = None
    oracle_mse_mean: float | None = None
    oracle_mse_sd: float | None = None


def _mean_sd(values) -> tuple[float, float]:
    arr = np.asarray(list(values), dtype=np.float64)
    return float(arr.mean()), float(arr.std(ddof=1)) if len(arr) > 1 else 0.0


def aggregate_table(reports: list[metrics.MetricsReport], bounds_by_run: dict | None = None) -> list[TableRow]:
    """Mean +- sd over seeds; MSD(k) computed per (dataset, method, seed)
    across that seed's k values, then aggregated."""
    keyed: dict[tuple, list[metrics.MetricsReport]] = {}
    for rep in reports:
        keyed.setdefault((rep.dataset, rep.method, rep.k), []).append(rep)
    msd: dict[tuple, list[float]] = {}
    if bounds_by_run:
        per_seed: dict[tuple, dict[int, bounds.BoundPair]] = {}
        for (dataset, method, k, seed), pair in bounds_by_run.items():
            per_seed.setdefault((dataset, method, seed), {})[k] = pair
        for (dataset, method, seed), by_k in per_seed.items():
            if len(by_k) >= 2:
                msd.setdefault((dataset, method), []).append(metrics.msd_over_k(by_k))
    rows = []
    for (dataset, method, k), reps in sorted(keyed.items()):
        cov_m, cov_s = _mean_sd(r.coverage for r in reps)
        w_m, w_s = _mean_sd(r.mean_width for r in reps)
        msd_m, msd_s = _mean_sd(msd.get((dataset, method), [np.nan]))
        row = TableRow(dataset=dataset, method=method, k=k,
                       coverage_mean=cov_m, coverage_sd=cov_s,
                       width_mean=w_m, width_sd=w_s, msd_mean=msd_m, msd_sd=msd_s)
        if all(r.oracle_mse is not None for r in reps):
            row.oracle_coverage_mean, row.oracle_coverage_sd = _mean_sd(r.oracle_coverage for r in reps)
            row.oracle_mse_mean, row.oracle_mse_sd = _mean_sd(r.oracle_mse for r in reps)
        rows.append(row)
    return rows


def render_table(rows: list[TableRow]) -> str:
    with_oracle = any(row.oracle_mse_mean is not None for row in rows)
    header = ["dataset", "method", "k", "coverage", "width", "MSD(k)"]
    if with_oracle:
        header += ["coverage (oracle)", "MSE (oracle)"]
    lines = []
    for row in rows:
        cells = [
            str(row.dataset),
            row.method,
            str(row.k),
            f"{row.coverage_mean:.2f} +- {row.coverage_sd:.2f}",
            f"{row.width_mean:.2f} +- {row.width_sd:.2f}",
            f"{row.msd_mean:.2f} +- {row.msd_sd:.2f}" if np.isfinite(row.msd_mean) else "-",
        ]
        if with_oracle:
            if row.oracle_mse_mean is not None:
                cells += [
                    f"{row.oracle_coverage_mean:.2f} +- {row.oracle_coverage_sd:.2f}",
                    f"{row.oracle_mse_mean:.2f} +- {row.oracle_mse_sd:.2f}",
                ]
            else:
                cells += ["-", "-"]
        lines.append(cells)
    widths = [max(len(header[i]), *(len(line[i]) for line in lines)) for i in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [fmt.format(*header)]
    out.extend(fmt.format(*line) for line in lines)
    return "\n".join(out) + "\n"


def write_table_csv(rows: list[TableRow], path: Path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cols = [
        "dataset", "method", "k", "coverage_mean", "coverage_sd", "width_mean", "width_sd",
        "msd_mean", "msd_sd", "oracle_coverage_mean", "oracle_coverage_sd",
        "oracle_mse_mean", "oracle_mse_sd",
    ]
    writer.writerow(cols)
    for row in rows:
        writer.writerow([getattr(row, c) if getattr(row, c) is not None else "" for c in cols])
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def reproduce_table(table: int, out_dir: Path | str, seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
                    n: int = 2000, jobs: int = 1, overrides: dict | None = None):
    """Regenerate a results table (runs + aggregation); returns the rows."""
    grid = TABLE_GRIDS[table]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs = []
    for dataset in grid["datasets"]:
        for method in grid["methods"]:
            for k in grid["ks"]:
                for seed in seeds:
                    run_dir = out / "runs" / f"d{dataset}_{method}_k{k}_seed{seed}"
                    runs.append((dataset, method, k, seed, n, run_dir, overrides))
    reports = run_sweep(runs, jobs=jobs)
    bounds_by_run = {}
    for (dataset, method, k, seed, _, run_dir, _), rep in zip(runs, reports):
        bounds_by_run[(dataset, method, k, seed)] = bounds.BoundPair.from_csv(Path(run_dir) / "bounds.csv")
    rows = aggregate_table(reports, bounds_by_run)
    write_table_csv(rows, out / f"table{table}.csv")
    (out / f"table{table}.txt").write_text(render_table(rows))
    # Plot-ready width-vs-k curve data (one row per run).
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dataset", "method", "k", "seed", "mean_width", "coverage"])
    for rep in reports:
        writer.writerow([rep.dataset, rep.method, rep.k, rep.seed,
                         format(rep.mean_width, ".17g"), format(rep.coverage, ".17g")])
    with open(out / f"width_by_k_table{table}.csv", "w", newline="") as fh:
        fh.write(buf.getvalue())
    write_manifest(out, f"reproduce-table{table}", {
        "table": table, "seeds": list(seeds), "n": n, "jobs": jobs, "overrides": overrides or {},
    })
    return rows, reports

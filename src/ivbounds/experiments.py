"""The run pipeline as stage functions, and seed sweeps and tables over it.

Stage 1 fits the nuisances mu, pi and eta; stage 2 learns the partition
whose cells give the closed-form bounds. Each stage writes its files only
when given a directory, and creates it only then, so a refused input leaves
nothing behind. The CLI command in brackets runs a stage alone:

- ``data_stage``: train.csv, val.csv, test.csv (``generate``)
- ``nuisance_stage``: mu.ckpt, pi.ckpt, eta.ckpt (``fit-nuisance``); read
  back by ``load_nuisances``
- ``partition_stage``: partition.ckpt, train_log.csv (``fit-partition``)
- ``naive_stage``, the baseline's k-means cells and refit nets: mu.ckpt,
  pi.ckpt, kmeans_centroids.csv (``run --method naive`` only)
- ``bounds_stage``, ours, naive or oracle: bounds.csv (``bounds``)
- ``report_stage``: metrics.json, metrics.trace.json, metrics.txt (``evaluate``)

``run_experiment`` (``run``) composes them and adds manifest.json, with the
config hash and package version. A run is fully determined by (dataset,
method, k, seed, n, training config), and its artifacts hold no wall time:
the runtime goes to ``metrics.trace.json`` only.

Processes: ``run_experiment`` runs in the calling process. It spreads the
three stage-1 nets over the usable CPUs, each net's restarts trained in
lockstep as one stacked net (see ``nuisance``), then the restarts of stage
2 (see ``parallel``). ``run_sweep(jobs > 1)`` spreads whole runs over
``min(jobs, len(runs))`` processes through the same ``parallel.map_tasks``;
pools never nest, so the nets and restarts inside those runs train
serially. Every run draws only from its own seeded streams, so the
artifacts are the same bytes for every ``jobs`` value and worker count.
All but ``bounds.csv`` are the same bytes for every BLAS thread count too
(``tests/test_blas_threads.py``). OpenBLAS sums the bound aggregates over
all aggregation samples in another order on 1 and on 2 threads, so a bound
can move in the last bits when that count changes. The seed-0 golden test
compares bounds at rtol 1e-12.
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

from . import InputError, __version__, bounds, data, metrics, naive, nuisance, parallel, partition
from .nets import TrainConfig, load_checkpoint, save_checkpoint

MASS_FLOOR = 0.01
NUISANCE_KINDS = {"mu": "two_head_outcome", "pi": "propensity", "eta": "eta"}

TABLE_GRIDS = {
    1: {"datasets": (1, 2), "ks": (2, 3), "methods": ("naive", "ours")},
    2: {"datasets": (3,), "ks": (2, 4, 6, 8), "methods": ("naive", "ours")},
}


def config_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def write_manifest(directory: Path, command: str, payload: dict) -> None:
    manifest = {"command": command, "package_version": __version__, "config": payload,
                "config_sha256": config_hash(payload)}
    (directory / "manifest.json").write_text(metrics.strict_json(manifest))


def _train_config(overrides: dict | None, **run_args) -> TrainConfig:
    """Training hyperparameters from ``overrides``; the run arguments (seed, k) win."""
    return TrainConfig(**{**(overrides or {}), **run_args})


def _made(out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    return out


def _save_nets(out: Path, **nets) -> None:
    for name, net in nets.items():
        save_checkpoint(net, _made(out) / f"{name}.ckpt")


def data_stage(dataset: int, n: int, seed: int, out: Path | None = None) -> data.DatasetSplit:
    split = data.split_dataset(data.generate_dataset(dataset, n, seed), seed)
    if out is not None:
        for name in ("train", "val", "test"):
            data.write_csv(getattr(split, name), _made(out) / f"{name}.csv")
    return split


def nuisance_stage(split: data.DatasetSplit, config: TrainConfig, out: Path | None = None) -> nuisance.NuisanceSet:
    nuis = nuisance.fit_nuisances(split, config)
    if out is not None:
        _save_nets(out, mu=nuis.mu, pi=nuis.pi, eta=nuis.eta)
    return nuis


def _check_input_widths(split: data.DatasetSplit, **nets) -> None:
    """Refuse nets whose input widths are not one x column and ``split.train.d`` z columns."""
    for name, net in nets.items():
        for column, width in (("x", 1), ("z", split.train.d)):
            if net.meta().get(f"{column}_dim", width) != width:
                raise InputError(f"the {name} net takes {net.meta()[f'{column}_dim']} {column} columns; "
                                 f"the data has {width}")


def load_nuisances(path: Path) -> nuisance.NuisanceSet:
    """The frozen nuisance set of a ``nuisance_stage`` directory; each file must hold its net's kind."""
    return nuisance.NuisanceSet(**{name: load_checkpoint(path / f"{name}.ckpt", kind)
                                   for name, kind in NUISANCE_KINDS.items()}).freeze()


def partition_stage(split: data.DatasetSplit, nuis: nuisance.NuisanceSet, config: TrainConfig,
                    out: Path | None = None) -> partition.Stage2Result:
    _check_input_widths(split, mu=nuis.mu, pi=nuis.pi, eta=nuis.eta)
    net, rows, stage2 = partition.train_partition(split, nuis, config)
    if out is not None:
        _save_nets(out, partition=net)
        partition.write_train_log_csv(rows, out / "train_log.csv")
    return stage2


def naive_stage(split: data.DatasetSplit, config: TrainConfig, out: Path | None = None) -> naive.NaiveFit:
    fit = naive.fit_naive(split, config.k, config)
    if out is not None:
        _save_nets(out, mu=fit.mu, pi=fit.pi)
        np.savetxt(out / "kmeans_centroids.csv", fit.kmeans.centroids, delimiter=",", fmt="%.17g")
    return fit


def bounds_stage(dataset: int | None, method: str, model, split: data.DatasetSplit,
                 out: Path | None = None) -> tuple[bounds.BoundPair, dict]:
    """Bounds and cell diagnostics at the test split's query points. ``model``
    is (partition net, nuisances) for ours, the ``NaiveFit`` for naive and
    None for the oracle, which needs dataset 3 (None: dataset unknown)."""
    rng_range = data.outcome_range_from_train(split.train)
    if method == "ours":
        net, nuis = model
        _check_input_widths(split, partition=net, mu=nuis.mu, pi=nuis.pi, eta=nuis.eta)
        pair, diag = partition.evaluate_bounds(net, nuis, split, rng_range)
    elif method == "naive":
        pair, diag = naive.naive_bounds(model, split.test, rng_range)
    elif method == "oracle":
        if dataset != 3:
            found = "no manifest.json" if dataset is None else f"dataset {dataset}"
            raise InputError(f"oracle bounds are defined for dataset 3 only; the data has {found}")
        pair = metrics.oracle_bounds_dataset3(split.test.x, rng_range)
        masses = data.rho_level_probs()
        diag = {"cell_masses": masses, "min_cell_mass": float(masses.min())}
    else:
        raise InputError(f"unknown method {method!r}")
    if out is not None:
        pair.to_csv(_made(out) / "bounds.csv")
    return pair, diag


def report_stage(pair: bounds.BoundPair, test: data.SampleBatch, oracle: bounds.BoundPair | None = None,
                 min_cell_mass: float | None = None, out: Path | None = None, started: float | None = None,
                 **fields) -> metrics.MetricsReport:
    """Metrics of ``pair`` on the test split, against ``oracle`` if given; runtime from ``started``."""
    report = metrics.MetricsReport(
        coverage=metrics.coverage(pair, test.tau_true),
        mean_width=metrics.mean_width(pair),
        crossing_rate=metrics.crossing_rate(pair),
        min_cell_mass=min_cell_mass,
        mass_floor_violated=min_cell_mass is not None and min_cell_mass < MASS_FLOOR,
        **fields,
    )
    if oracle is not None:
        report.oracle_mse, report.oracle_coverage = metrics.oracle_comparison(pair, oracle)
    if started is not None:
        report.runtime_seconds = time.perf_counter() - started
    if out is not None:
        report.to_json(_made(out) / "metrics.json")
        (out / "metrics.txt").write_text(replace(report, runtime_seconds=None).render_text())
    return report


def run_experiment(dataset: int, method: str, k: int, seed: int, n: int = 2000,
                   out_dir: Path | str | None = None, overrides: dict | None = None) -> metrics.MetricsReport:
    """One (dataset, method, k, seed) run through the stages; writes artifacts when out_dir given."""
    start = time.perf_counter()
    config = _train_config(overrides, seed=seed, k=k)
    out = Path(out_dir) if out_dir is not None else None
    split = data_stage(dataset, n, seed)
    rng_range = data.outcome_range_from_train(split.train)
    extra: dict = {"outcome_range": [rng_range.s1, rng_range.s2]}
    model = None
    if method == "ours":
        nuis = nuisance_stage(split, config, out)
        stage2 = partition_stage(split, nuis, config, out)
        model = (stage2.net, nuis)
        extra["stage2_restart"] = stage2.restart
        # Infinite when no validation cell holds both arms: unknown, not a number JSON can hold.
        extra["stage2_val_total"] = stage2.val_total if np.isfinite(stage2.val_total) else None
    elif method == "naive":
        model = naive_stage(split, config, out)
        extra["kmeans_inertia"] = model.kmeans.inertia
        extra["nuisance_architecture"] = {"mu": model.mu.meta()["spec"], "pi": model.pi.meta()["spec"]}
    elif method == "oracle":
        extra["rho_levels"] = len(data.rho_level_probs())  # the oracle's cells; the run's k plays no part
    pair, diag = bounds_stage(dataset, method, model, split, out)
    oracle = bounds_stage(dataset, "oracle", None, split)[0] if dataset == 3 and method != "oracle" else None
    report = report_stage(pair, split.test, oracle, diag["min_cell_mass"], out=out, started=start,
                          dataset=dataset, method=method, k=k, seed=seed, extra=extra)
    if out is not None:
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


def _mean_pm_sd(mean: float | None, sd: float | None) -> str:
    return f"{mean:.2f} +- {sd:.2f}" if mean is not None and np.isfinite(mean) else "-"


def render_table(rows: list[TableRow]) -> str:
    columns = {"coverage": "coverage", "width": "width", "msd": "MSD(k)"}
    if any(row.oracle_mse_mean is not None for row in rows):
        columns.update(oracle_coverage="coverage (oracle)", oracle_mse="MSE (oracle)")
    header = ["dataset", "method", "k", *columns.values()]
    lines = [[str(row.dataset), row.method, str(row.k),
              *(_mean_pm_sd(getattr(row, f"{c}_mean"), getattr(row, f"{c}_sd")) for c in columns)] for row in rows]
    widths = [max(len(header[i]), *(len(line[i]) for line in lines)) for i in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    return "\n".join(fmt.format(*line) for line in [header, *lines]) + "\n"


def _write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def write_table_csv(rows: list[TableRow], path: Path) -> None:
    cols = [
        "dataset", "method", "k", "coverage_mean", "coverage_sd", "width_mean", "width_sd",
        "msd_mean", "msd_sd", "oracle_coverage_mean", "oracle_coverage_sd",
        "oracle_mse_mean", "oracle_mse_sd",
    ]
    _write_csv(path, cols, ([getattr(row, c) if getattr(row, c) is not None else "" for c in cols] for row in rows))


def reproduce_table(table: int, out_dir: Path | str, seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
                    n: int = 2000, jobs: int = 1, overrides: dict | None = None):
    """Regenerate a results table (runs + aggregation); returns the rows."""
    grid = TABLE_GRIDS[table]
    out = Path(out_dir)
    runs = [(dataset, method, k, seed, n, out / "runs" / f"d{dataset}_{method}_k{k}_seed{seed}", overrides)
            for dataset in grid["datasets"] for method in grid["methods"] for k in grid["ks"] for seed in seeds]
    reports = run_sweep(runs, jobs=jobs)
    bounds_by_run = {(dataset, method, k, seed): bounds.BoundPair.from_csv(run_dir / "bounds.csv")
                     for dataset, method, k, seed, _, run_dir, _ in runs}
    rows = aggregate_table(reports, bounds_by_run)
    write_table_csv(rows, _made(out) / f"table{table}.csv")
    (out / f"table{table}.txt").write_text(render_table(rows))
    # Plot-ready width-vs-k curve data (one row per run).
    _write_csv(out / f"width_by_k_table{table}.csv", ["dataset", "method", "k", "seed", "mean_width", "coverage"],
               ([r.dataset, r.method, r.k, r.seed, format(r.mean_width, ".17g"), format(r.coverage, ".17g")]
                for r in reports))
    write_manifest(out, f"reproduce-table{table}", {
        "table": table, "seeds": list(seeds), "n": n, "jobs": jobs, "overrides": overrides or {},
    })
    return rows, reports

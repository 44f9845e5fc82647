"""Command-line interface.

Subcommands: generate, fit-nuisance, fit-partition, bounds, evaluate,
run, reproduce, checks. Each of the first five runs one stage of the
pipeline in ``experiments``; ``run`` runs them all. Exit codes: 0 success,
1 check failure, 2 I/O error or refused input (one stderr line, nothing
written: unusable run arguments or data, malformed or wrong-kind
checkpoints), 3 numeric failure (one stderr line: ``nets.TrainingAbort``, in
which a training step's ``nets.NonFiniteError`` or non-finite loss ends, an
oracle ``metrics.QuadratureError``, a ``bounds.EmptyCellError`` or another
``ArithmeticError``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import InputError, bounds, checks, data, experiments, metrics
from .nets import NonFiniteError, PartitionNet, TrainConfig, TrainingAbort, load_checkpoint

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

# One flag per training hyperparameter; k and seed are run arguments.
_TRAIN_FLAGS = {f.name: type(f.default) for f in fields(TrainConfig) if f.name not in ("k", "seed")}


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config")
    for name, typ in _TRAIN_FLAGS.items():
        parser.add_argument(f"--{name.replace('_', '-')}", type=typ, default=None)


def _overrides(args: argparse.Namespace) -> dict:
    out = dict(getattr(args, "config_data", {}).get("train", {}))
    for name in _TRAIN_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            out[name] = value
    return out


def _load_config_file(args: argparse.Namespace) -> None:
    args.config_data = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            args.config_data = json.load(fh)
        for key, value in args.config_data.items():
            if key != "train" and hasattr(args, key) and getattr(args, key) is None:
                setattr(args, key, value)


def _data_config(path: Path) -> dict:
    """The config ``generate`` recorded in a data dir's manifest; empty without one."""
    manifest = path / "manifest.json"
    return json.loads(manifest.read_text())["config"] if manifest.exists() else {}


def _read_bounds_of(data_dir: Path, test: data.SampleBatch, bounds_csv: str, name: str) -> bounds.BoundPair:
    """The bounds in ``bounds_csv`` if their x column is the test split's and
    the manifest next to them, if any (``bounds``: the data's ``generate``
    config; ``run``: its dataset, n and seed), names ``data_dir``'s data."""
    pair = bounds.BoundPair.from_csv(bounds_csv)
    if not np.array_equal(pair.x, test.x):
        raise InputError(f"the {name} are for other data: their {len(pair.x)} x values are not "
                         f"this data's {len(test.x)} test points")
    manifest = Path(bounds_csv).parent / "manifest.json"
    config = json.loads(manifest.read_text())["config"] if manifest.exists() else {}
    made_on, data_config = config.get("data_config", config), _data_config(data_dir)
    if any(made_on.get(key, value) != value for key, value in data_config.items()):
        describe = "dataset {dataset} (n={n}, seed {seed})".format
        raise InputError(f"the {name} were computed on {describe(**made_on)}; this data is {describe(**data_config)}")
    return pair


def _split_dir(path: Path) -> data.DatasetSplit:
    train = data.read_csv(path / "train.csv")
    val = data.read_csv(path / "val.csv")
    test = data.read_csv(path / "test.csv")
    return data.DatasetSplit(train=train, val=val, test=test, seed=_data_config(path).get("seed", 0))


def _seed(args, split: data.DatasetSplit) -> int:
    return args.seed if args.seed is not None else split.seed


def cmd_generate(args) -> int:
    out = Path(args.out)
    experiments.data_stage(args.dataset, args.n, args.seed, out)
    experiments.write_manifest(out, "generate", {"dataset": args.dataset, "n": args.n, "seed": args.seed})
    print(f"wrote {out}/train.csv val.csv test.csv (n={args.n}, dataset {args.dataset}, seed {args.seed})")
    return EXIT_OK


def cmd_fit_nuisance(args) -> int:
    split = _split_dir(Path(args.data))
    config = experiments._train_config(_overrides(args), seed=_seed(args, split))
    out = Path(args.out)
    experiments.nuisance_stage(split, config, out)
    experiments.write_manifest(out, "fit-nuisance", {"data": str(args.data), "train": asdict(config)})
    print(f"wrote {out}/mu.ckpt pi.ckpt eta.ckpt")
    return EXIT_OK


def cmd_fit_partition(args) -> int:
    split = _split_dir(Path(args.data))
    config = experiments._train_config(_overrides(args), seed=_seed(args, split), k=args.k)
    nuis = experiments.load_nuisances(Path(args.nuisance))
    out = Path(args.out)
    stage2 = experiments.partition_stage(split, nuis, config, out)
    experiments.write_manifest(out, "fit-partition", {
        "data": str(args.data), "nuisance": str(args.nuisance), "train": asdict(config),
        "chosen_restart": stage2.restart, "val_total": stage2.recorded_val_total,
    })
    print(f"wrote {out}/partition.ckpt (restart {stage2.restart}, val total {stage2.val_total:.4f})")
    return EXIT_OK


def cmd_bounds(args) -> int:
    model = None
    if args.method == "ours":
        missing = [flag for flag, value in (("--nuisance", args.nuisance), ("--partition", args.partition))
                   if value is None]
        if missing:
            raise InputError(f"--method {args.method} needs {' and '.join(missing)}")
        model = (load_checkpoint(Path(args.partition), PartitionNet.kind),
                 experiments.load_nuisances(Path(args.nuisance)))
    data_dir, out = Path(args.data), Path(args.out)
    pair, _ = experiments.bounds_stage(_data_config(data_dir).get("dataset"), args.method, model,
                                       _split_dir(data_dir), out)
    experiments.write_manifest(out, "bounds", {
        "data": str(args.data), "data_config": _data_config(data_dir), "method": args.method,
        "nuisance": str(args.nuisance) if args.nuisance else None,
        "partition": str(args.partition) if args.partition else None,
    })
    print(f"wrote {out}/bounds.csv ({len(pair.x)} query points)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    data_dir = Path(args.data)
    split = _split_dir(data_dir)
    report = experiments.report_stage(
        _read_bounds_of(data_dir, split.test, args.bounds, "bounds"), split.test,
        _read_bounds_of(data_dir, split.test, args.oracle_bounds, "oracle bounds") if args.oracle_bounds else None,
        out=Path(args.out), dataset=args.dataset or 0, method=args.method or "unknown", k=args.k or 0,
        seed=_seed(args, split),
    )
    print(report.render_text(), end="")
    return EXIT_OK


def cmd_run(args) -> int:
    report = experiments.run_experiment(
        args.dataset, args.method, args.k, args.seed, n=args.n,
        out_dir=Path(args.out) / f"d{args.dataset}_{args.method}_k{args.k}_seed{args.seed}",
        overrides=_overrides(args),
    )
    print(report.render_text(), end="")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    rows, _ = experiments.reproduce_table(
        args.table, Path(args.out), seeds=tuple(args.seeds), n=args.n, jobs=args.jobs,
        overrides=_overrides(args) or None,
    )
    print(experiments.render_table(rows), end="")
    print(f"wrote {args.out}/table{args.table}.csv and .txt")
    return EXIT_OK


def cmd_checks(args) -> int:
    results = checks.run_all_checks(fast=args.fast)
    for result in results:
        print(result.line())
    failed = sum(not result.passed for result in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ivbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write train/val/test CSVs for a synthetic dataset")
    p.add_argument("--dataset", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit-nuisance", help="first stage: fit mu/pi/eta nets")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    _add_train_flags(p)
    p.set_defaults(func=cmd_fit_nuisance)

    p = sub.add_parser("fit-partition", help="second stage: train the partition net")
    p.add_argument("--data", required=True)
    p.add_argument("--nuisance", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    _add_train_flags(p)
    p.set_defaults(func=cmd_fit_partition)

    p = sub.add_parser("bounds", help="evaluate bounds on the test split")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=("ours", "oracle"), default="ours")
    p.add_argument("--nuisance")
    p.add_argument("--partition")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("evaluate", help="metrics from a bounds CSV")
    p.add_argument("--bounds", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--oracle-bounds")
    p.add_argument("--dataset", type=int)
    p.add_argument("--method")
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="end-to-end single run")
    p.add_argument("--dataset", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--method", choices=("ours", "naive", "oracle"), default="ours")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("reproduce", help="regenerate a results table over seed sweeps")
    p.add_argument("--table", type=int, choices=(1, 2), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--jobs", type=int, default=1)
    _add_train_flags(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("checks", help="run the verification suite")
    p.add_argument("--fast", action="store_true", help="reduced replicate counts")
    p.set_defaults(func=cmd_checks)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _load_config_file(args)
        return args.func(args)
    except InputError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NonFiniteError, metrics.QuadratureError, bounds.EmptyCellError, ArithmeticError,
            TrainingAbort) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

if __name__ == "__main__":
    sys.exit(main())

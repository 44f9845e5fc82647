import json
import os
import subprocess
import sys
from dataclasses import asdict, fields

import numpy as np
import pytest

from ivbounds import checks, cli, data, nets
from ivbounds.bounds import BoundPair
from ivbounds.nets import TrainConfig


def run_cli(*argv) -> int:
    return cli.main(list(argv))


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_generate_writes_splits(tmp_path):
    out = tmp_path / "d1"
    assert run_cli("generate", "--dataset", "1", "--n", "2000", "--seed", "7", "--out", str(out)) == 0
    rows = {name: len((out / f"{name}.csv").read_text().splitlines()) - 1 for name in ("train", "val", "test")}
    assert rows == {"train": 800, "val": 400, "test": 800}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {"dataset": 1, "n": 2000, "seed": 7}
    assert "config_sha256" in manifest and "package_version" in manifest


def test_generate_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("generate", "--dataset", "2", "--n", "200", "--seed", "3", "--out", str(a))
    run_cli("generate", "--dataset", "2", "--n", "200", "--seed", "3", "--out", str(b))
    for name in ("train.csv", "val.csv", "test.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_dataset3_has_20_columns(tmp_path):
    out = tmp_path / "d3"
    run_cli("generate", "--dataset", "3", "--n", "50", "--seed", "0", "--out", str(out))
    header = (out / "train.csv").read_text().splitlines()[0].split(",")
    assert sum(1 for h in header if h.startswith("z_")) == 20


def test_generate_unwritable_path_exit_2(tmp_path):
    target = tmp_path / "file"
    target.write_text("x")
    code = run_cli("generate", "--dataset", "1", "--n", "10", "--seed", "0", "--out", str(target / "sub"))
    assert code == 2


def test_staged_pipeline_and_single_run(tmp_path):
    # generate -> fit-nuisance -> fit-partition -> bounds -> evaluate, with a
    # reduced budget; then the `run` command end to end, which must write the
    # same checkpoints, train log and bounds byte for byte.
    fast = ["--max-epochs", "4", "--restarts", "1", "--patience", "2"]
    d = tmp_path / "data"
    assert run_cli("generate", "--dataset", "1", "--n", "400", "--seed", "1", "--out", str(d)) == 0
    nd = tmp_path / "nuis"
    assert run_cli("fit-nuisance", "--data", str(d), "--out", str(nd), *fast) == 0
    pd_ = tmp_path / "part"
    assert run_cli("fit-partition", "--data", str(d), "--nuisance", str(nd), "--k", "2", "--out", str(pd_), *fast) == 0
    bd = tmp_path / "bounds"
    assert run_cli(
        "bounds", "--data", str(d), "--nuisance", str(nd), "--partition", str(pd_ / "partition.ckpt"), "--out", str(bd)
    ) == 0
    pair = BoundPair.from_csv(bd / "bounds.csv")
    assert len(pair.x) == 160  # 40% of 400
    ed = tmp_path / "eval"
    assert run_cli(
        "evaluate", "--bounds", str(bd / "bounds.csv"), "--data", str(d), "--out", str(ed),
        "--dataset", "1", "--method", "ours", "--k", "2",
    ) == 0
    report = json.loads((ed / "metrics.json").read_text(), parse_constant=_reject_constant)
    assert 0.0 <= report["coverage"] <= 1.0
    assert report["min_cell_mass"] is None
    trace = json.loads((ed / "metrics.trace.json").read_text(), parse_constant=_reject_constant)
    assert trace == {"runtime_seconds": None}

    rd = tmp_path / "run"
    assert run_cli("run", "--dataset", "1", "--method", "ours", "--k", "2", "--seed", "1",
                   "--n", "400", "--out", str(rd), *fast) == 0
    run_dir = rd / "d1_ours_k2_seed1"
    for name in ("bounds.csv", "metrics.json", "metrics.trace.json", "metrics.txt", "train_log.csv", "manifest.json",
                 "mu.ckpt", "pi.ckpt", "eta.ckpt", "partition.ckpt"):
        assert (run_dir / name).exists(), name
    staged = {"mu.ckpt": nd, "pi.ckpt": nd, "eta.ckpt": nd, "partition.ckpt": pd_, "train_log.csv": pd_,
              "bounds.csv": bd}
    for name, directory in staged.items():
        assert (directory / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_oracle_run_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("run", "--dataset", "3", "--method", "oracle", "--seed", "2",
                       "--n", "300", "--out", str(out)) == 0
    fa = a / "d3_oracle_k2_seed2" / "bounds.csv"
    fb = b / "d3_oracle_k2_seed2" / "bounds.csv"
    assert fa.read_bytes() == fb.read_bytes()


def test_oracle_run_records_its_k_in_metrics_and_manifest(tmp_path):
    # One k per run directory: the oracle's six rho cells go to metrics.json's extra.
    assert run_cli("run", "--dataset", "3", "--method", "oracle", "--k", "4", "--seed", "1",
                   "--n", "60", "--out", str(tmp_path)) == 0
    run_dir = tmp_path / "d3_oracle_k4_seed1"
    metrics = json.loads((run_dir / "metrics.json").read_text())
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert metrics["k"] == manifest["config"]["k"] == 4
    assert metrics["extra"]["rho_levels"] == 6


def test_oracle_rejects_other_datasets(tmp_path):
    with pytest.raises(ValueError):
        cli.cmd_run(cli.build_parser().parse_args(
            ["run", "--dataset", "1", "--method", "oracle", "--out", str(tmp_path)]
        ))


def test_bounds_oracle_refuses_other_datasets(tmp_path, capsys):
    d1 = tmp_path / "d1"
    assert run_cli("generate", "--dataset", "1", "--n", "100", "--seed", "0", "--out", str(d1)) == 0
    out = tmp_path / "bounds"
    assert run_cli("bounds", "--data", str(d1), "--method", "oracle", "--out", str(out)) == 2
    assert "dataset 3 only" in capsys.readouterr().err
    assert not (out / "bounds.csv").exists()
    (d1 / "manifest.json").unlink()
    assert run_cli("bounds", "--data", str(d1), "--method", "oracle", "--out", str(out)) == 2
    assert "no manifest.json" in capsys.readouterr().err
    assert not (out / "bounds.csv").exists()
    d3 = tmp_path / "d3"
    assert run_cli("generate", "--dataset", "3", "--n", "50", "--seed", "0", "--out", str(d3)) == 0
    assert run_cli("bounds", "--data", str(d3), "--method", "oracle", "--out", str(out)) == 0
    assert len((out / "bounds.csv").read_text().splitlines()) == 20 + 1


def test_bounds_ours_refuses_missing_inputs(tmp_path, capsys):
    d1 = tmp_path / "d1"
    assert run_cli("generate", "--dataset", "1", "--n", "50", "--seed", "0", "--out", str(d1)) == 0
    out = tmp_path / "bounds"
    assert run_cli("bounds", "--data", str(d1), "--out", str(out)) == 2
    assert "--nuisance and --partition" in capsys.readouterr().err
    assert run_cli("bounds", "--data", str(d1), "--nuisance", str(tmp_path / "nuis"), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "--partition" in err and "--nuisance" not in err
    assert run_cli("bounds", "--data", str(d1), "--partition", str(tmp_path / "p.ckpt"), "--out", str(out)) == 2
    assert "needs --nuisance\n" in capsys.readouterr().err
    assert not out.exists()
    assert not (out / "bounds.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--method", "naive", "--k", "8", "--n", "12"],  # fewer distinct instruments than k
    ["--method", "ours", "--k", "1", "--n", "12"],  # one treatment arm in the training split
    ["--method", "oracle"],  # the oracle is defined for dataset 3 only
    ["--k", "20"],  # batch size below 2k
    ["--n", "4"],  # too few samples to split
], ids=["kmeans", "single-arm", "oracle", "batch-size", "tiny-n"])
def test_run_refuses_unusable_inputs_before_writing(tmp_path, capsys, argv):
    out = tmp_path / "runs"
    assert run_cli("run", "--dataset", "1", "--out", str(out), *argv) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and err.count("\n") == 1, err
    assert not out.exists()


def _fake_nuisance_dir(path, z_dim=1, x_dim=1):
    rng = np.random.default_rng(0)
    path.mkdir()
    nets.save_checkpoint(nets.TwoBranchNet.create(x_dim, z_dim, rng, nets.OUTCOME_SPEC), path / "mu.ckpt")
    nets.save_checkpoint(nets.TwoBranchNet.create(x_dim, z_dim, rng, nets.PROPENSITY_SPEC), path / "pi.ckpt")
    nets.save_checkpoint(nets.EtaNet.create(z_dim, rng), path / "eta.ckpt")
    nets.save_checkpoint(nets.PartitionNet.create(z_dim, 2, rng), path / "partition.ckpt")


def test_bounds_refuses_malformed_or_wrong_kind_checkpoints(tmp_path, capsys):
    d1, nd, out = tmp_path / "d1", tmp_path / "nuis", tmp_path / "bounds"
    assert run_cli("generate", "--dataset", "1", "--n", "50", "--seed", "0", "--out", str(d1)) == 0
    _fake_nuisance_dir(nd)
    argv = ["bounds", "--data", str(d1), "--nuisance", str(nd), "--out", str(out)]
    capsys.readouterr()
    assert run_cli(*argv, "--partition", str(nd / "mu.ckpt")) == cli.EXIT_IO
    assert "holds a net of kind 'two_head_outcome', not partition" in capsys.readouterr().err
    (nd / "pi.ckpt").write_bytes((nd / "eta.ckpt").read_bytes())
    assert run_cli(*argv, "--partition", str(nd / "partition.ckpt")) == cli.EXIT_IO
    assert "holds a net of kind 'eta', not propensity" in capsys.readouterr().err
    assert run_cli("fit-partition", "--data", str(d1), "--nuisance", str(nd), "--k", "2",
                   "--out", str(out)) == cli.EXIT_IO
    assert "not propensity" in capsys.readouterr().err
    (nd / "mu.ckpt").write_bytes((nd / "mu.ckpt").read_bytes()[:100])
    assert run_cli(*argv, "--partition", str(nd / "partition.ckpt")) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("refused: truncated checkpoint") and err.count("\n") == 1
    assert not out.exists()


def test_bounds_and_fit_partition_refuse_nets_of_other_input_widths(tmp_path, capsys):
    # Dataset-3 shaped nets (20 instrument columns) on dataset-1 data (one).
    d1, out = tmp_path / "d1", tmp_path / "out"
    assert run_cli("generate", "--dataset", "1", "--n", "50", "--seed", "0", "--out", str(d1)) == 0
    wide, fits, two_x = tmp_path / "wide", tmp_path / "fits", tmp_path / "two_x"
    _fake_nuisance_dir(wide, z_dim=20)
    _fake_nuisance_dir(fits)
    _fake_nuisance_dir(two_x, x_dim=2)
    capsys.readouterr()
    for argv, refusal in [
        (["bounds", "--nuisance", str(wide), "--partition", str(wide / "partition.ckpt")],
         "the partition net takes 20 z columns; the data has 1"),
        (["bounds", "--nuisance", str(fits), "--partition", str(wide / "partition.ckpt")],
         "the partition net takes 20 z columns; the data has 1"),
        (["bounds", "--nuisance", str(wide), "--partition", str(fits / "partition.ckpt")],
         "the mu net takes 20 z columns; the data has 1"),
        (["bounds", "--nuisance", str(two_x), "--partition", str(fits / "partition.ckpt")],
         "the mu net takes 2 x columns; the data has 1"),
        (["fit-partition", "--nuisance", str(wide), "--k", "2"], "the mu net takes 20 z columns; the data has 1"),
    ]:
        assert run_cli(argv[0], "--data", str(d1), "--out", str(out), *argv[1:]) == cli.EXIT_IO
        assert capsys.readouterr().err == f"refused: {refusal}\n"
        assert not out.exists()
    assert run_cli("bounds", "--data", str(d1), "--nuisance", str(fits), "--partition", str(fits / "partition.ckpt"),
                   "--out", str(out)) == 0


def test_evaluate_refuses_bounds_of_another_dataset(tmp_path, capsys):
    # Datasets 1 and 3 draw the same test x at one (n, seed), so the x check
    # passes; the manifest next to the bounds names the data they came from.
    d1, d3 = tmp_path / "d1", tmp_path / "d3"
    for dataset, path in ((1, d1), (3, d3)):
        assert run_cli("generate", "--dataset", str(dataset), "--n", "60", "--seed", "0", "--out", str(path)) == 0
    assert run_cli("bounds", "--data", str(d3), "--method", "oracle", "--out", str(tmp_path / "oracle")) == 0
    assert run_cli("run", "--dataset", "3", "--method", "oracle", "--n", "60", "--seed", "0",
                   "--out", str(tmp_path / "run")) == 0
    run_bounds = tmp_path / "run" / "d3_oracle_k2_seed0" / "bounds.csv"
    assert run_bounds.read_bytes() == (tmp_path / "oracle" / "bounds.csv").read_bytes()
    out = tmp_path / "report"
    capsys.readouterr()
    for bounds_csv in (tmp_path / "oracle" / "bounds.csv", run_bounds):
        assert run_cli("evaluate", "--bounds", str(bounds_csv), "--data", str(d1), "--out", str(out)) == cli.EXIT_IO
        assert capsys.readouterr().err == ("refused: the bounds were computed on dataset 3 (n=60, seed 0); "
                                           "this data is dataset 1 (n=60, seed 0)\n")
        assert not out.exists()
    assert run_cli("evaluate", "--bounds", str(run_bounds), "--oracle-bounds", str(run_bounds), "--data", str(d3),
                   "--out", str(out)) == 0


def test_evaluate_refuses_bounds_of_other_data(tmp_path, capsys):
    dirs = {name: tmp_path / name for name in ("d3", "d3_seed1", "d1_n50", "d1_seed1")}
    for (dataset, n, seed), path in zip([(3, 60, 0), (3, 60, 1), (1, 50, 0), (1, 60, 1)], dirs.values()):
        assert run_cli("generate", "--dataset", str(dataset), "--n", str(n), "--seed", str(seed),
                       "--out", str(path)) == 0
    for name in ("d3", "d3_seed1"):
        assert run_cli("bounds", "--data", str(dirs[name]), "--method", "oracle",
                       "--out", str(tmp_path / f"oracle_{name}")) == 0
    own, other = tmp_path / "oracle_d3" / "bounds.csv", tmp_path / "oracle_d3_seed1" / "bounds.csv"
    out = tmp_path / "report"
    capsys.readouterr()
    for data_dir, extra, refusal in [
        ("d1_n50", [], "the bounds are for other data: their 24 x values are not this data's 20 test points"),
        ("d1_seed1", [], "the bounds are for other data: their 24 x values are not this data's 24 test points"),
        ("d3", ["--oracle-bounds", str(other)],
         "the oracle bounds are for other data: their 24 x values are not this data's 24 test points"),
    ]:
        assert run_cli("evaluate", "--bounds", str(own), "--data", str(dirs[data_dir]), "--out", str(out),
                       *extra) == cli.EXIT_IO
        assert capsys.readouterr().err == f"refused: {refusal}\n"
        assert not out.exists()
    # Bounds written with .17g read back to the exact test x: the own files are scored.
    assert run_cli("evaluate", "--bounds", str(own), "--oracle-bounds", str(own), "--data", str(dirs["d3"]),
                   "--out", str(out)) == 0
    assert json.loads((out / "metrics.json").read_text())["oracle_mse"] == 0.0


def test_reproduce_on_two_jobs_reports_a_training_abort(tmp_path, capsys):
    # A TrainingAbort raised in a sweep worker reaches the CLI as itself.
    code = run_cli("reproduce", "--table", "1", "--seeds", "0", "--n", "240", "--jobs", "2",
                   "--max-epochs", "3", "--learning-rate", "1e200", "--out", str(tmp_path))
    assert code == cli.EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numeric failure: epoch 0, batch ")


def test_naive_manifest_records_fair_architecture(tmp_path):
    out = tmp_path / "naive"
    assert run_cli("run", "--dataset", "1", "--method", "naive", "--k", "2", "--seed", "0",
                   "--n", "400", "--out", str(out), "--max-epochs", "3", "--restarts", "1") == 0
    report = json.loads((out / "d1_naive_k2_seed0" / "metrics.json").read_text())
    arch = report["extra"]["nuisance_architecture"]
    assert arch["mu"] == {"x_depth": 2, "z_depth": 3, "shared_depth": 2, "hidden": 10,
                          "heads": 2, "head_transform": "identity"}
    assert arch["pi"]["hidden"] == 10


def test_config_file_supplies_train_overrides(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"train": {"max_epochs": 3, "restarts": 1, "patience": 2}}))
    out = tmp_path / "run"
    assert run_cli("run", "--dataset", "1", "--method", "naive", "--k", "1", "--seed", "0",
                   "--n", "300", "--out", str(out), "--config", str(cfg)) == 0
    manifest = json.loads((out / "d1_naive_k1_seed0" / "manifest.json").read_text())
    assert manifest["config"]["train"]["max_epochs"] == 3


def test_train_flags_reach_the_run_config(tmp_path):
    # Every TrainConfig field but the run arguments k and seed has a flag.
    assert set(cli._TRAIN_FLAGS) == {f.name for f in fields(TrainConfig)} - {"k", "seed"}
    values = {"learning_rate": 0.01, "max_epochs": 2, "patience": 1, "batch_size": 64,
              "lam": 0.5, "gamma": 0.25, "temperature": 0.5, "restarts": 1}
    assert set(values) == set(cli._TRAIN_FLAGS)
    flags = [arg for name, value in values.items() for arg in (f"--{name.replace('_', '-')}", str(value))]
    out = tmp_path / "run"
    assert run_cli("run", "--dataset", "1", "--method", "naive", "--k", "1", "--seed", "0",
                   "--n", "300", "--out", str(out), *flags) == 0
    manifest = json.loads((out / "d1_naive_k1_seed0" / "manifest.json").read_text())
    assert manifest["config"]["train"] == asdict(TrainConfig(seed=0, k=1, **values))


def test_checks_fast_mode_is_the_cheap_subset_of_one_list(monkeypatch):
    calls = []

    def stub(name):
        def check(**kwargs):
            calls.append((name, kwargs))
            return [checks.CheckResult(name, True, "")]
        return check

    for name in ("gradient_checks", "net_gradient_checks", "bound_identity_checks", "quadrature_agreement_check",
                 "variance_checks", "decomposition_checks", "oracle_validity_checks", "population_oracle_checks"):
        monkeypatch.setattr(checks, name, stub(name))
    full = [r.name for r in checks.run_all_checks()]
    assert full == ["gradient_checks", "net_gradient_checks", "bound_identity_checks",
                    "quadrature_agreement_check", "variance_checks", "decomposition_checks",
                    "oracle_validity_checks", "population_oracle_checks"]
    calls.clear()
    fast = [r.name for r in checks.run_all_checks(fast=True)]
    assert fast == ["gradient_checks", "net_gradient_checks", "bound_identity_checks", "quadrature_agreement_check",
                    "variance_checks", "decomposition_checks"]
    assert dict(calls) == {"gradient_checks": {}, "net_gradient_checks": {}, "bound_identity_checks": {},
                           "quadrature_agreement_check": {"n": 20_000}, "variance_checks": {"replicates": 2_000},
                           "decomposition_checks": {"replicates": 400}}


def test_gradient_checks_count_only_checks_that_can_fail():
    # One line per loss term, the warm start and straight-through; each
    # compares a gradient with finite differences, so each can fail.
    results = checks.gradient_checks()
    assert [r.name for r in results] == [
        "gradient L_b (soft mode, 16 samples, k=3)", "gradient L_reg (soft mode, 16 samples, k=3)",
        "gradient L_aux (soft mode, 16 samples, k=3)", "gradient warm-start cross-entropy (16 samples, k=3)",
        "gradient straight-through (hard mode, 16 samples, k=3)"]
    assert all(r.passed and "max relative error" in r.detail for r in results)


def test_checks_fast_exit_code():
    assert run_cli("checks", "--fast") == 0


def test_split_loader_round_trip(tmp_path):
    out = tmp_path / "d"
    run_cli("generate", "--dataset", "1", "--n", "100", "--seed", "5", "--out", str(out))
    split = cli._split_dir(out)
    assert split.seed == 5
    assert len(split.train) + len(split.val) + len(split.test) == 100
    direct = data.split_dataset(data.generate_dataset1(100, 5), 5)
    np.testing.assert_array_equal(split.train.y, direct.train.y)


def test_gradient_checks_independent_of_hash_seed():
    code = ("from ivbounds import checks; "
            "print([(r.name, r.passed, r.detail) for r in checks.gradient_checks()])")
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(sys.path)}
        outputs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      capture_output=True, text=True).stdout)
    assert outputs[0] == outputs[1]

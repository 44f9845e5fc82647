import json
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivbounds import InputError, bounds, experiments, metrics

FAST = {"max_epochs": 3, "restarts": 1, "patience": 2}


def test_run_experiment_writes_artifacts(tmp_path):
    report = experiments.run_experiment(1, "ours", 2, 0, n=300, out_dir=tmp_path, overrides=FAST)
    assert report.method == "ours"
    assert (tmp_path / "bounds.csv").exists()
    assert (tmp_path / "metrics.json").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["train"]["max_epochs"] == 3
    assert len(manifest["config_sha256"]) == 64
    loaded = metrics.MetricsReport.from_json(tmp_path / "metrics.json")
    assert loaded.mean_width == report.mean_width
    assert loaded.runtime_seconds == report.runtime_seconds
    # metrics.json leaves the runtime to its trace file so that a rerun of the
    # same (config, seed) writes the same bytes.
    again = tmp_path / "again"
    experiments.run_experiment(1, "ours", 2, 0, n=300, out_dir=again, overrides=FAST)
    assert (again / "metrics.json").read_bytes() == (tmp_path / "metrics.json").read_bytes()
    assert (again / "metrics.txt").read_bytes() == (tmp_path / "metrics.txt").read_bytes()
    for path in (tmp_path / "metrics.json", tmp_path / "metrics.trace.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_run_experiment_is_deterministic():
    a = experiments.run_experiment(1, "naive", 2, 1, n=300, overrides=FAST)
    b = experiments.run_experiment(1, "naive", 2, 1, n=300, overrides=FAST)
    assert a.mean_width == b.mean_width
    assert a.coverage == b.coverage


def test_run_experiment_oracle_only_dataset3():
    with pytest.raises(InputError, match="dataset 3 only"):
        experiments.run_experiment(1, "oracle", 2, 0, n=300)


def test_dataset3_runs_report_oracle_metrics(monkeypatch):
    # The runtime spans the whole run, oracle comparison included: it is at
    # least the time from data generation to the end of the oracle.
    marks = {}
    generate, oracle = experiments.data.generate_dataset, experiments.metrics.oracle_bounds_dataset3

    def timed_generate(*args, **kwargs):
        marks["begin"] = time.perf_counter()
        return generate(*args, **kwargs)

    def timed_oracle(*args, **kwargs):
        pair = oracle(*args, **kwargs)
        marks["end"] = time.perf_counter()
        return pair

    monkeypatch.setattr(experiments.data, "generate_dataset", timed_generate)
    monkeypatch.setattr(experiments.metrics, "oracle_bounds_dataset3", timed_oracle)
    report = experiments.run_experiment(3, "naive", 2, 0, n=300, overrides=FAST)
    assert report.oracle_mse is not None
    assert 0.0 <= report.oracle_coverage <= 1.0
    assert report.runtime_seconds >= marks["end"] - marks["begin"]


def _fake_report(dataset, method, k, seed, width, cov=1.0):
    return metrics.MetricsReport(
        dataset=dataset, method=method, k=k, seed=seed, coverage=cov, mean_width=width,
        crossing_rate=0.0, min_cell_mass=0.4, mass_floor_violated=False,
    )


def _fake_pair(x, offset):
    n = len(x)
    return bounds.BoundPair(x=x, lower=np.zeros(n) - offset, upper=np.ones(n) + offset,
                            upper_pair=np.zeros((n, 2), int), lower_pair=np.zeros((n, 2), int))


def test_aggregate_table_means_and_msd():
    x = np.linspace(-1, 1, 11)
    reports = [
        _fake_report(1, "ours", 2, 0, 1.0),
        _fake_report(1, "ours", 2, 1, 1.2),
        _fake_report(1, "ours", 3, 0, 1.1),
        _fake_report(1, "ours", 3, 1, 1.3),
    ]
    pairs = {
        (1, "ours", 2, 0): _fake_pair(x, 0.0),
        (1, "ours", 3, 0): _fake_pair(x, 0.1),
        (1, "ours", 2, 1): _fake_pair(x, 0.0),
        (1, "ours", 3, 1): _fake_pair(x, 0.0),
    }
    rows = experiments.aggregate_table(reports, pairs)
    assert len(rows) == 2
    k2 = next(r for r in rows if r.k == 2)
    assert k2.width_mean == pytest.approx(1.1)
    assert k2.width_sd == pytest.approx(np.std([1.0, 1.2], ddof=1))
    # Seed 0: both sides shifted by 0.1 -> MSD 0.01; seed 1: identical -> 0.
    assert k2.msd_mean == pytest.approx(0.005)


def test_render_and_write_table(tmp_path):
    rows = experiments.aggregate_table([_fake_report(1, "ours", 2, s, 1.0 + 0.1 * s) for s in range(3)], None)
    text = experiments.render_table(rows)
    assert "dataset" in text and "ours" in text
    experiments.write_table_csv(rows, tmp_path / "t.csv")
    header = (tmp_path / "t.csv").read_text().splitlines()[0]
    assert header.startswith("dataset,method,k,coverage_mean")


def test_reproduce_table_small(tmp_path):
    rows, reports = experiments.reproduce_table(1, tmp_path, seeds=(0,), n=240, jobs=2, overrides=FAST)
    # 2 datasets x 2 methods x 2 ks
    assert len(reports) == 8
    assert len(rows) == 8
    assert (tmp_path / "table1.csv").exists()
    assert (tmp_path / "table1.txt").exists()
    run_dirs = list((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 8
    for d in run_dirs:
        assert (d / "manifest.json").exists()
        assert (d / "bounds.csv").exists()
    # MSD column filled (two k values per method/dataset at shared grid)
    assert all(np.isfinite(row.msd_mean) for row in rows)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.sampled_from(["ours", "naive"]), st.sampled_from([1, 2, 4, 8]),
       st.integers(5, 80), st.integers(1, 3), st.integers(0, 3))
def test_tiny_inputs_are_refused_or_give_finite_bounds(dataset, method, k, n, restarts, seed):
    # Every tiny configuration either raises InputError, and so exits 2, or
    # writes finite bounds with its crossing rate recorded. Crossed bounds are
    # the estimator's output and stay written.
    overrides = {"max_epochs": 2, "restarts": restarts}
    with tempfile.TemporaryDirectory() as tmp:
        try:
            experiments.run_experiment(dataset, method, k, seed, n=n, out_dir=tmp, overrides=overrides)
        except InputError:
            assert not Path(tmp, "bounds.csv").exists()
            return
        pair = bounds.BoundPair.from_csv(Path(tmp, "bounds.csv"))
        assert len(pair.x) > 0 and np.isfinite(pair.lower).all() and np.isfinite(pair.upper).all()
        report = metrics.MetricsReport.from_json(Path(tmp, "metrics.json"))
        assert report.crossing_rate == metrics.crossing_rate(pair)

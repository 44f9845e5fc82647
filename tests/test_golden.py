"""Golden seed-0 gate: two small end-to-end runs against recorded values.

``golden_seed0.json`` holds, for d3/ours/k8, d1/ours/k2 and d2/naive/k3 at
n = 600 and seed 0, the bounds at every test point with their selected cell
pairs; for the ours runs also the stage-2 winning restart and validation
loss and the epoch counts of every fit, for the naive run the k-means
centroids and inertia. Bounds and the other floats compare at rtol 1e-12, so
a last-ulp reassociation passes unedited; pairs, restart and epoch counts
compare exactly, so a real change in results fails. Regenerate
with ``PYTHONPATH=src python3 tests/regenerate_golden.py`` and review the
diff of the JSON before committing it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ivbounds import bounds, experiments

GOLDEN_PATH = Path(__file__).with_name("golden_seed0.json")
GOLDEN_RUNS = {"d3_ours_k8": (3, "ours", 8), "d1_ours_k2": (1, "ours", 2), "d2_naive_k3": (2, "naive", 3)}
GOLDEN_N = 600
STAGE1_NETS = ("mu", "pi", "eta")
EXACT_KEYS = ("stage1_epochs", "stage1_best_epoch", "stage2_epochs", "stage2_restart")
CLOSE_KEYS = ("stage2_val_total", "kmeans_inertia", "kmeans_centroids")


def _bound_rows(out_dir: Path) -> list:
    pair = bounds.BoundPair.from_csv(out_dir / "bounds.csv")
    return [
        [float(pair.x[i]), float(pair.lower[i]), float(pair.upper[i]),
         *map(int, pair.upper_pair[i]), *map(int, pair.lower_pair[i])]
        for i in range(len(pair.x))
    ]


def record_run(dataset: int, method: str, k: int, out_dir: Path) -> dict:
    """Run (dataset, method, k) at seed 0 and collect the values the gate compares."""
    if method == "naive":
        report = experiments.run_experiment(dataset, method, k, 0, n=GOLDEN_N, out_dir=out_dir)
        centroids = np.loadtxt(out_dir / "kmeans_centroids.csv", delimiter=",", ndmin=2)
        return {
            "kmeans_inertia": report.extra["kmeans_inertia"],
            "kmeans_centroids": centroids.tolist(),
            "bounds": _bound_rows(out_dir),
        }
    stage1 = {}
    fit_nuisances = experiments.nuisance.fit_nuisances

    def fit_and_keep_logs(split, config):
        nuis = fit_nuisances(split, config)
        stage1.update(nuis.logs)
        return nuis

    experiments.nuisance.fit_nuisances = fit_and_keep_logs
    try:
        report = experiments.run_experiment(dataset, method, k, 0, n=GOLDEN_N, out_dir=out_dir)
    finally:
        experiments.nuisance.fit_nuisances = fit_nuisances
    stage2_epochs = len((out_dir / "train_log.csv").read_text().splitlines()) - 1
    return {
        "stage1_epochs": {name: len(stage1[name].val_loss) for name in STAGE1_NETS},
        "stage1_best_epoch": {name: stage1[name].best_epoch for name in STAGE1_NETS},
        "stage2_epochs": stage2_epochs,
        "stage2_restart": report.extra["stage2_restart"],
        "stage2_val_total": report.extra["stage2_val_total"],
        "bounds": _bound_rows(out_dir),
    }


def dump_golden(runs: dict) -> str:
    """JSON with one bound row per line (x, lower, upper, upper l, m, lower l, m)."""
    lines = ["{"]
    for r, (name, run) in enumerate(runs.items()):
        lines.append(f"  {json.dumps(name)}: {{")
        for key, value in run.items():
            if key != "bounds":
                lines.append(f"    {json.dumps(key)}: {json.dumps(value, sort_keys=True)},")
        rows = [f"      {json.dumps(row)}" for row in run["bounds"]]
        lines.append('    "bounds": [\n' + ",\n".join(rows) + "\n    ]")
        lines.append("  }" + ("," if r < len(runs) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_seed0_run_matches_golden(name, tmp_path):
    want = json.loads(GOLDEN_PATH.read_text())[name]
    got = record_run(*GOLDEN_RUNS[name], tmp_path)
    assert set(got) == set(want)
    for key in set(want) & set(EXACT_KEYS):
        assert got[key] == want[key], key
    for key in set(want) & set(CLOSE_KEYS):
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0, err_msg=key)
    got_rows, want_rows = np.array(got["bounds"]), np.array(want["bounds"])
    assert got_rows.shape == want_rows.shape
    np.testing.assert_array_equal(got_rows[:, 3:], want_rows[:, 3:], err_msg="selected cell pairs")
    np.testing.assert_allclose(got_rows[:, :3], want_rows[:, :3], rtol=1e-12, atol=0, err_msg="x, lower, upper")

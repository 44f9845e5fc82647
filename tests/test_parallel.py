"""The process pool helper: task order, errors across processes, no nested
pools, and results that do not depend on the worker count."""

import os
import pickle
import time

import numpy as np
import pytest

from ivbounds import autodiff as ad
from ivbounds import InputError, bounds, data, experiments, metrics, nuisance, parallel, partition
from ivbounds.nets import EtaNet, TrainConfig, TrainingAbort

WAIT_S = 60.0


def _wait_for(path, timeout=WAIT_S):
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise TimeoutError(f"{path} did not appear within {timeout} s")
        time.sleep(0.01)


def _held_by_caller(index, marker):
    """Task 0 (run by the caller) returns only after task 1 has started
    elsewhere, so task 1 runs in a forked worker."""
    if index == 0:
        _wait_for(marker)
    else:
        open(marker, "w").close()
    return index, os.getpid(), parallel.worker_count(10)


def _abort_in_worker(index, marker):
    if index == 0:
        _wait_for(marker)
        return index
    open(marker, "w").close()
    raise TrainingAbort(7, 3, f"loss is not finite in process {os.getpid()}")


def _fail_after(index, directory, waits_for, fails):
    """Mark this task started, wait until task ``waits_for`` has started,
    then fail or return."""
    open(directory / str(index), "w").close()
    if waits_for is not None:
        _wait_for(directory / str(waits_for))
    if fails:
        raise ValueError(f"task {index}")
    return index


def _create_once(index, directory):
    with open(os.path.join(directory, str(index)), "x"):
        pass
    return index


def _square_or_fail(index):
    if index in (3, 5):
        raise ValueError(f"task {index}")
    return index * index


@pytest.mark.parametrize("error", [
    TrainingAbort(4, 2, "loss is not finite"),
    ad.NonFiniteError(ad.constant(np.ones(2)), "gradient"),
    ad.ShapeMismatchError("dense", (2, 3), (4, 5)),
    bounds.EmptyCellError(3, 1),
    bounds.EmptyCellError(2),
    metrics.QuadratureError("oracle moved 1e-3 on grid doubling"),
    InputError("need at least 8 distinct instrument values, found 4"),
], ids=lambda e: type(e).__name__)
def test_package_exceptions_survive_pickling(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error) and copy.args == error.args
    assert vars(copy) == vars(error)


def test_training_abort_in_a_worker_reaches_the_caller(tmp_path):
    with pytest.raises(TrainingAbort) as info:
        parallel.map_tasks(_abort_in_worker, [(0, tmp_path / "m"), (1, tmp_path / "m")], jobs=2)
    assert (info.value.epoch, info.value.batch) == (7, 3)
    assert str(info.value).startswith("epoch 7, batch 3: loss is not finite in process ")
    assert not str(info.value).endswith(f" {os.getpid()}")
    assert isinstance(info.value.__cause__, parallel.RemoteTraceback)
    assert "TrainingAbort" in str(info.value.__cause__)


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_results_in_task_order_and_lowest_failure_raised(jobs):
    assert parallel.map_tasks(_square_or_fail, [(i,) for i in (0, 1, 2)], jobs=jobs) == [0, 1, 4]
    with pytest.raises(ValueError, match="task 3"):
        parallel.map_tasks(_square_or_fail, [(i,) for i in range(8)], jobs=jobs)


def test_lowest_failing_index_wins_wherever_it_ran(tmp_path):
    # The caller runs task 0 and fails while the worker's task 1 fails too.
    with pytest.raises(ValueError, match="task 0") as info:
        parallel.map_tasks(_fail_after, [(0, tmp_path, 1, True), (1, tmp_path, None, True)], jobs=2)
    assert not isinstance(info.value.__cause__, parallel.RemoteTraceback)
    # The worker's task 1 fails after the caller, done with task 0, has
    # claimed task 2 and failed there.
    second = tmp_path / "second"
    second.mkdir()
    tasks = [(0, second, 1, False), (1, second, 2, True), (2, second, None, True)]
    with pytest.raises(ValueError, match="task 1") as info:
        parallel.map_tasks(_fail_after, tasks, jobs=2)
    assert isinstance(info.value.__cause__, parallel.RemoteTraceback)


def test_every_task_runs_once_with_more_workers_than_cpus(tmp_path):
    # A lost update of the shared claim counter would run a task twice
    # (its file exists already) or skip it (its result stays None).
    tasks = [(i, tmp_path) for i in range(200)]
    assert parallel.map_tasks(_create_once, tasks, jobs=2 * parallel.usable_cpus() + 1) == list(range(200))
    assert len(list(tmp_path.iterdir())) == 200


def test_no_nested_pools(tmp_path):
    marker = tmp_path / "m"
    out = parallel.map_tasks(_held_by_caller, [(0, marker), (1, marker)], jobs=2)
    assert [index for index, _, _ in out] == [0, 1]
    assert out[0][1] == os.getpid() and out[1][1] != os.getpid()
    assert [inner for _, _, inner in out] == [1, 1]
    assert parallel.worker_count(10, jobs=2) == 2


def test_run_sweep_never_starts_more_workers_than_runs(monkeypatch):
    sizes = []

    class RecordingPool(parallel.ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments, "run_experiment", lambda *run: (run, os.getpid()))
    runs = [(1, "ours", 2, seed, 100, None, None) for seed in range(2)]
    assert [run for run, _ in experiments.run_sweep(runs, jobs=8)] == runs
    assert [run for run, _ in experiments.run_sweep(runs[:1], jobs=8)] == runs[:1]
    assert [run for run, _ in experiments.run_sweep(runs, jobs=1)] == runs
    assert sizes == [1]  # the caller plus one forked worker, for two runs


def _constant_eta(split, nuis):
    eta = EtaNet.create(split.train.d, np.random.default_rng(0))
    eta.params["head.w"] = np.zeros_like(eta.params["head.w"])
    return nuisance.NuisanceSet(mu=nuis.mu, pi=nuis.pi, eta=eta).freeze()


def _pipeline(split, config, constant_eta):
    nuis = nuisance.fit_nuisances(split, config)
    if constant_eta:
        nuis = _constant_eta(split, nuis)
    tags = partition._candidate_tags(split, nuis, config)
    net, rows, stage2 = partition.train_partition(split, nuis, config)
    pair, _ = partition.evaluate_bounds(net, nuis, split, data.outcome_range_from_train(split.train))
    params = [np.ascontiguousarray(p).tobytes() for n in (nuis.mu, nuis.pi, nuis.eta, net)
              for _, p in sorted(n.params.items())]
    logs = repr({name: vars(log) for name, log in nuis.logs.items()})
    return {"tags": tags, "params": params, "logs": logs, "rows": repr(rows), "stage2_log": repr(stage2.log),
            "restart": stage2.restart, "val_total": stage2.val_total,
            "bounds": (pair.lower.tobytes(), pair.upper.tobytes())}


@pytest.mark.parametrize("constant_eta", [False, True], ids=["eta-warm-start", "eta-skipped"])
def test_worker_count_does_not_change_results(monkeypatch, constant_eta):
    split = data.split_dataset(data.generate_dataset1(300, 2), 2)
    config = TrainConfig(seed=2, k=2, max_epochs=4, patience=2)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    serial = _pipeline(split, config, constant_eta)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    pooled = _pipeline(split, config, constant_eta)
    assert serial["tags"] == (["random", "kmeans"] if constant_eta else ["random", "eta", "kmeans"])
    assert pooled == serial

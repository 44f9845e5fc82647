"""The golden d3/ours/k8 case (n = 600, seed 0) under one and under two
OpenBLAS threads, each in its own interpreter: every reproducible artifact
but ``bounds.csv`` must be the same bytes. A stacked or blocked kernel whose
bits depend on the thread count fails here.

Left out of the comparison:

- ``bounds.csv``: ``bounds.aggregate_cells`` sums the bound aggregates over
  all aggregation samples as (nq x n) @ (n x k) products, and OpenBLAS
  splits those sums in another order on two threads, so a bound can move in
  its last bits (see the ``experiments`` docstring).
- ``metrics.trace.json``: the run's wall time.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
EXCLUDED = ("bounds.csv", "metrics.trace.json")
RUN = "import sys; from ivbounds import experiments; experiments.run_experiment(3, 'ours', 8, 0, n=600, out_dir=sys.argv[1])"


def _run(out: Path, threads: int) -> None:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads), "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", RUN, str(out)], env=env, check=True, capture_output=True)


def test_artifacts_but_bounds_do_not_depend_on_the_blas_thread_count(tmp_path):
    for threads in (1, 2):
        _run(tmp_path / f"threads{threads}", threads)
    names = sorted(p.name for p in (tmp_path / "threads1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "threads2").iterdir())
    compared = [name for name in names if name not in EXCLUDED]
    assert {"mu.ckpt", "pi.ckpt", "eta.ckpt", "partition.ckpt", "train_log.csv", "metrics.json"} <= set(compared)
    for name in compared:
        assert (tmp_path / "threads1" / name).read_bytes() == (tmp_path / "threads2" / name).read_bytes(), name

"""Run independent tasks in parallel processes, in one place.

``map_tasks(fn, tasks)`` calls ``fn(*task)`` for every task and returns the
results in task order. The callers are the three stage-1 nets
(``nuisance.fit_nuisances``; each trains its restarts in lockstep in one
task), the restarts of stage 2 (``partition``), the two naive nets
(``naive``) and the runs of a sweep (``experiments.run_sweep``). Each task
draws only from its own named random
streams, so its result does not depend on which process runs it or when:
every worker count gives the same bytes. Those bytes are fixed per BLAS
thread count (see ``experiments``).

How the work is spread:

- ``worker_count`` processes take part: the caller itself plus forked
  workers. The caller runs task 0; after that, each process claims the next
  unclaimed task index from a shared counter until none is left.
- Workers are forked, so they inherit the tasks and the function instead of
  receiving pickled copies; only results (and errors) are pickled back. A
  spawned worker would start a fresh interpreter and import numpy and the
  package, about 0.3 s on a 2-vCPU VM, about as long as one stage-2
  restart of a small run. The package starts no threads, and the
  executor starts its own only after its workers have forked.
- Pools never nest. The caller marks itself as inside a pool while it
  serves its own map, and its workers fork with that mark set; a
  ``map_tasks`` call made inside a pool runs its tasks serially. So a sweep
  over several processes trains each run's nets and restarts serially, and
  a lone run spreads its stage-1 nets, then its stage-2 restarts, over the
  free CPUs.
- A failed task stops further claims. The error of the lowest failing task
  index is raised, as the serial loop would raise it; an error raised in a
  worker carries the worker's traceback as its cause.
"""

from __future__ import annotations

import copyreg
import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor

# Process state, not configuration: whether this process is serving a pool,
# and the map its forked workers inherit.
_in_pool = False
_job = None  # (fn, tasks, counter of the next unclaimed task index)


class PicklableFields:
    """Mixin for exceptions whose ``__init__`` takes fields, not the message.

    Default exception pickling calls ``cls(*args)`` with the message, which
    such an ``__init__`` cannot take; this rebuilds the exception from its
    message and field attributes without calling ``__init__``, so it keeps
    its type and fields across a process boundary.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class RemoteTraceback(Exception):
    """The formatted traceback of an error raised in a worker process."""

    def __str__(self) -> str:
        return self.args[0]


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(n_tasks: int, jobs: int | None = None) -> int:
    """Processes a ``map_tasks`` call over ``n_tasks`` tasks would use here:
    ``min(n_tasks, jobs)`` with ``jobs`` defaulting to the usable CPUs, and 1
    inside a pool."""
    if _in_pool:
        return 1
    return max(1, min(n_tasks, usable_cpus() if jobs is None else jobs))


def _claim() -> int:
    counter = _job[2]
    with counter.get_lock():
        index = counter.value
        counter.value += 1
    return index


def _serve(index: int | None = None) -> list[tuple[int, bool, object]]:
    """Run task ``index`` (or a claimed one), then claimed tasks until none
    is left. Returns ``(index, ok, result or (error, traceback text))``."""
    fn, tasks, counter = _job
    done = []
    index = _claim() if index is None else index
    while index < len(tasks):
        try:
            done.append((index, True, fn(*tasks[index])))
        except Exception as exc:
            done.append((index, False, (exc, traceback.format_exc())))
            with counter.get_lock():
                counter.value = len(tasks)
        index = _claim()
    return done


def map_tasks(fn, tasks, jobs: int | None = None) -> list:
    """``[fn(*task) for task in tasks]``, over ``worker_count`` processes.

    ``jobs`` caps the process count (default: the usable CPUs). Results come
    back in task order and must be picklable; ``fn`` and the tasks are
    inherited by the forked workers, never pickled. The map's state is
    process-wide, so call it from one thread at a time.
    """
    global _in_pool, _job
    tasks = list(tasks)
    workers = worker_count(len(tasks), jobs)
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(*task) for task in tasks]
    context = multiprocessing.get_context("fork")
    _in_pool = True  # the workers fork with this mark set, so they never start a pool either
    _job = (fn, tasks, context.Value("q", 1))  # the caller holds task 0
    try:
        with ProcessPoolExecutor(workers - 1, mp_context=context) as pool:
            futures = [pool.submit(_serve) for _ in range(workers - 1)]
            own = _serve(0)
            remote = [entry for future in futures for entry in future.result()]
    finally:
        _in_pool, _job = False, None
    results: list = [None] * len(tasks)
    failures = []
    for mine, entries in ((True, own), (False, remote)):
        for index, ok, value in entries:
            if ok:
                results[index] = value
            else:
                failures.append((index, mine, *value))
    if failures:
        index, mine, exc, text = min(failures, key=lambda f: f[0])
        if mine:
            raise exc
        raise exc from RemoteTraceback(text)
    return results

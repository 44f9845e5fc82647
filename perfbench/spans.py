"""In-memory span recorder that traces a program from outside.

``Recorder.wrap`` replaces a module or class attribute with a wrapper that
records one span per call: name, start, end, parent span and run id.
``Recorder.restore`` puts every original back. Spans and counters stay in
memory; ``self_times`` turns them into self time per span.

Worker processes forked while the wrappers are installed inherit them and
the stack of open spans, so their spans keep the right parent. A worker
writes its spans to ``worker_dir`` each time its stack returns to the depth
it had at the fork, and ``collect_workers`` merges those files back into the
parent's recorder.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

RUN_SPAN = "experiments.run_experiment"


@dataclass
class Span:
    id: str
    name: str
    start: float
    end: float
    parent: str | None
    run: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans and counters of one traced workload.

    A span named ``RUN_SPAN`` starts a run: it and every span below it carry
    its id as their run id.
    """

    def __init__(self, worker_dir: Path | str | None = None):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.worker_dir = Path(worker_dir) if worker_dir is not None else None
        self.worker_spans = 0
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._ids = itertools.count()
        self._owner_pid = os.getpid()
        self._pid = self._owner_pid
        self._fork_depth = 0
        self._flushes = itertools.count()

    # ---------------------------------------------------------- recording

    def _check_pid(self) -> None:
        """In a freshly forked worker, drop the parent's spans and counters
        but keep its open spans as ancestors."""
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self.spans = []
            self.counters = defaultdict(float)
            self._fork_depth = len(self._stack)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        self._check_pid()
        parent = self._stack[-1] if self._stack else None
        span_id = f"{self._pid}.{next(self._ids)}"
        run = span_id if name == RUN_SPAN else (parent.run if parent else None)
        current = Span(span_id, name, time.perf_counter(), 0.0,
                       parent.id if parent else None, run, attrs)
        self._stack.append(current)
        try:
            yield current
        finally:
            current.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(current)
            if self._pid != self._owner_pid and len(self._stack) == self._fork_depth:
                self._flush_worker()

    def count(self, name: str) -> None:
        self._check_pid()
        self.counters[name] += 1

    # ------------------------------------------------------------ patching

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until ``restore``."""
        self._patches.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, attrs=None, after=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``attrs(*args, **kwargs)`` gives the span's attributes at entry;
        ``after(span, result)`` may add more from the call's result.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})) as current:
                result = original(*args, **kwargs)
                if after is not None:
                    after(current, result)
            return result

        self.patch(owner, attr, traced)

    def restore(self) -> None:
        """Put back every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------- workers

    def _flush_worker(self) -> None:
        if self.worker_dir is None:
            raise RuntimeError("spans recorded in a worker process but no worker_dir is set")
        path = self.worker_dir / f"spans-{self._pid}-{next(self._flushes)}.json"
        payload = {"spans": [asdict(s) for s in self.spans], "counters": dict(self.counters)}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.rename(path)
        self.spans = []
        self.counters = defaultdict(float)

    def collect_workers(self) -> None:
        """Merge (and delete) the span files workers wrote."""
        if self.worker_dir is None:
            return
        for path in sorted(self.worker_dir.glob("spans-*.json")):
            payload = json.loads(path.read_text())
            path.unlink()
            self.spans.extend(Span(**s) for s in payload["spans"])
            for name, value in payload["counters"].items():
                self.counters[name] += value
            self.worker_spans += len(payload["spans"])


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> duration minus the part of its interval that its child
    spans cover. Children that overlap (parallel workers) count once."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            children[parent.id].append((max(s.start, parent.start), min(s.end, parent.end)))
    return {s.id: s.duration - _covered(children[s.id]) for s in spans}

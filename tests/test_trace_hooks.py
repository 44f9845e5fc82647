"""The benchmark's trace mode (``perfbench/layers.py``, imported as it is)
wraps ``ivbounds`` functions by their names. A rename or a call path that
skips one of them would leave ``--trace 1`` without its spans and set a
per-layer metric to zero; these run small runs inside
``layers.instrumented`` and check that every wrapped name records spans.
"""

import sys
from pathlib import Path

from ivbounds import autodiff, bounds, data, experiments, metrics, naive, nets, nuisance, parallel, partition

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402

OWNERS = (autodiff, bounds, data, experiments, metrics, naive, nets, nuisance, partition, bounds.BoundPair,
          metrics.MetricsReport)


def test_trace_hooks_record_the_stage2_loss_and_restore_everything(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    before = {owner: dict(vars(owner)) for owner in OWNERS}
    rec = spans.Recorder()
    with layers.instrumented(rec):
        experiments.run_experiment(3, "ours", 2, 0, n=200, overrides={"max_epochs": 1})
    names = {s.name for s in rec.spans}
    assert {"autodiff.backward_grad", "autodiff.topo_order", "partition.composite_loss_graph"} <= names
    backwards = {s.id for s in rec.spans if s.name == "autodiff.backward_grad"}
    nodes = [s.attrs["nodes"] for s in rec.spans if s.name == "autodiff.topo_order" and s.parent in backwards]
    assert nodes and min(nodes) > 0
    for owner, attrs in before.items():
        assert set(vars(owner)) == set(attrs), owner
        assert all(vars(owner)[name] is value for name, value in attrs.items()), owner


def test_every_wrapped_name_records_a_span(monkeypatch, tmp_path):
    # A serial sweep of an ours run on dataset 3 (oracle included) and a
    # naive run, then the table: together they call every function
    # ``layers.install`` wraps.
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    wrapped = []
    wrap = spans.Recorder.wrap

    def recording_wrap(self, owner, attr, name, *args, **kwargs):
        wrapped.append(name)
        return wrap(self, owner, attr, name, *args, **kwargs)

    monkeypatch.setattr(spans.Recorder, "wrap", recording_wrap)
    rec = spans.Recorder()
    runs = [(3, "ours", 2, 0, 200, tmp_path / "d3_ours", {"max_epochs": 1}),
            (1, "naive", 2, 0, 200, tmp_path / "d1_naive", {"max_epochs": 1})]
    with layers.instrumented(rec):
        experiments.aggregate_table(experiments.run_sweep(runs))
    recorded = {s.name for s in rec.spans}
    assert len(wrapped) == len(set(wrapped)) > 20
    assert [name for name in wrapped if name not in recorded] == []

"""The benchmark's trace mode (``perfbench/layers.py``, imported as it is)
wraps ``ivbounds`` functions by their names. A rename or a call path that
skips one of them would leave ``--trace 1`` without its stage-2 spans; this
runs one small d3/ours run inside ``layers.instrumented`` and checks them.
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

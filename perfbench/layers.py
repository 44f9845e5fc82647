"""Which ``ivbounds`` functions the traced run wraps, and the per-layer
metrics computed from their spans.

Span names are ``<module>.<function>``; the module is the layer whose self
time a span counts toward. Every wrap sets a module or class attribute, so
it only sees calls that look the name up at call time, which is how the
package calls each function listed here.
"""

from __future__ import annotations

import contextlib
import logging
import statistics
from collections import defaultdict

import numpy as np

from ivbounds import autodiff, bounds, data, experiments, metrics, naive, nets, nuisance, partition

from spans import Recorder, Span, self_times

LAYERS = ("experiments", "data", "nuisance", "nets", "autodiff", "partition", "bounds", "metrics", "naive")
RESTARTS = nets.TrainConfig().restarts
WRITES = ("experiments.save_checkpoint", "experiments.write_manifest", "partition.write_train_log_csv",
          "bounds.BoundPair.to_csv", "metrics.MetricsReport.to_json")


class _PartitionEvents(logging.Handler):
    """Counts the numeric events ``ivbounds.partition`` logs as warnings."""

    def __init__(self, recorder: Recorder):
        super().__init__(level=logging.WARNING)
        self.recorder = recorder

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("cell mass clamped"):
            self.recorder.count("partition.mass_clamps")
        elif record.msg.startswith("batch has no valid"):
            self.recorder.count("partition.lb_dropped_batches")


def _trace_training(rec: Recorder, module) -> None:
    """Wrap ``module.train_with_early_stopping`` and the loss function it is
    given: training-batch and validation graph builds get separate spans."""
    original = module.train_with_early_stopping

    def traced(net, loss_fn, train, val, config, *args, **kwargs):
        def traced_loss(model, batch):
            with rec.span("nets.val_loss" if batch is val else "nets.loss_graph"):
                return loss_fn(model, batch)

        with rec.span("nets.train_with_early_stopping", caller=module.__name__) as current:
            log = original(net, traced_loss, train, val, config, *args, **kwargs)
            current.attrs["epochs"] = len(log.val_loss)
        return log

    rec.patch(module, "train_with_early_stopping", traced)


def _masked_cells(span: Span, result) -> None:
    diag = result[1]
    span.attrs["masked_cells"] = int(np.sum(~diag["valid_l"]) + np.sum(~diag["valid_m"]))


def install(rec: Recorder) -> None:
    """Wrap the public functions of every layer (restored by ``rec.restore``)."""
    w = rec.wrap
    w(experiments, "run_experiment", "experiments.run_experiment",
      attrs=lambda dataset, method, k, seed, *a, **kw: {"dataset": int(dataset), "method": method,
                                                         "k": int(k), "seed": int(seed)})
    w(experiments, "run_sweep", "experiments.run_sweep",
      attrs=lambda runs, jobs=1: {"jobs": int(jobs), "runs": len(runs)},
      after=lambda span, result: rec.collect_workers())
    w(experiments, "aggregate_table", "experiments.aggregate_table")
    w(experiments, "save_checkpoint", "experiments.save_checkpoint")
    w(experiments, "write_manifest", "experiments.write_manifest")
    w(partition, "write_train_log_csv", "partition.write_train_log_csv")
    w(bounds.BoundPair, "to_csv", "bounds.BoundPair.to_csv")
    w(metrics.MetricsReport, "to_json", "metrics.MetricsReport.to_json")

    w(data, "generate_dataset", "data.generate_dataset")
    w(nuisance, "fit_nuisances", "nuisance.fit_nuisances")
    for fit in ("fit_mu", "fit_pi", "fit_eta"):
        w(nuisance, fit, f"nuisance.{fit}")
    for module in (nuisance, partition, naive):
        _trace_training(rec, module)
    w(nets, "adam_step", "nets.adam_step")
    w(autodiff, "backward_grad", "autodiff.backward_grad")
    w(autodiff, "topo_order", "autodiff.topo_order",
      after=lambda span, order: span.attrs.__setitem__("nodes", len(order)))

    w(partition, "train_partition", "partition.train_partition",
      after=lambda span, result: span.attrs.__setitem__("restart_won", int(result[2].restart)))
    w(partition, "batch_constants", "partition.batch_constants")
    w(partition, "composite_loss_graph", "partition.composite_loss_graph")
    w(partition, "validation_loss", "partition.validation_loss")
    w(partition, "evaluate_bounds", "partition.evaluate_bounds", after=_masked_cells)
    w(bounds, "bounds_on_grid", "bounds.bounds_on_grid")
    w(metrics, "oracle_bounds_dataset3", "metrics.oracle_bounds_dataset3")

    w(naive, "kmeans_fit", "naive.kmeans_fit")
    w(naive, "fit_naive", "naive.fit_naive")
    w(naive, "naive_bounds", "naive.naive_bounds")


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Wrappers and the partition event counter, both removed on exit."""
    logger = logging.getLogger(partition.__name__)
    handler = _PartitionEvents(rec)
    logger.addHandler(handler)
    try:
        install(rec)
        yield rec
    finally:
        rec.restore()
        logger.removeHandler(handler)


def layer_metrics(rec: Recorder, root: Span, untraced_run_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced workload: name -> (value, unit)."""
    spans = rec.spans
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name: str) -> float:
        return float(sum(s.duration for s in by_name[name]))

    def under(span: Span, name: str) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent)
        return False

    runs = {s.id: s for s in by_name["experiments.run_experiment"]}
    trains = by_name["nets.train_with_early_stopping"]
    out: dict[str, tuple[float, str]] = {"data.generate_s": (total("data.generate_dataset"), "s")}

    for fit in ("mu", "pi", "eta"):
        out[f"nuisance.fit_{fit}_s"] = (total(f"nuisance.fit_{fit}"), "s")
    stage1_trains = [s for s in trains if s.attrs["caller"] == nuisance.__name__]
    out["nuisance.epochs"] = (sum(s.attrs.get("epochs", 0) for s in stage1_trains), "count")
    fits = by_name["nuisance.fit_nuisances"]
    keys = {(runs[s.run].attrs["dataset"], runs[s.run].attrs["seed"]) for s in fits}
    out["nuisance.fits"] = (len(fits), "count")
    out["nuisance.stage1_reuse"] = (len(keys) / len(fits) if fits else 0.0, "ratio")

    steps = len(by_name["nets.adam_step"])
    backwards = by_name["autodiff.backward_grad"]
    backward_ids = {s.id for s in backwards}
    out["nets.steps"] = (steps, "count")
    out["nets.graph_build_s"] = (total("nets.loss_graph") + total("nets.val_loss"), "s")
    out["nets.adam_s"] = (total("nets.adam_step"), "s")
    out["autodiff.backward_s"] = (total("autodiff.backward_grad"), "s")
    nodes = sum(s.attrs.get("nodes", 0) for s in by_name["autodiff.topo_order"] if s.parent in backward_ids)
    out["autodiff.nodes_per_step"] = (nodes / len(backwards) if backwards else 0.0, "count")
    stage1 = [s for name in ("nets.loss_graph", "autodiff.backward_grad", "nets.adam_step")
              for s in by_name[name] if under(s, "nuisance.fit_nuisances")]
    stage1_steps = sum(1 for s in stage1 if s.name == "nets.adam_step")
    out["nets.step_us"] = (sum(s.duration for s in stage1) / stage1_steps * 1e6 if stage1_steps else 0.0, "us")

    out["partition.train_s"] = (total("partition.train_partition"), "s")
    restart_s = [0.0] * RESTARTS
    for train in by_name["partition.train_partition"]:
        own = sorted((s for s in trains if s.parent == train.id), key=lambda s: s.start)
        for i, s in enumerate(own):
            restart_s[i] += s.duration
    for i, value in enumerate(restart_s):
        out[f"partition.restart{i}_s"] = (value, "s")
    won = [s.attrs["restart_won"] for s in by_name["partition.train_partition"] if "restart_won" in s.attrs]
    out["partition.restart_won"] = (statistics.fmean(won) if won else 0.0, "index")
    out["partition.batch_constants_s"] = (total("partition.batch_constants"), "s")
    out["partition.loss_graph_s"] = (total("partition.composite_loss_graph"), "s")
    out["partition.validation_s"] = (total("partition.validation_loss"), "s")
    out["partition.mass_clamps"] = (rec.counters["partition.mass_clamps"], "count")
    out["partition.lb_dropped_batches"] = (rec.counters["partition.lb_dropped_batches"], "count")

    out["bounds.eval_s"] = (total("partition.evaluate_bounds"), "s")
    out["bounds.kernel_s"] = (total("bounds.bounds_on_grid"), "s")
    out["bounds.kernel_calls"] = (len(by_name["bounds.bounds_on_grid"]), "count")
    out["bounds.masked_cells"] = (sum(s.attrs.get("masked_cells", 0) for s in by_name["partition.evaluate_bounds"]),
                                  "count")
    out["metrics.oracle_s"] = (total("metrics.oracle_bounds_dataset3"), "s")

    out["naive.kmeans_s"] = (sum(s.duration for s in by_name["naive.kmeans_fit"] if under(s, "naive.fit_naive")),
                             "s")
    out["naive.fit_s"] = (total("naive.fit_naive"), "s")
    out["naive.bounds_s"] = (total("naive.naive_bounds"), "s")

    busy = capacity = 0.0
    for sweep in by_name["experiments.run_sweep"]:
        if sweep.attrs["jobs"] > 1:
            busy += sum(s.duration for s in runs.values() if s.parent == sweep.id)
            capacity += sweep.attrs["jobs"] * sweep.duration
    out["experiments.pool_idle_share"] = (1.0 - busy / capacity if capacity else 0.0, "share")
    out["experiments.write_s"] = (sum(total(name) for name in WRITES), "s")

    selfs = self_times(spans)
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        if s is not root:
            per_layer[s.name.split(".")[0]] += selfs[s.id]
    for layer, value in per_layer.items():
        out[f"self.{layer}_s"] = (value, "s")
    out["trace.run_s"] = (root.duration, "s")
    out["trace.remainder_s"] = (selfs[root.id], "s")
    out["trace.overhead"] = (root.duration / untraced_run_s - 1.0, "ratio")
    out["trace.spans"] = (len(spans), "count")
    out["trace.worker_spans"] = (rec.worker_spans, "count")
    return out

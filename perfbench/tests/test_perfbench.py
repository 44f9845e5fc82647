"""Tests of the benchmark itself: span arithmetic, patch restoration, worker
span collection and a small end-to-end configuration of every workload.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import functools
import json
import logging
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ivbounds import autodiff, bounds, data, experiments, metrics, naive, nets, nuisance, partition  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = {"n": 300, "overrides": {"max_epochs": 2}}


def _span(id_, start, end, parent=None, name="x"):
    return spans.Span(id_, name, start, end, parent, None)


def test_self_time_subtracts_union_of_children():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, "root"),
        _span("b", 2.0, 5.0, "root"),  # overlaps a, as parallel workers do
        _span("c", 7.0, 8.0, "root"),
        _span("a1", 1.5, 2.0, "a"),
    ]
    selfs = spans.self_times(tree)
    assert selfs["root"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs["a"] == pytest.approx(1.5)
    assert selfs["b"] == pytest.approx(3.0)
    assert selfs["a1"] == pytest.approx(0.5)
    # Without overlap, self times of a tree add up to the root's duration.
    flat = [_span("r", 0.0, 4.0), _span("p", 0.5, 3.0, "r"), _span("q", 1.0, 2.0, "p")]
    assert sum(spans.self_times(flat).values()) == pytest.approx(4.0)


def test_spans_record_parent_and_run():
    rec = spans.Recorder()
    with rec.span("outer") as outer:
        with rec.span(spans.RUN_SPAN) as run_:
            with rec.span("inner") as inner:
                pass
    assert run_.parent == outer.id and inner.parent == run_.id
    assert outer.run is None and run_.run == run_.id and inner.run == run_.id
    assert [s.name for s in rec.spans] == ["inner", spans.RUN_SPAN, "outer"]
    assert all(s.end >= s.start for s in rec.spans)


class _Base:
    def method(self):
        return "base"


class _Child(_Base):
    pass


def test_wrap_records_and_restore_puts_originals_back():
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    rec = spans.Recorder()
    rec.wrap(module, "f", "m.f", attrs=lambda x: {"x": x}, after=lambda span, r: span.attrs.update(r=r))
    rec.wrap(_Child, "method", "child.method")
    assert module.f(2) == 3 and _Child().method() == "base"
    assert [(s.name, s.attrs) for s in rec.spans] == [("m.f", {"x": 2, "r": 3}), ("child.method", {})]
    rec.restore()
    assert module.f is original
    assert "method" not in vars(_Child) and _Child().method() == "base"


def _namespaces():
    owners = (autodiff, bounds, data, experiments, metrics, naive, nets, nuisance, partition,
              bounds.BoundPair, metrics.MetricsReport)
    return {owner: dict(vars(owner)) for owner in owners}


def test_instrumented_restores_every_wrapped_attribute():
    before = _namespaces()
    logger = logging.getLogger(partition.__name__)
    handlers = list(logger.handlers)
    with layers.instrumented(spans.Recorder()):
        assert experiments.run_experiment is not before[experiments]["run_experiment"]
        assert autodiff.backward_grad is not before[autodiff]["backward_grad"]
    after = _namespaces()
    for owner, names in before.items():
        assert set(after[owner]) == set(names), owner
        assert all(after[owner][k] is v for k, v in names.items()), owner
    assert logger.handlers == handlers


def _main(capsys, monkeypatch, workload, trace):
    monkeypatch.setattr(workloads, "execute", functools.partial(workloads.execute, **SMOKE))
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_workload_end_to_end(capsys, monkeypatch, workload):
    code, details, result = _main(capsys, monkeypatch, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert code == 0 and result["correct"] and result["failed"] == 0, details["problems"]
    assert result["attempted"] == len(workloads.WORKLOADS[workload].runs) * len(details["rep_wall_s"])
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert len(details["runs"]) == len(workloads.WORKLOADS[workload].runs)
    assert all(len(r["bounds_sha256"]) == 64 for r in details["runs"])
    assert details["env"]["seed"] == 1 and details["env"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_traced_sweep_collects_worker_spans(capsys, monkeypatch):
    code, details, result = _main(capsys, monkeypatch, "d2-table1-sweep", trace=1)
    assert code == 0 and result["correct"], details["problems"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(values) == [m["name"] for m in SPEC["per_layer"]]
    assert values["trace.worker_spans"] > 0
    assert values["nuisance.fits"] == 2 and values["nuisance.stage1_reuse"] == 0.5
    assert values["nets.steps"] > 0 and values["naive.fit_s"] > 0 and values["experiments.write_s"] > 0
    assert values["partition.restart0_s"] > 0 and values["metrics.oracle_s"] == 0


def test_traced_single_run_accounts_for_run_time(capsys, monkeypatch):
    code, details, result = _main(capsys, monkeypatch, "d3-ours-k8", trace=1)
    assert code == 0 and result["correct"], details["problems"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    layer_self = sum(values[f"self.{layer}_s"] for layer in layers.LAYERS)
    assert layer_self + values["trace.remainder_s"] == pytest.approx(values["trace.run_s"], rel=1e-9)
    assert values["trace.worker_spans"] == 0 and values["nuisance.stage1_reuse"] == 1.0
    assert values["metrics.oracle_s"] > 0 and values["bounds.kernel_calls"] > 0
    assert values["autodiff.nodes_per_step"] > 0 and values["nets.step_us"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "d3-ours-k8", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("dataset, k, width", [(1, 2, 1.10628), (3, 8, 1.49922)])
def test_default_configuration_reproduces_reference_values(tmp_path, dataset, k, width):
    """Seed 0 under the default training configuration (early stopping on)."""
    report = experiments.run_experiment(dataset, "ours", k, 0, workloads.N, tmp_path)
    check = workloads.check_run(report, tmp_path)
    assert check.problems == []
    assert check.coverage == 1.0
    assert round(check.mean_width, 5) == width


def test_workloads_match_benchmark_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)

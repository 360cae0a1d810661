"""Tests of the benchmark harness itself.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import attribution
import run as bench_cli
import serve_bench
import train_bench
from attribution import (
    OpLedger,
    attribute_request,
    decompose_step,
    exclusive_lengths,
    request_windows,
    tail_percentile,
)

from repro.core.config import SARConfig
from repro.datasets import ogbn_papers_mini, ogbn_products_mini
from repro.nn.models import GATNet, GraphSageNet
from repro.sample.loader import NeighborSamplingConfig
from repro.tensor import Tensor, no_grad

HERE = Path(__file__).resolve().parent


# --------------------------------------------------------------------------- #
# tail percentile rule
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("n,percentile", [(20, 50), (50, 80), (55, 81), (99, 89), (5000, 90)])
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile):
    values = list(np.random.default_rng(n).permutation(n).astype(float))
    value, got_percentile, got_n = tail_percentile(values)
    assert (got_percentile, got_n) == (percentile, n)
    assert sum(v > value for v in values) >= attribution.TAIL_MIN_BEYOND
    # The nearest-rank order statistic of that percentile.
    assert value == sorted(values)[int(np.ceil(percentile * n / 100)) - 1]


def test_tail_percentile_falls_back_to_the_median_on_few_samples():
    value, percentile, n = tail_percentile([3.0, 1.0, 2.0, 5.0, 4.0])
    assert (value, percentile, n) == (3.0, 50, 5)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_request_windows_take_the_tail_and_rate_of_each_full_window():
    # Request i is sent at i and takes i / 10 + 1; the last 50 are dropped.
    requests = [(float(i), float(i) + i / 10 + 1) for i in range(250)]
    tails, rates, percentile = request_windows(requests, 100)
    assert percentile == 90
    for k, (tail, rate) in enumerate(zip(tails, rates)):
        window = requests[100 * k:100 * (k + 1)]
        assert tail == tail_percentile([b - a for a, b in window])[0]
        assert rate == pytest.approx(100 / (window[-1][1] - window[0][0]))
    assert len(tails) == 2
    assert request_windows(requests[:99], 100) == ([], [], 0)


def test_tail_and_rate_are_window_medians_and_ignore_a_burst():
    def instance(latencies):
        inst = serve_bench.Instance()
        inst.requests = [(float(i), float(i) + lat) for i, lat in enumerate(latencies)]
        inst.window_s = float(len(latencies))
        return inst

    steady = [1.0 + (i % 10) / 10 for i in range(100)]
    burst = [50.0] * 100
    # One window of five hit by a burst: the whole-run p90 is the burst's.
    plain = [instance(steady * 2 + burst), instance(steady * 2)]
    tail, rate, percentile, windows = serve_bench.tail_and_rate(plain)
    assert tail == pytest.approx(1.8) and (percentile, windows) == (90, 5)
    assert rate == pytest.approx(100 / (99 + steady[99]))
    assert tail_percentile(burst + steady * 4)[0] == 50.0
    # Too few requests for a window: the whole-run tail and rate.
    tail, rate, percentile, windows = serve_bench.tail_and_rate([instance(steady[:30])])
    want, want_percentile, _ = tail_percentile(steady[:30])
    assert tail == pytest.approx(want) and (percentile, windows) == (want_percentile, 0)
    assert rate == pytest.approx(1.0)


# --------------------------------------------------------------------------- #
# failure accounting
# --------------------------------------------------------------------------- #
def test_op_ledger_counts_failed_over_attempted():
    ledger = OpLedger()
    assert ledger.failed_frac == 0.0
    ledger.record(True, 5)
    ledger.record(False, 2)
    ledger.record(True)
    assert (ledger.attempted, ledger.failed) == (8, 2)
    assert ledger.failed_frac == pytest.approx(0.25)


def _tiny(name: str) -> train_bench.TrainWorkload:
    """Small versions of the three training workloads, fixed initial weights.

    Every round's factory loads one fixed state and the models use no
    dropout, so two rounds of the same workload do identical arithmetic (the library's
    shared init RNG is otherwise drawn by worker threads in racing order).
    """
    def products(seed):
        return ogbn_products_mini(scale=0.25, seed=seed)

    def papers(seed):
        return ogbn_papers_mini(scale=0.25, seed=seed)

    def fixed_weights(make):
        states = {}

        def make_factory(dataset):
            key = (dataset.feature_dim, dataset.num_classes)
            if key not in states:
                states[key] = make(*key).state_dict()
            state = states[key]

            def factory(dim):
                model = make(dim, dataset.num_classes)
                model.load_state_dict(state)
                return model
            return factory
        return make_factory

    def sage(dim, classes):
        return GraphSageNet(dim, 16, classes, num_layers=3, dropout=0.0)

    def gat(dim, classes):
        return GATNet(dim, 4, classes, num_layers=3, num_heads=2, dropout=0.0, fused=True)

    if name == "sage-full":
        return train_bench.TrainWorkload(name, 3, products, fixed_weights(sage), SARConfig(),
                                         epochs=3, warmup_steps=1)
    if name == "gat-full":
        return train_bench.TrainWorkload(name, 3, products, fixed_weights(gat),
                                         SARConfig(prefetch=True), epochs=3, warmup_steps=1)
    return train_bench.TrainWorkload(
        name, 2, papers, fixed_weights(sage), SARConfig(), epochs=2, warmup_steps=1,
        sampler=NeighborSamplingConfig(fanouts=(3, 3, 3), batch_size=32))


def test_a_failed_logit_gate_fails_every_step_of_its_round(monkeypatch):
    wl = _tiny("sage-full")
    dataset = wl.make_dataset(0)
    dataset.attach_to_graph()
    monkeypatch.setattr(train_bench, "LOGIT_ATOL", -1.0)
    ledger, errors = OpLedger(), []
    rounds = train_bench._rounds(wl, dataset, 0, 0.0, (False,), ledger, errors)
    assert rounds[False] == []
    assert (ledger.attempted, ledger.failed) == (wl.epochs, wl.epochs)
    assert ledger.failed_frac == 1.0
    assert "final logits differ" in errors[0]


# --------------------------------------------------------------------------- #
# tracing leaves the program's behaviour alone
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["sage-full", "gat-full", "sage-sampled"])
def test_tracing_changes_neither_bytes_nor_logits(name):
    wl = _tiny(name)
    dataset = wl.make_dataset(3)
    dataset.attach_to_graph()
    plain = train_bench.run_round(wl, dataset, 3, traced=False)
    traced = train_bench.run_round(wl, dataset, 3, traced=True)
    assert plain.ok and traced.ok, (plain.error, traced.error)
    for a, b in zip(plain.cluster.comm_stats, traced.cluster.comm_stats):
        assert a.sent_by_tag == b.sent_by_tag
        assert a.received_by_tag == b.received_by_tag
    assert plain.cluster.peak_memory_bytes == traced.cluster.peak_memory_bytes
    np.testing.assert_array_equal(plain.logits, traced.logits)
    # The traced round recorded what the per-layer metrics are built from.
    rank0 = traced.traces[0]
    assert {i for i, *_ in rank0.layer_fwd} == {0, 1, 2}
    assert {i for i, _ in rank0.bwd_marks} == {0, 1, 2}
    assert any(op == "allreduce" and tag == "grad_sync" for op, tag, *_ in rank0.comm)
    assert plain.traces[0].comm == [] and plain.traces[0].layer_fwd == []


def test_traced_step_parts_sum_to_the_step():
    wl = _tiny("gat-full")
    dataset = wl.make_dataset(1)
    dataset.attach_to_graph()
    rnd = train_bench.run_round(wl, dataset, 1, traced=True)
    assert rnd.ok, rnd.error
    layers = train_bench._layer_metrics(wl, [rnd])
    parts = sum(layers[f"nn.layer{i}.{p}_s"] for i in range(3) for p in ("fwd", "bwd"))
    parts += sum(layers[f"training.{k}_s"] for k in ("grad_sync", "between_steps",
                                                      "unattributed"))
    assert parts == pytest.approx(layers["training.traced_step_mean_s"], rel=1e-9)
    assert layers["distributed.bytes.backward_refetch"] > 0
    assert layers["core.resident_blocks_max"] == 2


def test_served_request_parts_sum_to_the_latency():
    dataset = ogbn_papers_mini(scale=0.25, seed=0)
    model = GraphSageNet(dataset.feature_dim, 16, dataset.num_classes, num_layers=2,
                         dropout=0.0)
    model.eval()
    with no_grad():
        reference = model(dataset.graph, Tensor(dataset.features)).data
    streams = serve_bench.request_streams(dataset.num_nodes, 0)
    ledger = OpLedger()
    inst = serve_bench.run_instance(model, dataset, reference, streams, 0, 1.0, True, ledger)
    assert inst.ok, inst.errors
    assert ledger.failed == 0 and len(inst.requests) > 0
    assert {layer for _, layer, *_ in inst.spans} == {0, 1}
    assert inst.peak_mb > 0
    layers = serve_bench._layer_metrics([inst])
    parts = sum(layers[f"nn.layer{i}.serve_fwd_s"] for i in range(2)) * 1e3
    assert parts + layers["serving.unattributed_ms"] == pytest.approx(
        layers["serving.latency_mean_ms"], rel=1e-9)
    assert parts > 0
    assert layers["serving.fast_path_share"] == 0.0
    assert layers["serving.requests_per_batch"] >= 1.0


# --------------------------------------------------------------------------- #
# span arithmetic
# --------------------------------------------------------------------------- #
def test_decompose_step_parts_sum_to_the_step():
    fwd = [(0, 1.0, 2.0), (1, 2.5, 3.0)]
    marks = [(1, 4.0), (0, 5.0)]
    comm = [("fetch", "forward_halo", 1.2, 1.5), ("allreduce", "batchnorm_grad", 4.5, 4.6),
            ("allreduce", "allreduce", 6.0, 6.1), ("allreduce", "grad_sync", 6.2, 7.0)]
    parts = decompose_step(0.5, 9.0, 2, fwd, marks, comm)
    assert parts["layer0.fwd"] == 1.0
    assert parts["layer0.fwd_comm"] == pytest.approx(0.3)
    assert parts["layer1.bwd"] == 1.0 and parts["layer1.bwd_comm"] == pytest.approx(0.1)
    assert parts["layer0.bwd"] == 1.0          # mark 5.0 -> first plain allreduce at 6.0
    assert parts["grad_sync"] == pytest.approx(1.0)
    assert parts["between_steps"] == pytest.approx(2.0)
    total = sum(v for k, v in parts.items()
                if k.count(".") == 1 and not k.endswith(("_comm", "_self")))
    total += parts["grad_sync"] + parts["between_steps"] + parts["unattributed"]
    assert total == pytest.approx(parts["step"]) and parts["step"] == 8.5


def test_request_attribution_claims_each_instant_once():
    assert exclusive_lengths([(0.0, 2.0), (1.0, 3.0), None, (0.5, 2.5)]) == [2.0, 1.0, 0.0, 0.0]
    spans = [(0, 1.0, 2.0), (0, 1.5, 2.2), (1, 2.1, 2.6), (1, 0.2, 3.5)]
    parts = attribute_request(1.0, 3.0, 2, spans)
    assert parts["layer0"] == pytest.approx(1.2)      # both shards: 1.0 .. 2.2
    assert parts["layer1"] == pytest.approx(0.4)      # 2.1 .. 2.6 minus overlap
    assert parts["layer0"] + parts["layer1"] + parts["unattributed"] == pytest.approx(2.0)


# --------------------------------------------------------------------------- #
# the command and its contract
# --------------------------------------------------------------------------- #
def test_benchmark_json_matches_the_registry():
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert committed == bench_cli.spec()
    assert {w["name"] for w in committed["workloads"]} == set(bench_cli.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in committed["workloads"])
    names = [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names))


def test_per_layer_outputs_are_registered():
    wl = _tiny("sage-sampled")
    dataset = wl.make_dataset(2)
    dataset.attach_to_graph()
    rnd = train_bench.run_round(wl, dataset, 2, traced=True)
    assert rnd.ok, rnd.error
    registered = {name for name, _, _ in bench_cli.PER_LAYER}
    assert set(train_bench._layer_metrics(wl, [rnd])) <= registered


def test_without_the_library_source_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sage-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Serving workload: a 2-layer SAGE model served by forked shard processes.

A run starts several servers one after another (``INSTANCES``).  Each
instance partitions the graph, shards it, builds the server through the
public :func:`repro.serving.create_server` with ``backend="mp"``, starts it
(fork plus Manager start) and warms it up; that is its set-up.  Then
``CLIENTS`` threads run a closed loop of single-node ``predict()`` calls,
each sent when the previous one returns, until the instance's share of the
run is spent.  Every served row is checked against the full-graph eval
forward bit for bit.

The requested nodes follow a Zipf law over a seeded permutation of the
nodes, so a few nodes are hot, as with real users; with no embedding cache
the hot nodes still pay their whole receptive field on every request.
"""

from __future__ import annotations

import bisect
import copy
import multiprocessing as mp
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Tuple

import numpy as np

from attribution import (
    OpLedger,
    attribute_request,
    mean_parts,
    request_windows,
    tail_percentile,
)
from tracing import SERVING_FLUSH_S, clock, instrument_serving_model
from train_bench import halo_rows

from repro.datasets import ogbn_papers_mini
from repro.nn.models import GraphSageNet
from repro.partition import PartitionBook, create_shards, partition_graph
from repro.serving import ServingConfig, create_server
from repro.tensor import Tensor, no_grad
from repro.tensor.memory import MemoryTracker, track_memory
from repro.utils.seed import set_seed

SHARDS = 2
#: Two clients per shard.  With one per shard the request path is bound by
#: hand-offs between processes, not by CPU: the vCPUs idle between them, and
#: on a 2-vCPU VM how fast the host woke an idle vCPU set the latency (a
#: CPU-bound process running beside the benchmark made requests faster).
#: Four clients keep the shards busy: in six interleaved pairs of 25 s runs
#: they served 1.8x the requests per second at a median latency 9 % higher,
#: and the IQR over median of the runs' median latency, tail and rate fell
#: from 7.5, 8.3 and 8.8 % to 2.8, 4.9 and 3.6 %.
CLIENTS = 4
NUM_LAYERS = 2
INSTANCES = 3
#: requests per client sent before timing starts, from the head of its stream
WARMUP_REQUESTS = 10
ZIPF_A = 1.1
#: a request that takes longer fails (and ends its client's loop)
PREDICT_TIMEOUT_S = 20.0
#: requests drawn per client; far more than a run can send
STREAM_LENGTH = 50_000
#: timed requests per measuring window: the p90 of 100 keeps 10 samples beyond it
WINDOW_REQUESTS = 100


def request_streams(num_nodes: int, seed: int) -> List[np.ndarray]:
    """One Zipf-skewed node-id stream per client, fixed by ``seed``."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_nodes)
    streams = []
    for _ in range(CLIENTS):
        ranks = rng.zipf(ZIPF_A, size=STREAM_LENGTH)
        streams.append(order[(ranks - 1) % num_nodes])
    return streams


def window_counters(stats: dict) -> Dict[str, int]:
    """The server ``stats()`` counters the per-layer metrics difference."""
    comm = [worker["comm"] for worker in stats["workers"]]
    store = stats["feature_store"] or {}
    return {
        "requests": stats["served_requests"],
        "batches": stats["batches"],
        "seeds": stats["seeds_executed"],
        "fast_path_batches": stats["fast_path_batches"],
        "halo_bytes": sum(c["halo_bytes_received"] for c in comm),
        "frontier_bytes": sum(c["frontier_bytes_received"] for c in comm),
        "kv_hits": store.get("cache_hits", 0),
        "kv_misses": store.get("cache_misses", 0),
        "kv_bytes": store.get("bytes_fetched", 0),
    }


@dataclass
class Instance:
    ok: bool = True
    #: ``(submit, done)`` of every timed request
    requests: List[Tuple[float, float]] = field(default_factory=list)
    window_s: float = 0.0
    setup_s: float = 0.0
    partition_s: float = 0.0
    shards_s: float = 0.0
    halo_rows: int = 0
    peak_mb: float = 0.0
    #: ``(pid, layer, start, end, plan_builds)`` of the timed window
    spans: List[Tuple[int, int, float, float, int]] = field(default_factory=list)
    #: :func:`window_counters` growth over the timed window
    counters: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def _client(server, stream, reference, count, deadline, log, errors):
    """Closed loop: one request in flight; stops after ``count`` or at ``deadline``."""
    for node in stream[:count]:
        if deadline is not None and clock() >= deadline:
            return
        submit = clock()
        try:
            rows = server.predict([int(node)])
        except Exception as exc:  # noqa: BLE001 - counted as failed; the client stops
            log.append((submit, clock(), False))
            errors.append(f"predict({int(node)}) raised {exc!r}")
            return
        done = clock()
        ok = np.array_equal(rows, reference[[int(node)]])
        if not ok:
            errors.append(f"predict({int(node)}) differs from the full-graph forward")
        log.append((submit, done, ok))


def _drive(server, streams, reference, start, count, deadline):
    logs = [[] for _ in streams]
    errors: List[str] = []
    threads = [threading.Thread(target=_client,
                                args=(server, s[start:], reference, count, deadline,
                                      log, errors))
               for s, log in zip(streams, logs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [entry for log in logs for entry in log], errors


def _predict_all(server, reference):
    """One request for every node; every shard computes every layer."""
    submit = clock()
    ok = np.array_equal(server.predict(np.arange(len(reference))), reference)
    return [(submit, clock(), ok)], [] if ok else [
        "predict(all nodes) differs from the full-graph forward"]


def _account(inst, ledger, log, errors, timed):
    inst.errors += errors
    for submit, done, ok in log:
        ledger.record(ok)
        if ok and timed:
            inst.requests.append((submit, done))


def run_instance(model, dataset, reference, streams, seed, seconds, traced,
                 ledger: OpLedger) -> Instance:
    inst = Instance()
    start = clock()
    assignment = partition_graph(dataset.graph, SHARDS, seed=seed)
    partitioned = clock()
    shards = create_shards(dataset.graph, PartitionBook(assignment, SHARDS))
    sharded = clock()
    inst.partition_s, inst.shards_s = partitioned - start, sharded - partitioned
    inst.halo_rows = halo_rows(shards)
    channel = mp.get_context("fork").SimpleQueue()
    served = instrument_serving_model(copy.deepcopy(model), channel, traced)
    received: list = []

    def drain():
        while True:
            message = channel.get()
            if message is None:
                return
            received.append(message)

    server = create_server(served, shards, dataset.features,
                           ServingConfig(backend="mp", window_ms=2.0,
                                         predict_timeout_s=PREDICT_TIMEOUT_S))
    drainer = threading.Thread(target=drain, name="span-drain")
    window = None
    try:
        # Shard processes fork from this thread and inherit the tracker, so
        # every tensor they allocate is counted against it.
        with track_memory(MemoryTracker(label="serving-shard")):
            server.start()
        drainer.start()
        # Warm-up: one request for every node fills each shard's KV
        # hot-row cache (the remote feature rows fit its budget), the
        # steady state of a long-running server; then the head of the
        # request stream.
        _account(inst, ledger, *_predict_all(server, reference), timed=False)
        log, errors = _drive(server, streams, reference, 0, WARMUP_REQUESTS, None)
        _account(inst, ledger, log, errors, timed=False)
        if not inst.errors:
            before = window_counters(server.stats())
            timed_start = clock()
            inst.setup_s = timed_start - start
            log, errors = _drive(server, streams, reference, WARMUP_REQUESTS,
                                 STREAM_LENGTH, timed_start + seconds)
            window = (timed_start, clock())
            inst.window_s = window[1] - window[0]
            _account(inst, ledger, log, errors, timed=True)
            after = window_counters(server.stats())
            inst.counters = {key: after[key] - before[key] for key in after}
            # Make every shard ship what it still buffers.
            time.sleep(SERVING_FLUSH_S)
            _account(inst, ledger, *_predict_all(server, reference), timed=False)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run, never hidden
        inst.errors.append(f"serving instance failed: {exc!r}")
    finally:
        server.stop()
        channel.put(None)
        if drainer.is_alive():
            drainer.join()
        channel.close()
    inst.ok = not inst.errors
    peaks: Dict[int, int] = {}
    for pid, peak, spans in received:
        peaks[pid] = max(peaks.get(pid, 0), peak)
        if window is not None:
            inst.spans += [s for s in spans if window[0] <= s[2] < window[1]]
    inst.peak_mb = max(peaks.values(), default=0) / 2**20
    return inst


def tail_and_rate(instances: List[Instance]) -> Tuple[float, float, int, int]:
    """``op_tail_ms`` and ``ops_per_s``: medians over windows of requests.

    Each instance's timed requests, in the order they were sent, are cut into
    windows of ``WINDOW_REQUESTS`` (:func:`request_windows`); the tail is the
    median of the windows' :func:`tail_percentile` latencies, the rate the
    median of their completion rates.  On a shared host a spell of load
    slows the windows it covers, while a whole-run percentile moves as soon
    as it delays a tenth of the requests, and a whole-run mean with any
    share.  Returns ``(tail, rate, percentile, windows)``; a run too short to
    fill a window reports the whole-run tail and rate with ``windows`` 0.
    """
    tails, rates, percentile = [], [], 0
    for inst in instances:
        got_tails, got_rates, percentile = request_windows(sorted(inst.requests),
                                                           WINDOW_REQUESTS)
        tails += got_tails
        rates += got_rates
    if tails:
        return median(tails), median(rates), percentile, len(tails)
    latencies = [done - submit for inst in instances for submit, done in inst.requests]
    tail, percentile, _ = tail_percentile(latencies)
    return tail, len(latencies) / sum(inst.window_s for inst in instances), percentile, 0


def _layer_metrics(instances: List[Instance]) -> Dict[str, float]:
    """Per-request split of traced instances plus the servers' own counters."""
    rows = []
    hits = lookups = 0
    for inst in instances:
        spans = sorted((start, end, layer) for _, layer, start, end, _ in inst.spans)
        starts = [s[0] for s in spans]
        for submit, done in inst.requests:
            lo = bisect.bisect_left(starts, submit)
            hi = bisect.bisect_right(starts, done)
            rows.append(attribute_request(submit, done, NUM_LAYERS,
                                          [(layer, a, b) for a, b, layer in spans[lo:hi]]))
        layer0 = [builds for _, layer, _, _, builds in inst.spans if layer == 0]
        lookups += len(layer0)
        hits += sum(1 for builds in layer0 if builds == 0)
    parts = mean_parts(rows)
    out = {f"nn.layer{i}.serve_fwd_s": parts[f"layer{i}"] for i in range(NUM_LAYERS)}
    out["serving.unattributed_ms"] = parts["unattributed"] * 1e3
    out["serving.latency_mean_ms"] = parts["latency"] * 1e3
    out["serving.plan_cache_hit_rate"] = hits / lookups if lookups else 0.0

    def ratio(numerator, denominator):
        return median([inst.counters[numerator] / max(inst.counters[denominator], 1)
                       for inst in instances])

    out.update({
        "distributed.halo_bytes_per_req": ratio("halo_bytes", "requests"),
        "distributed.frontier_bytes_per_req": ratio("frontier_bytes", "requests"),
        "store.kv_hit_rate": median([
            inst.counters["kv_hits"]
            / max(inst.counters["kv_hits"] + inst.counters["kv_misses"], 1)
            for inst in instances]),
        "store.bytes_fetched_per_req": ratio("kv_bytes", "requests"),
        "serving.requests_per_batch": ratio("requests", "batches"),
        "serving.seeds_per_batch": ratio("seeds", "batches"),
        "serving.fast_path_share": ratio("fast_path_batches", "batches"),
    })
    return out


def _instances(model, dataset, reference, streams, seed, seconds, modes, ledger, errors):
    """``INSTANCES`` servers per mode, alternating modes (``traced`` flags)."""
    done: Dict[bool, List[Instance]] = {mode: [] for mode in modes}
    share = seconds / (INSTANCES * len(modes))
    for turn in range(INSTANCES * len(modes)):
        mode = modes[turn % len(modes)]
        inst = run_instance(model, dataset, reference, streams, seed, share, mode, ledger)
        errors += inst.errors
        if not inst.ok:
            break
        done[mode].append(inst)
    return done


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of the ``serve-mp`` workload; see ``run.py``."""
    dataset = ogbn_papers_mini(scale=2.0, seed=seed)
    set_seed(seed)
    model = GraphSageNet(dataset.feature_dim, 64, dataset.num_classes,
                         num_layers=NUM_LAYERS, dropout=0.0)
    model.eval()
    with no_grad():
        reference = model(dataset.graph, Tensor(dataset.features)).data
    streams = request_streams(dataset.num_nodes, seed)
    ledger, errors = OpLedger(), []
    runs = _instances(model, dataset, reference, streams, seed, seconds,
                      (False, True) if trace else (False,), ledger, errors)
    plain, traced = runs[False], runs.get(True, [])
    outcome = {"ledger": ledger, "errors": errors, "e2e": {}, "layers": {}, "notes": {}}
    if errors:
        return outcome
    latencies = [done - submit for inst in plain for submit, done in inst.requests]
    tail, rate, percentile, windows = tail_and_rate(plain)
    outcome["e2e"] = {
        "op_p50_ms": median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "ops_per_s": rate,
        "peak_mem_mb": median([inst.peak_mb for inst in plain]),
        "setup_s": median([inst.setup_s for inst in plain]),
    }
    outcome["notes"] = {"op": "predict() request", "tail_percentile": percentile,
                        "samples": len(latencies), "window_requests": WINDOW_REQUESTS,
                        "windows": windows, "instances": len(plain)}
    if not trace:
        return outcome
    layers = _layer_metrics(traced)
    untraced_ms = outcome["e2e"]["op_p50_ms"]
    traced_ms = median([done - submit for inst in traced
                        for submit, done in inst.requests]) * 1e3
    layers.update({
        "partition.partition_s": median([i.partition_s for i in plain + traced]),
        "partition.shards_s": median([i.shards_s for i in plain + traced]),
        "partition.halo_rows": plain[0].halo_rows,
        "trace.untraced_op_ms": untraced_ms,
        "trace.traced_op_ms": traced_ms,
        "trace.overhead": traced_ms / untraced_ms - 1.0,
    })
    outcome["layers"] = layers
    return outcome

"""Distributed serving: bit-parity over shards, one configured API surface.

The subsystem contract under test (``repro/serving/``):

* every logit row served by
  :class:`~repro.serving.DistributedInferenceServer` (per-shard workers,
  cooperative restricted grids, halo fetches for cache-missed frontier rows)
  is **bit-identical** to the single-machine
  :class:`~repro.serving.InferenceServer` on the same graph — for every conv
  kind, cold and warm caches, and under concurrent clients;
* ``update()`` serializes behind in-flight batches and invalidates the
  embedding cache on **every** shard; a feature-store ``replace()`` folds in
  at the next batch on every shard;
* :func:`~repro.serving.create_server` is the one public entry point:
  :class:`~repro.serving.ServingConfig` selects the backend, both backends
  implement :class:`~repro.serving.ServerProtocol` and share one ``stats()``
  shape (plus per-worker halo/frontier/cache telemetry on the distributed
  one);
* calling ``update()``/``predict()`` on a never-started server raises a
  RuntimeError that says so (regression: it used to be indistinguishable
  from a stopped server);
* both shard backends run one shard service over one job loop, so a shard
  that raises or dies fails the request with
  :class:`~repro.distributed.service.WorkerFailedError` naming its rank on
  threads and on forked processes alike.

The parity tests take a ``backend`` argument (default ``"distributed"``);
``tests/test_mp_serving.py`` runs the same bodies with ``backend="mp"``.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time

import numpy as np
import pytest

from repro.datasets import make_sbm_dataset
from repro.distributed.service import WorkerFailedError
from repro.nn.models import GATNet, GraphSageNet
from repro.partition import PartitionBook, create_shards, partition_graph
from repro.serving import (
    DistributedInferenceServer,
    InferenceServer,
    ServerProtocol,
    ServingConfig,
    create_server,
)
from repro.store import DenseStore
from repro.serving import distributed as dist_serving
from repro.tensor import Tensor, no_grad
from repro.utils.seed import set_seed

#: per-worker serving telemetry keys (CommStats.serving_snapshot()).
_COMM_KEYS = {
    "halo_bytes_sent", "halo_bytes_received",
    "frontier_bytes_sent", "frontier_bytes_received",
    "cache_hit_rows", "cache_miss_rows", "cache_hit_bytes",
}


@pytest.fixture
def dataset():
    return make_sbm_dataset(
        name="dist-serving-sbm",
        num_nodes=180,
        num_classes=4,
        feature_dim=10,
        p_in=0.12,
        p_out=0.02,
    )


def _make_model(dataset, kind="sage"):
    set_seed(0)
    if kind == "gat":
        return GATNet(
            dataset.feature_dim, 8, dataset.num_classes, num_layers=2,
            num_heads=2, dropout=0.0, use_batch_norm=True,
        )
    return GraphSageNet(
        dataset.feature_dim, 16, dataset.num_classes, num_layers=2,
        dropout=0.5, use_batch_norm=True,
    )


def _make_shards(dataset, world_size):
    book = PartitionBook(
        partition_graph(dataset.graph, world_size, seed=0), world_size
    )
    return create_shards(dataset.graph, book)


def _reference_logits(model, graph, features):
    model.eval()
    with no_grad():
        return model(graph, Tensor(features)).data


_needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="mp serving backend requires the fork start method",
)
#: both shard backends; the mp case is skipped where fork is unavailable.
_SHARD_BACKENDS = ["distributed", pytest.param("mp", marks=_needs_fork)]
#: generous wall-clock bound proving "no hang" on the failure paths (the
#: healthy path resolves in well under a second).
_NO_HANG_S = 60.0


def _assert_no_leaked_children():
    # The mp cluster's workers and its Manager process are all direct
    # children; give slow reapers a moment, then require the process table
    # clean.
    deadline = time.monotonic() + 10.0
    while mp.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert mp.active_children() == []


# --------------------------------------------------------------------------- #
# parity matrix: distributed == single-machine, bit for bit
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["sage", "gat"])
@pytest.mark.parametrize("byte_budget", [None, 1 << 20])
def test_distributed_bit_identical_to_local_server(dataset, kind, byte_budget,
                                                  backend="distributed"):
    """sage/gat x cache-on/off x cold+warm: exact rows from 2 shards."""
    model = _make_model(dataset, kind)
    streams = [[5], [3, 1, 4, 1, 5], [0, 179], list(range(40))]
    with create_server(
        model, dataset.graph, dataset.features,
        ServingConfig(window_ms=0.0, byte_budget=byte_budget),
    ) as local:
        expected = [local.predict(ids) for ids in streams]

    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend=backend, window_ms=0.0, byte_budget=byte_budget)
    with create_server(model, shards, dataset.features, config) as server:
        assert isinstance(server, DistributedInferenceServer)
        assert isinstance(server, ServerProtocol)
        if backend == "mp":
            assert len(server.processes) == 2
            assert all(p.is_alive() for p in server.processes)
        for ids, want in zip(streams, expected):  # cold caches
            np.testing.assert_array_equal(server.predict(ids), want)
        for ids, want in zip(streams, expected):  # warm caches
            np.testing.assert_array_equal(server.predict(ids), want)
        stats = server.stats()
    if byte_budget is not None:
        # Warm repeats hit the all-logits fast path on every shard.
        assert stats["fast_path_batches"] >= 1
    assert stats["served_requests"] == 2 * len(streams)
    if backend == "mp":
        _assert_no_leaked_children()


def test_concurrent_clients_distributed_bit_identical(dataset, backend="distributed"):
    """Coalesced concurrent requests over 3 shards all get exact rows."""
    model = _make_model(dataset, "gat")
    reference = _reference_logits(model, dataset.graph, dataset.features)
    rng = np.random.default_rng(11)
    streams = [
        rng.integers(0, dataset.graph.num_nodes, size=10) for _ in range(6)
    ]
    errors = []
    shards = _make_shards(dataset, 3)
    config = ServingConfig(backend=backend, window_ms=2.0, byte_budget=1 << 20)
    with create_server(model, shards, dataset.features, config) as server:

        def client(stream):
            try:
                for node in stream:
                    row = server.predict([int(node)])
                    np.testing.assert_array_equal(row[0], reference[node])
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(s,)) for s in streams]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = server.stats()
    assert not errors
    assert stats["served_requests"] == sum(len(s) for s in streams)
    if backend == "mp":
        _assert_no_leaked_children()


# --------------------------------------------------------------------------- #
# invalidation: updates and store versions reach every shard
# --------------------------------------------------------------------------- #
def test_update_invalidates_every_shard(dataset, backend="distributed"):
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    ids = [3, 17, 90, 140]
    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend=backend, window_ms=0.0, byte_budget=1 << 20)
    with create_server(model, shards, dataset.features, config) as server:
        np.testing.assert_array_equal(server.predict(ids), reference[ids])
        assert server.version == 1

        def perturb(m):
            for param in m.parameters():
                param.data[...] = param.data + 0.25

        assert server.update(perturb) == 2
        # The parent model mutated; forked workers must serve the *new*
        # weights even though they forked the old ones.
        new_reference = _reference_logits(model, dataset.graph, dataset.features)
        assert not np.array_equal(new_reference, reference)
        np.testing.assert_array_equal(server.predict(ids), new_reference[ids])
        stats = server.stats()
    assert stats["updates"] == 1
    assert stats["embedding_cache"]["version"] == 2
    for worker in stats["workers"]:
        assert worker["embedding_cache"]["version"] == 2
        assert worker["embedding_cache"]["invalidations"] >= 1
    if backend == "mp":
        _assert_no_leaked_children()


def test_store_replace_folds_into_every_shard(dataset, backend="distributed"):
    """A store's replace() reaches and invalidates all shards at the next batch."""
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    ids = [3, 17, 90]
    store = DenseStore(dataset.features.copy())
    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend=backend, window_ms=0.0, byte_budget=1 << 20)
    with create_server(model, shards, store, config) as server:
        np.testing.assert_array_equal(server.predict(ids), reference[ids])
        fresh = dataset.features * 1.5
        store.replace(fresh)
        new_reference = _reference_logits(model, dataset.graph, fresh)
        assert not np.array_equal(new_reference, reference)
        np.testing.assert_array_equal(server.predict(ids), new_reference[ids])
        stats = server.stats()
    assert stats["store_version"] == 2
    for worker in stats["workers"]:
        assert worker["embedding_cache"]["invalidations"] >= 1
    if backend == "mp":
        _assert_no_leaked_children()


# --------------------------------------------------------------------------- #
# feature delivery forms
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("form", ["global-kv", "per-worker-kv", "global-dense"])
def test_feature_forms_serve_identical_rows(dataset, form, backend="distributed"):
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    ids = [7, 42, 100, 150]
    shards = _make_shards(dataset, 2)
    book = shards[0].book
    if form == "per-worker-kv":
        features = [dataset.features[book.nodes_of(p)] for p in range(2)]
    else:
        features = dataset.features
    store_kind = "dense" if form == "global-dense" else "kv"
    config = ServingConfig(backend=backend, window_ms=0.0, feature_store=store_kind)
    with create_server(model, shards, features, config) as server:
        np.testing.assert_array_equal(server.predict(ids), reference[ids])
        stats = server.stats()
    if store_kind == "kv":
        # PartitionedKVStore telemetry surfaces per worker and aggregated.
        for worker in stats["workers"]:
            assert worker["feature_store"]
        assert stats["feature_store"]
    if backend == "mp":
        _assert_no_leaked_children()


def test_per_worker_dense_features_become_one_shared_matrix(dataset, monkeypatch):
    # Owned-row matrices under feature_store="dense" are assembled into one
    # global matrix at construction; every shard worker's store reads it.
    stores = []
    build = dist_serving._build_worker_store

    def recording_build(*args):
        stores.append(build(*args))
        return stores[-1]

    monkeypatch.setattr(dist_serving, "_build_worker_store", recording_build)
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    ids = [7, 42, 100, 150]
    shards = _make_shards(dataset, 2)
    book = shards[0].book
    features = [dataset.features[book.nodes_of(p)] for p in range(2)]
    config = ServingConfig(backend="distributed", window_ms=0.0, feature_store="dense")
    with create_server(model, shards, features, config) as server:
        np.testing.assert_array_equal(server.predict(ids), reference[ids])
    matrices = [store.matrix for store in stores]
    assert len(matrices) == 2
    assert all(matrix is matrices[0] for matrix in matrices)
    np.testing.assert_array_equal(matrices[0], dataset.features)


# --------------------------------------------------------------------------- #
# the redesigned API surface
# --------------------------------------------------------------------------- #
def test_factory_dispatches_on_backend(dataset):
    model = _make_model(dataset)
    shards = _make_shards(dataset, 2)
    local = create_server(model, dataset.graph, dataset.features)
    assert isinstance(local, InferenceServer)
    assert isinstance(local, ServerProtocol)
    assert not local.running
    dist = create_server(
        model, shards, dataset.features, ServingConfig(backend="distributed")
    )
    assert isinstance(dist, DistributedInferenceServer)
    assert isinstance(dist, ServerProtocol)
    assert not dist.running
    procs = create_server(
        model, shards, dataset.features, ServingConfig(backend="mp")
    )
    assert isinstance(procs, DistributedInferenceServer)
    assert procs.backend == "mp"
    assert not procs.running


def test_factory_rejects_mismatched_topology(dataset):
    model = _make_model(dataset)
    shards = _make_shards(dataset, 2)
    with pytest.raises(ValueError, match="backend='distributed'"):
        create_server(model, shards, dataset.features)  # shard list, local
    with pytest.raises(ValueError, match="create_shards"):
        create_server(
            model, dataset.graph, dataset.features,
            ServingConfig(backend="distributed"),
        )
    with pytest.raises(ValueError, match="ServingConfig"):
        create_server(model, dataset.graph, dataset.features, config={"window_ms": 1})
    with pytest.raises(ValueError, match="local backend"):
        InferenceServer(
            model, dataset.graph, dataset.features,
            config=ServingConfig(backend="distributed"),
        )
    with pytest.raises(ValueError, match="distributed backend"):
        DistributedInferenceServer(
            model, shards, dataset.features, config=ServingConfig()
        )
    with pytest.raises(ValueError, match="rank order"):
        DistributedInferenceServer(
            model, shards[::-1], dataset.features,
            config=ServingConfig(backend="distributed"),
        )


def test_serving_config_validates():
    with pytest.raises(ValueError, match="backend"):
        ServingConfig(backend="remote")
    with pytest.raises(ValueError, match="window_ms"):
        ServingConfig(window_ms=-1.0)
    with pytest.raises(ValueError, match="byte_budget"):
        ServingConfig(byte_budget=0)
    with pytest.raises(ValueError, match="cache_admission"):
        ServingConfig(cache_admission="lfu")
    with pytest.raises(ValueError, match="feature_store"):
        ServingConfig(feature_store="mmap")
    with pytest.raises(ValueError, match="restriction_slots"):
        ServingConfig(restriction_slots=0)


def test_serving_config_rejects_invalid_cross_field_combinations():
    """Combinations that would only misbehave mid-serve raise at construction."""
    # An admission gate on a disabled cache silently configures nothing.
    with pytest.raises(ValueError, match="byte_budget"):
        ServingConfig(cache_admission="frequency", byte_budget=None)
    # A predict timeout inside the coalescing window can never be met.
    with pytest.raises(ValueError, match="predict_timeout_s"):
        ServingConfig(window_ms=500.0, predict_timeout_s=0.25)
    # The boundary itself is rejected (timeout must strictly exceed).
    with pytest.raises(ValueError, match="predict_timeout_s"):
        ServingConfig(window_ms=1000.0, predict_timeout_s=1.0)
    # Valid neighbours of both combinations still construct.
    ServingConfig(cache_admission="frequency", byte_budget=1 << 16)
    ServingConfig(window_ms=500.0, predict_timeout_s=1.0)


# --------------------------------------------------------------------------- #
# lifecycle regressions
# --------------------------------------------------------------------------- #
def test_update_on_never_started_server_raises_clearly(dataset):
    """Regression: update()/predict() pre-start must say "never started"."""
    model = _make_model(dataset)
    shards = _make_shards(dataset, 2)
    for server in (
        InferenceServer(model, dataset.graph, dataset.features),
        DistributedInferenceServer(
            model, shards, dataset.features,
            config=ServingConfig(backend="distributed"),
        ),
    ):
        with pytest.raises(RuntimeError, match="never started"):
            server.update(lambda m: None)
        with pytest.raises(RuntimeError, match="never started"):
            server.predict([0])
        # Both phrasings keep the historical "not running" needle.
        with pytest.raises(RuntimeError, match="not running"):
            server.update()


def test_stopped_server_message_differs_from_never_started(dataset):
    model = _make_model(dataset)
    server = InferenceServer(model, dataset.graph, dataset.features)
    server.start()
    server.stop()
    with pytest.raises(RuntimeError, match="not running") as excinfo:
        server.update()
    assert "never started" not in str(excinfo.value)
    with pytest.raises(RuntimeError, match="restarted"):
        server.start()


def test_distributed_lifecycle_and_validation(dataset):
    model = _make_model(dataset)
    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend="distributed", window_ms=0.0)
    server = create_server(model, shards, dataset.features, config)
    server.start()
    assert server.running
    assert server.predict(np.array([], dtype=np.int64)).size == 0
    with pytest.raises(ValueError, match="node_ids"):
        server.predict([dataset.graph.num_nodes])
    with pytest.raises(ValueError, match="node_ids"):
        server.predict([-1])
    server.stop()
    assert not server.running
    with pytest.raises(RuntimeError, match="not running"):
        server.predict([0])
    with pytest.raises(RuntimeError, match="restarted"):
        server.start()


# --------------------------------------------------------------------------- #
# one stats() shape, two backends
# --------------------------------------------------------------------------- #
def test_stats_shape_is_shared_and_workers_carry_comm_telemetry(dataset):
    model = _make_model(dataset)
    ids = [3, 17, 90, 140]
    with create_server(
        model, dataset.graph, dataset.features,
        ServingConfig(window_ms=0.0, byte_budget=1 << 20),
    ) as local:
        local.predict(ids)
        local_stats = local.stats()
    shards = _make_shards(dataset, 2)
    config = ServingConfig(
        backend="distributed", window_ms=0.0, byte_budget=1 << 20
    )
    with create_server(model, shards, dataset.features, config) as dist:
        dist.predict(ids)
        dist.predict(ids)  # warm repeat exercises cache telemetry
        dist_stats = dist.stats()

    assert set(local_stats) == set(dist_stats)
    assert local_stats["backend"] == "local"
    assert local_stats["workers"] is None
    assert dist_stats["backend"] == "distributed"
    workers = dist_stats["workers"]
    assert [w["rank"] for w in workers] == [0, 1]
    for worker in workers:
        assert {"rank", "embedding_cache", "feature_store", "comm"} <= set(worker)
        assert _COMM_KEYS <= set(worker["comm"])
    # The cooperative walk moved frontier bytes; activations crossed shard
    # boundaries through the halo fetch path on at least one worker.
    assert sum(w["comm"]["frontier_bytes_sent"] for w in workers) > 0
    assert sum(w["comm"]["halo_bytes_received"] for w in workers) > 0
    # Aggregated embedding-cache counters cover the per-worker caches.
    agg = dist_stats["embedding_cache"]
    assert agg["hits"] == sum(
        w["embedding_cache"]["hits"] for w in workers
    )


# --------------------------------------------------------------------------- #
# lifecycle properties: one contract, every backend
# --------------------------------------------------------------------------- #
_ALL_BACKENDS = ["local", "distributed", "mp"]


@pytest.fixture(params=_ALL_BACKENDS)
def backend_server(request, dataset):
    """An unstarted server of each backend over the same model and graph.

    One fixture drives the whole lifecycle matrix so a new backend only has
    to join ``_ALL_BACKENDS`` to inherit every property test below.
    """
    if request.param == "mp":
        import multiprocessing as _mp

        if "fork" not in _mp.get_all_start_methods():
            pytest.skip("mp serving backend requires the fork start method")
    model = _make_model(dataset)
    config = ServingConfig(backend=request.param, window_ms=0.0)
    if request.param == "local":
        server = create_server(model, dataset.graph, dataset.features, config)
    else:
        shards = _make_shards(dataset, 2)
        server = create_server(model, shards, dataset.features, config)
    yield server
    server.stop()


def test_backend_lifecycle_never_started_raises_clearly(backend_server):
    with pytest.raises(RuntimeError, match="never started"):
        backend_server.predict([0])
    with pytest.raises(RuntimeError, match="never started"):
        backend_server.update(lambda m: None)
    # Both phrasings keep the historical "not running" needle.
    with pytest.raises(RuntimeError, match="not running"):
        backend_server.predict([0])


def test_backend_lifecycle_stop_is_terminal(backend_server):
    server = backend_server.start()
    assert server.running
    assert server.start() is server  # idempotent while running
    assert server.predict([0, 1]).shape[0] == 2
    server.stop()
    server.stop()  # idempotent after stop
    assert not server.running
    with pytest.raises(RuntimeError, match="not running") as excinfo:
        server.predict([0])
    assert "never started" not in str(excinfo.value)
    with pytest.raises(RuntimeError, match="not running"):
        server.update()
    with pytest.raises(RuntimeError, match="restarted"):
        server.start()


def test_backend_lifecycle_validates_requests(backend_server):
    with backend_server as server:
        assert server.predict(np.array([], dtype=np.int64)).size == 0
        with pytest.raises(ValueError, match="node_ids"):
            server.predict([server._num_nodes])
        with pytest.raises(ValueError, match="node_ids"):
            server.predict([-1])
        assert server.stats()["backend"] == server.backend


# --------------------------------------------------------------------------- #
# failure contract: one job loop, both shard backends
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", _SHARD_BACKENDS)
def test_raising_shard_fails_requests_naming_its_rank(dataset, backend):
    """The failing rank is reported, not a survivor's follow-on abort."""
    model = _make_model(dataset)
    forward_layer = model.forward_layer

    def forward_layer_failing_on_rank_1(*args, **kwargs):
        # Shard workers are named "serving-shard-<rank>": threads on the
        # thread backend, processes on the mp backend.
        names = {threading.current_thread().name, mp.current_process().name}
        if "serving-shard-1" in names:
            raise ValueError("shard boom")
        return forward_layer(*args, **kwargs)

    model.forward_layer = forward_layer_failing_on_rank_1
    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend=backend, window_ms=0.0, comm_timeout_s=60.0)
    server = create_server(model, shards, dataset.features, config).start()
    try:
        start = time.monotonic()
        with pytest.raises(WorkerFailedError, match="rank 1") as excinfo:
            server.predict([1, 2, 3])
        assert time.monotonic() - start < _NO_HANG_S
        assert "shard boom" in str(excinfo.value)
        # Rank 0's follow-on abort is dropped once the root cause is known.
        assert "ClusterAborted" not in str(excinfo.value)
        # Later requests fail at once on the poisoned cluster, with the cause.
        start = time.monotonic()
        with pytest.raises(WorkerFailedError, match="rank 1") as excinfo:
            server.predict([7])
        assert time.monotonic() - start < 5.0
        assert "shard boom" in str(excinfo.value)
    finally:
        server.stop()
    assert not server.running
    if backend == "mp":
        _assert_no_leaked_children()


@pytest.mark.parametrize("backend", _SHARD_BACKENDS)
def test_dead_shard_fails_requests_with_rank_no_hang_no_leak(dataset, backend):
    model = _make_model(dataset)
    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend=backend, window_ms=0.0, comm_timeout_s=60.0)
    server = create_server(model, shards, dataset.features, config).start()
    try:
        server.predict([1, 2, 3])  # healthy first
        server._debug_crash_worker(0)
        start = time.monotonic()
        with pytest.raises(WorkerFailedError, match="rank 0") as excinfo:
            server.predict([4, 5, 6])
        # Prompt failure: liveness polling, not the comm timeout, caught it.
        assert time.monotonic() - start < _NO_HANG_S
        assert "rank 0" in str(excinfo.value)
        # Later requests fail immediately on the poisoned cluster.
        start = time.monotonic()
        with pytest.raises(WorkerFailedError, match="rank 0"):
            server.predict([7])
        assert time.monotonic() - start < 5.0
        if backend == "mp":
            stats = server.stats()
            assert stats["processes"]["alive"][0] is False
            assert stats["processes"]["failure"] is not None
    finally:
        server.stop()
    assert not server.running
    if backend == "mp":
        _assert_no_leaked_children()


@pytest.mark.parametrize("backend", _SHARD_BACKENDS)
def test_dead_shard_fails_inflight_futures(dataset, backend):
    """Futures already enqueued when the shard dies resolve with the error."""
    model = _make_model(dataset)
    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend=backend, window_ms=0.0, comm_timeout_s=60.0)
    server = create_server(model, shards, dataset.features, config).start()
    try:
        server.predict([0])
        server._debug_crash_worker(1)
        futures = [server.predict_async([i, i + 1]) for i in range(4)]
        start = time.monotonic()
        for future in futures:
            with pytest.raises(WorkerFailedError, match="rank 1"):
                future.result(_NO_HANG_S)
        assert time.monotonic() - start < _NO_HANG_S
    finally:
        server.stop()
    if backend == "mp":
        _assert_no_leaked_children()


# --------------------------------------------------------------------------- #
# soak: many clients x many tiny requests against the thread backend
# --------------------------------------------------------------------------- #
@pytest.mark.slow
def test_thread_backend_soak_randomized_clients(dataset):
    """Sustained randomized load never serves a wrong or stale row.

    Regression coverage for the PR 9 stale-publish race: per-batch
    activations publish under step-namespaced keys, so a worker lagging at
    a batch boundary must never fetch a *previous* batch's rows.  Under
    unsynchronized clients (random think times), window coalescing, and
    concurrent version bumps, every response is still required to be
    bit-identical to the full-graph forward — a single stale fetch would
    surface as a wrong row.  Also asserts the frontend's stats() counters
    stay mutually consistent after the storm.
    """
    model = _make_model(dataset, "sage")
    reference = _reference_logits(model, dataset.graph, dataset.features)
    shards = _make_shards(dataset, 3)
    config = ServingConfig(
        backend="distributed", window_ms=1.0, byte_budget=1 << 18
    )
    num_clients, requests_per_client = 8, 50
    rng = np.random.default_rng(23)
    streams = [
        rng.integers(0, dataset.graph.num_nodes, size=(requests_per_client, 2))
        for _ in range(num_clients)
    ]
    sleeps = rng.uniform(0.0, 2e-3, size=(num_clients, requests_per_client))
    errors: list = []
    stop_bumping = threading.Event()
    with create_server(model, shards, dataset.features, config) as server:

        def client(idx):
            try:
                for step, ids in enumerate(streams[idx]):
                    time.sleep(sleeps[idx][step])
                    rows = server.predict(ids.tolist())
                    np.testing.assert_array_equal(rows, reference[ids])
            except BaseException as exc:
                errors.append(exc)

        def bumper():
            # Cache invalidations racing the request storm: every bump
            # forces cold recomputes mid-flight on every shard.
            try:
                while not stop_bumping.wait(0.05):
                    server.bump_version()
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(num_clients)
        ]
        bump_thread = threading.Thread(target=bumper)
        for t in threads:
            t.start()
        bump_thread.start()
        for t in threads:
            t.join()
        stop_bumping.set()
        bump_thread.join()
        stats = server.stats()

    assert not errors
    total = num_clients * requests_per_client
    assert stats["requests"] == total  # version bumps don't count as requests
    assert stats["served_requests"] == total
    assert stats["batches"] <= total
    assert sum(stats["frontier_layers"].values()) == stats["batches"]
    assert stats["seeds_executed"] >= stats["batches"]
    assert stats["max_requests_in_batch"] >= 1
    assert stats["queue_depth"] == 0
    assert stats["updates"] >= 1
    # Every shard saw every version bump (no shard served stale entries).
    versions = {w["embedding_cache"]["version"] for w in stats["workers"]}
    assert len(versions) == 1

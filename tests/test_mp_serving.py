"""Process-backed serving: forked shard workers, process lifecycle.

``ServingConfig(backend="mp")`` serves through the same
:class:`~repro.serving.DistributedInferenceServer` and shard service as the
thread backend, with one forked worker process per shard
(``repro/distributed/mp_backend.py``).  Under test here:

* the parity tests of ``tests/test_dist_serving.py`` (bit-identical rows,
  concurrent clients, ``update()``, store ``replace()``, feature forms) run
  unchanged with ``backend="mp"`` — so ``update()`` ships the parent's new
  weights and a store ``replace()`` reaches forked children — and leave no
  child process behind;
* ``stop()`` reaps every child (workers and the Manager), and ``stats()``
  keeps the shared shape plus the ``processes`` table.

The failure contract (a raising or dead shard fails requests with
:class:`~repro.distributed.service.WorkerFailedError` naming its rank) is
parametrized over both shard backends in ``tests/test_dist_serving.py``.
"""

from __future__ import annotations

import multiprocessing as mp

import pytest

import test_dist_serving as shared
from repro.serving import ServingConfig, create_server
from test_dist_serving import (  # noqa: F401 - ``dataset`` is a fixture
    _assert_no_leaked_children,
    _make_model,
    _make_shards,
    dataset,
)

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="mp serving backend requires the fork start method",
)


# --------------------------------------------------------------------------- #
# parity matrix: the thread backend's tests, on forked processes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["sage", "gat"])
def test_mp_bit_identical_to_local_server(dataset, kind):
    shared.test_distributed_bit_identical_to_local_server(dataset, kind, 1 << 20, backend="mp")


def test_mp_concurrent_clients_bit_identical(dataset):
    shared.test_concurrent_clients_distributed_bit_identical(dataset, backend="mp")


def test_mp_update_reaches_every_worker_process(dataset):
    shared.test_update_invalidates_every_shard(dataset, backend="mp")


def test_mp_store_replace_propagates_to_forked_workers(dataset):
    shared.test_store_replace_folds_into_every_shard(dataset, backend="mp")


@pytest.mark.parametrize("form", ["per-worker-kv", "global-dense"])
def test_mp_feature_forms_serve_identical_rows(dataset, form):
    shared.test_feature_forms_serve_identical_rows(dataset, form, backend="mp")


# --------------------------------------------------------------------------- #
# process lifecycle
# --------------------------------------------------------------------------- #
def test_mp_stop_reaps_workers_even_when_idle_or_dead(dataset):
    model = _make_model(dataset)
    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend="mp", window_ms=0.0)
    server = create_server(model, shards, dataset.features, config).start()
    processes = server.processes
    server.stop()  # graceful: stop sentinels drain the request loops
    assert not server.running
    for process in processes:
        assert not process.is_alive()
    _assert_no_leaked_children()
    with pytest.raises(RuntimeError, match="not running"):
        server.predict([0])
    with pytest.raises(RuntimeError, match="restarted"):
        server.start()


def test_mp_stats_keep_thread_backend_shape_plus_processes(dataset):
    model = _make_model(dataset)
    ids = [3, 17, 90]
    with create_server(
        model, dataset.graph, dataset.features,
        ServingConfig(window_ms=0.0, byte_budget=1 << 20),
    ) as local:
        local.predict(ids)
        local_stats = local.stats()
    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend="mp", window_ms=0.0, byte_budget=1 << 20)
    with create_server(model, shards, dataset.features, config) as server:
        server.predict(ids)
        server.predict(ids)
        stats = server.stats()
    # One shared stats() shape; the mp backend adds only the process table.
    assert set(stats) - set(local_stats) == {"processes"}
    assert stats["backend"] == "mp"
    workers = stats["workers"]
    assert [w["rank"] for w in workers] == [0, 1]
    for worker in workers:
        assert {"rank", "embedding_cache", "feature_store", "comm"} <= set(worker)
    agg = stats["embedding_cache"]
    assert agg["hits"] == sum(w["embedding_cache"]["hits"] for w in workers)
    # stats() after stop serves the final pre-stop worker snapshot.
    assert stats["processes"]["alive"] == [True, True]
    post = server.stats()
    assert post["workers"] == workers
    assert post["processes"]["alive"] == [False, False]
    _assert_no_leaked_children()

"""Process-backed distributed serving: one frontend, forked shard workers.

:class:`MultiprocessInferenceServer` is the thread-backed
:class:`~repro.serving.distributed.DistributedInferenceServer` with the
worker threads replaced by real OS processes — the deployment shape the
paper (and the roadmap) actually target: shards that never share a GIL, a
micro-batching frontend in the parent fronting one long-lived forked worker
per partition.

The split of responsibilities:

* **Parent process** — the whole micro-batching frontend
  (:class:`~repro.serving.server._MicroBatchServerBase`): client futures,
  window coalescing, request stats, ``update()`` serialization.  The parent
  also keeps the authoritative model copy (mutated by ``update``) but never
  computes logits itself.
* **Worker processes** — one per shard, forked at :meth:`start` by a
  :class:`~repro.distributed.mp_backend.MultiprocessServiceCluster`.  Fork
  means the model, the shard structures, and the feature spec arrive in
  each child by address-space copy — nothing is pickled at startup.  Each
  child builds its own :class:`~repro.core.dist_graph.DistributedGraph`
  (collective halo-routing setup over the
  :class:`~repro.distributed.mp_backend.MultiprocessCommunicator`), its own
  :class:`~repro.store.FeatureStore`, and its own private
  :class:`~repro.serving.cache.EmbeddingCache`, then answers a request loop
  until ``stop()``.

Per batch, only the deduplicated ascending seed ids travel parent -> child
and only each child's owned logit rows travel child -> parent (both pickled
through multiprocessing queues — numpy round-trips bit-exactly, so served
logits stay **bit-identical** to the local and thread-backed servers).  The
inter-*worker* traffic of the cooperative walk crosses the Manager-backed
communicator, which is honest but slow — see ``docs/serving.md`` for when
the process backend is worth that tax.

Failure semantics are those of the cluster's job loop
(:mod:`repro.distributed.mp_backend`): the frontend polls
``Process.is_alive`` while waiting on responses, a shard process that dies
mid-request fails every in-flight future with
:class:`~repro.distributed.mp_backend.WorkerFailedError` naming the dead
rank (after poisoning the cluster so surviving shards blocked in the dead
batch's collectives unblock promptly — no hang), and :meth:`stop` always
reaps: stop sentinels, join, terminate -> kill stragglers, Manager
shutdown.  No child outlives the server.

State propagation crosses the process boundary explicitly:

* :meth:`update` applies the mutation to the **parent** model, then ships
  the resulting ``state_dict()`` arrays to every child (children cannot see
  parent memory after fork) — atomic because the job queue serializes it
  against predict batches.
* A features ``replace()`` is only visible to children when the features
  were passed as a :class:`~repro.store.FeatureStore`: the parent watches
  the store's ``version`` and ships the full replacement matrix before the
  next batch.  A raw matrix mutated in place in the parent is **not**
  propagated (the children hold forked snapshots) — call ``replace()`` on a
  store, or rebuild the server.

Construct through :func:`repro.serving.create_server` with
``ServingConfig(backend="mp")``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.dist_graph import DistributedGraph
from repro.distributed.mp_backend import (
    MultiprocessServiceCluster,
    WorkerFailedError,
)
from repro.partition.shard import ShardedGraph
from repro.sample.inference import distributed_restricted_logits
from repro.serving.cache import EmbeddingCache
from repro.serving.config import ServingConfig
from repro.serving.distributed import (
    _aggregate_counters,
    _build_worker_store,
    _ShardServerBase,
)
from repro.store import FeatureStore, PartitionedKVStore


def _make_shard_service(model, shards, spec, config: ServingConfig, book):
    """Build the service factory the forked workers run.

    Returned as a closure over the parent's objects — legal because the
    cluster forks: each child gets its own copy-on-write copy of the model,
    shards, and feature spec without any pickling.  The factory runs once
    inside each child and returns the ``handler(kind, payload)`` the
    request loop calls; all per-worker state (graph handle, store, cache)
    lives in the child.
    """

    def factory(rank: int, comm):
        dist_graph = DistributedGraph(
            shards[rank], comm,
            restriction_cache_capacity=config.restriction_slots,
        )
        store = _build_worker_store(spec, config, book, rank, comm)
        cache = (
            EmbeddingCache(config.byte_budget, admission=config.cache_admission)
            if config.byte_budget is not None else None
        )
        state = {"store_version_seen": store.version}

        def handler(kind: str, payload):
            if kind == "predict":
                # Store-version fold-in, as on the other backends: a
                # replaced store invalidates this shard's cached
                # activations exactly once, at the next batch boundary.
                if store.version != state["store_version_seen"]:
                    state["store_version_seen"] = store.version
                    if cache is not None:
                        cache.bump_version()
                return distributed_restricted_logits(
                    dist_graph, model, store, payload, cache=cache,
                )
            if kind == "update":
                if payload is not None:
                    model.load_state_dict(payload)
                    model.eval()
                if cache is not None:
                    cache.bump_version()
                return cache.version if cache is not None else None
            if kind == "replace":
                # payload is the full (num_nodes, dim) replacement matrix;
                # each worker swaps the slice its store holds resident.
                if isinstance(store, PartitionedKVStore):
                    store.replace(payload[book.nodes_of(rank)])
                else:
                    store.replace(payload)
                return store.version
            if kind == "stats":
                return {
                    "rank": rank,
                    "store_version": store.version,
                    "embedding_cache": (
                        cache.stats() if cache is not None else None
                    ),
                    "feature_store": store.stats() or None,
                    "comm": comm.stats.serving_snapshot(),
                }
            raise ValueError(f"unknown serving request kind {kind!r}")

        return handler

    return factory


class MultiprocessInferenceServer(_ShardServerBase):
    """Serve ``predict(node_ids)`` over shards living in forked processes.

    Takes exactly the :class:`~repro.serving.distributed.
    DistributedInferenceServer` constructor — a layered model, the
    per-worker :class:`~repro.partition.shard.ShardedGraph` list (one
    shared book, rank order), global or per-worker features, and a
    :class:`~repro.serving.ServingConfig` with ``backend="mp"`` — and
    serves bit-identical logits from one forked OS process per shard.
    See the module docstring for the process lifecycle, propagation, and
    failure semantics.

    Requires a platform with the ``fork`` start method (Linux, macOS with
    fork enabled); :meth:`start` raises otherwise.
    """

    backend = "mp"

    def __init__(
        self,
        model,
        shards: Sequence[ShardedGraph],
        features,
        config: Optional[ServingConfig] = None,
    ):
        if config is None:
            config = ServingConfig(backend="mp")
        super().__init__(model, shards, features, config)
        self._cluster: Optional[MultiprocessServiceCluster] = None
        self._version_counter = 1
        self._spec_version_seen = (
            self._features_spec.version
            if isinstance(self._features_spec, FeatureStore) else None
        )
        self._last_worker_stats: Optional[list] = None

    # ------------------------------------------------------------------ #
    # cluster lifecycle
    # ------------------------------------------------------------------ #
    def _on_start(self) -> None:
        # Runs on the caller's thread *before* the serve loop spawns, and
        # after ``model.eval()`` — so the fork happens from an effectively
        # single-threaded parent and every child inherits an eval'd model.
        cluster = MultiprocessServiceCluster(
            _make_shard_service(self.model, self.shards, self._features_spec,
                                self.config, self.book),
            world_size=self._world,
            timeout_s=self.config.comm_timeout_s,
            name="serving-shard",
        )
        cluster.start()
        self._cluster = cluster

    def _on_stop(self) -> None:
        cluster = self._cluster
        if cluster is None:
            return
        try:
            if cluster.running and cluster.failure is None:
                self._last_worker_stats = cluster.request("stats")
        except (WorkerFailedError, RuntimeError):
            pass
        cluster.stop()

    @property
    def processes(self):
        """The shard worker processes, in rank order (empty pre-start)."""
        return self._cluster.processes if self._cluster is not None else []

    def _debug_crash_worker(self, rank: int) -> None:
        """Test hook: make shard ``rank`` die before its next request."""
        if self._cluster is None:
            raise RuntimeError("server is not started")
        self._cluster.inject_crash(rank)

    # ------------------------------------------------------------------ #
    # backend hooks
    # ------------------------------------------------------------------ #
    def _maybe_propagate_store(self) -> None:
        # The children forked a snapshot of the feature spec; when the
        # parent-side store reports a new version (replace(), embedding
        # step), ship the full replacement before the next batch runs.
        spec = self._features_spec
        if not isinstance(spec, FeatureStore):
            return
        if spec.version == self._spec_version_seen:
            return
        self._spec_version_seen = spec.version
        self._cluster.request("replace", spec.gather(None))
        self._version_counter += 1

    def _compute(self, seeds: np.ndarray):
        self._maybe_propagate_store()
        results = self._cluster.request("predict", seeds)
        return self._scatter_owned(seeds, results)

    def _apply_update(self, apply_fn: Optional[Callable]) -> int:
        # Runs on the serve-loop thread with no batch in flight.  Mutate
        # the parent's (authoritative) model, then ship the weights; a
        # bare version bump still crosses so children invalidate caches.
        if apply_fn is not None:
            apply_fn(self.model)
            self.model.eval()
            payload = self.model.state_dict()
        else:
            payload = None
        self._cluster.request("update", payload)
        self._version_counter += 1
        return self.version

    @property
    def version(self) -> int:
        return self._version_counter

    def _backend_stats(self) -> dict:
        workers = self._last_worker_stats
        cluster = self._cluster
        if (cluster is not None and cluster.running
                and cluster.failure is None):
            try:
                workers = cluster.request("stats")
                self._last_worker_stats = workers
            except (WorkerFailedError, RuntimeError):
                workers = self._last_worker_stats
        workers = workers or []
        return {
            "store_version": (
                max(w["store_version"] for w in workers) if workers else None
            ),
            "embedding_cache": _aggregate_counters(
                [w["embedding_cache"] for w in workers]
            ),
            "feature_store": _aggregate_counters(
                [w["feature_store"] for w in workers]
            ),
            "workers": workers,
            "processes": {
                "alive": [p.is_alive() for p in self.processes],
                "exitcodes": [p.exitcode for p in self.processes],
                "failure": cluster.failure if cluster is not None else None,
            },
        }

"""Distributed serving: one micro-batching frontend over per-shard workers.

:class:`DistributedInferenceServer` is the serving face of the paper's
partitioned world: the graph lives as per-worker :class:`~repro.partition.
shard.ShardedGraph` shards (each holding only its owned nodes' rows), and a
request's receptive field is computed cooperatively — every worker executes
the restricted grid over the destinations *it owns* and publishes each
layer's owned activation rows for peers, which fetch only the frontier rows
their own byte-bounded :class:`~repro.serving.cache.EmbeddingCache` missed
(:func:`repro.sample.inference.distributed_restricted_logits`).

The request path reuses the single-machine micro-batching frontend
(:class:`~repro.serving.server._MicroBatchServerBase`): client threads call
``predict(node_ids)``, a ``window_ms`` of requests coalesces into one
deduplicated ascending seed set, and the frontend posts that seed set as
one job to every shard worker (routing *within* the batch is by the
:class:`~repro.partition.book.PartitionBook` — each worker computes and
returns exactly its owned seeds' logit rows, scattered back into request
order by the frontend).

Both shard backends run the same shard service (:func:`_make_shard_service`)
over the same job loop (:class:`~repro.distributed.service.ServiceCluster`):
``backend="distributed"`` on worker threads
(:class:`~repro.distributed.thread_backend.ThreadServiceCluster`) and
``backend="mp"`` on one forked process per shard
(:class:`~repro.distributed.mp_backend.MultiprocessServiceCluster`), so
each failure contract holds the same way on both.  They differ in one
thing, state propagation: thread workers share the parent's model and
feature stores, while forked workers hold snapshots.  So ``update()``
ships the parent's new ``state_dict()`` only to processes, and a
``replace()`` on a :class:`~repro.store.FeatureStore` passed as features
is shipped (as the full matrix, before the next batch) only to processes.
A raw matrix mutated in place in the parent is not seen by forked workers.

Every served logit is **bit-identical** to the single-machine
:class:`~repro.serving.InferenceServer` on the same graph: the per-worker
restricted blocks reduce each destination in the single-machine order (see
``distributed_restricted_logits``), and cached rows are bit-identical to
recomputation.  Every ``update()`` bumps every worker's cache version, and
a store version change folds into each worker's cache at the next batch,
so stale activations are never served from any shard.

Construct through :func:`repro.serving.create_server` with
``ServingConfig(backend="distributed")`` or ``ServingConfig(backend="mp")``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.dist_graph import DistributedGraph
from repro.distributed.mp_backend import MultiprocessServiceCluster
from repro.distributed.thread_backend import ThreadServiceCluster
from repro.partition.shard import ShardedGraph
from repro.sample.inference import distributed_restricted_logits
from repro.serving.cache import EmbeddingCache
from repro.serving.config import ServingConfig
from repro.serving.server import _MicroBatchServerBase
from repro.store import DenseStore, FeatureStore, PartitionedKVStore

#: the cluster each shard backend runs the shard service on.
_CLUSTERS = {"distributed": ThreadServiceCluster, "mp": MultiprocessServiceCluster}


def _aggregate_counters(dicts: List[dict]) -> Optional[dict]:
    """Sum per-worker counter dicts (``version`` by max, strings by first)."""
    dicts = [d for d in dicts if d]
    if not dicts:
        return None
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            if isinstance(v, str):
                out.setdefault(k, v)
            elif k == "version":
                out[k] = max(out.get(k, v), v)
            else:
                out[k] = out.get(k, 0) + v
    return out


def _build_worker_store(spec, config: ServingConfig, book, rank: int,
                        comm) -> FeatureStore:
    """Materialize rank ``rank``'s :class:`FeatureStore` from a checked spec.

    ``spec`` is whatever :meth:`DistributedInferenceServer._check_features`
    returned — a shared global store, a per-worker store list, the global
    matrix, or (``"kv"`` only) a per-worker owned-row matrix list.  Called
    once per worker; with ``config.feature_store="kv"`` the returned
    :class:`~repro.store.PartitionedKVStore` publishes this rank's owned
    rows through ``comm`` at construction (peers fetch them on demand).
    """
    if isinstance(spec, FeatureStore):
        return spec
    if isinstance(spec, list) and isinstance(spec[0], FeatureStore):
        return spec[rank]
    if config.feature_store != "kv":
        return DenseStore(spec)
    own = spec[book.nodes_of(rank)] if isinstance(spec, np.ndarray) else spec[rank]
    return PartitionedKVStore(
        comm, book, own, name="serving", cache_bytes=config.feature_cache_bytes
    )


def _make_shard_service(model, shards, spec, config: ServingConfig, book):
    """Build the service factory every shard worker runs, on either backend.

    Returned as a closure over the parent's objects: thread workers share
    them, forked workers get copy-on-write copies without any pickling.
    The factory runs once on each worker and returns the
    ``handler(kind, payload)`` the job loop calls; the per-worker graph
    handle, store and cache live with the worker.
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
                # Store-version fold-in, as on the local backend: a
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
                # mp only: payload is the full (num_nodes, dim) replacement
                # matrix; each worker swaps the slice its store holds.
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


class DistributedInferenceServer(_MicroBatchServerBase):
    """Serve ``predict(node_ids)`` over a partitioned graph.

    Parameters
    ----------
    model:
        A trained module exposing ``num_layers`` and ``forward_layer``.
        Thread workers share it (safe: ``eval()``-mode layers are
        stateless in their forward pass); forked workers copy it at
        :meth:`start`.  Mutate it only through :meth:`update`.
    shards:
        One :class:`~repro.partition.shard.ShardedGraph` per worker, in
        rank order, all sharing one partition book (what
        :func:`repro.partition.shard.create_shards` returns).
    features:
        Any of: the global ``(num_nodes, dim)`` feature matrix; one
        :class:`~repro.store.FeatureStore` covering the global rows (used
        as-is by every worker); a per-worker list of owned-row
        matrices (``shards[p]``'s rows in local order); or a per-worker
        list of global-coverage stores.  With
        ``config.feature_store="kv"`` matrices become per-worker
        :class:`~repro.store.PartitionedKVStore`\\ s (owned rows resident,
        remote rows pulled through a hot-row cache); ``"dense"`` shares one
        dense matrix.
    config:
        A :class:`~repro.serving.ServingConfig` with
        ``backend="distributed"`` (worker threads, the default) or
        ``backend="mp"`` (one forked worker process per shard; needs the
        ``fork`` start method, checked by :meth:`start`).

    :meth:`start` brings the shard cluster up (communicators, per-worker
    :class:`~repro.core.dist_graph.DistributedGraph` handles, feature
    stores, embedding caches) and :meth:`stop` tears it down.
    """

    def __init__(
        self,
        model,
        shards: Sequence[ShardedGraph],
        features,
        config: Optional[ServingConfig] = None,
    ):
        if config is None:
            config = ServingConfig(backend="distributed")
        if config.backend not in _CLUSTERS:
            raise ValueError(
                f"DistributedInferenceServer is the distributed backend "
                f"(backend='distributed' threads or 'mp' processes); "
                f"config.backend={config.backend!r} (use "
                f"repro.serving.create_server to dispatch on the backend)"
            )
        shards = list(shards)
        if not shards or not all(isinstance(s, ShardedGraph) for s in shards):
            raise ValueError(
                "shards must be a non-empty sequence of ShardedGraph "
                "(what repro.partition.shard.create_shards returns)"
            )
        book = shards[0].book
        if len(shards) != book.num_parts or any(
            s.book is not book or s.rank != p for p, s in enumerate(shards)
        ):
            raise ValueError(
                "shards must cover every partition of one shared "
                "PartitionBook, in rank order"
            )
        super().__init__(model, book.num_nodes, config)
        self.backend = config.backend
        self.shards = shards
        self.book = book
        self._world = len(shards)
        self._features_spec = self._check_features(features)
        self._cluster = None
        self._version_counter = 1
        self._spec_version_seen = getattr(self._features_spec, "version", None)
        self._last_worker_stats: Optional[list] = None

    # ------------------------------------------------------------------ #
    # feature materialization
    # ------------------------------------------------------------------ #
    def _check_features(self, features):
        """Early shape/type validation of the features spec (pre-cluster)."""
        book = self.book
        if isinstance(features, FeatureStore):
            if features.num_rows != book.num_nodes:
                raise ValueError(
                    f"feature store must cover all {book.num_nodes} global "
                    f"rows, got {features.num_rows}"
                )
            return features
        if isinstance(features, np.ndarray):
            if features.ndim != 2 or features.shape[0] != book.num_nodes:
                raise ValueError(
                    f"features must be (num_nodes={book.num_nodes}, dim), "
                    f"got shape {features.shape}"
                )
            return features
        items = list(features)
        if len(items) != self._world:
            raise ValueError(
                f"per-worker features need one entry per shard "
                f"({self._world}), got {len(items)}"
            )
        if all(isinstance(item, FeatureStore) for item in items):
            for item in items:
                if item.num_rows != book.num_nodes:
                    raise ValueError(
                        f"per-worker stores must each cover all "
                        f"{book.num_nodes} global rows, got {item.num_rows}"
                    )
            return items
        arrays = [np.asarray(item) for item in items]
        for p, rows in enumerate(arrays):
            expected = len(book.nodes_of(p))
            if rows.ndim != 2 or rows.shape[0] != expected:
                raise ValueError(
                    f"worker {p} owns {expected} nodes but its feature "
                    f"entry has shape {rows.shape}"
                )
        if self.config.feature_store == "kv":
            return arrays
        # Dense serving reads one global matrix: assemble it once here, not
        # once per worker.
        matrix = np.empty((book.num_nodes, arrays[0].shape[1]), dtype=arrays[0].dtype)
        for p, rows in enumerate(arrays):
            matrix[book.nodes_of(p)] = rows
        return matrix

    def _output_dtype(self):
        spec = self._features_spec
        if isinstance(spec, (FeatureStore, np.ndarray)):
            return spec.dtype
        return spec[0].dtype

    # ------------------------------------------------------------------ #
    # cluster lifecycle
    # ------------------------------------------------------------------ #
    def _on_start(self) -> None:
        # Runs on the caller's thread *before* the serve loop spawns, and
        # after ``model.eval()`` — so forked workers leave an effectively
        # single-threaded parent and inherit an eval'd model.
        self._cluster = _CLUSTERS[self.backend](
            _make_shard_service(self.model, self.shards, self._features_spec,
                                self.config, self.book),
            world_size=self._world,
            timeout_s=self.config.comm_timeout_s,
            name="serving-shard",
        ).start()

    def _on_stop(self) -> None:
        cluster = self._cluster
        if cluster is None:
            return
        self._worker_stats()  # keep the final snapshot for stats() after stop
        cluster.stop()

    @property
    def processes(self):
        """The shard worker processes in rank order (``"mp"`` only, else empty)."""
        if self.backend != "mp" or self._cluster is None:
            return []
        return self._cluster.processes

    def _debug_crash_worker(self, rank: int) -> None:
        """Test hook: make shard ``rank`` stop answering before its next request."""
        if self._cluster is None:
            raise RuntimeError("server is not started")
        self._cluster.inject_crash(rank)

    # ------------------------------------------------------------------ #
    # backend hooks
    # ------------------------------------------------------------------ #
    def _sync_store_version(self) -> None:
        # A new version of the store passed as features (replace(), an
        # embedding step) bumps the serving version.  Thread workers read
        # that store and fold the version in themselves; forked workers
        # hold a snapshot, so they get the full replacement first.
        spec = self._features_spec
        if not isinstance(spec, FeatureStore) or spec.version == self._spec_version_seen:
            return
        self._spec_version_seen = spec.version
        if self.backend == "mp":
            self._cluster.request("replace", spec.gather(None))
        self._version_counter += 1

    def _compute(self, seeds: np.ndarray):
        self._sync_store_version()
        results = self._cluster.request("predict", seeds)
        # Every worker returns ``(owned_seeds, rows, input_layer)`` for the
        # batch seeds it owns, in ascending order; ``searchsorted`` puts
        # them back into the batch's seed order.
        out = None
        for owned_ids, rows, _ in results:
            if rows is None:
                continue
            if out is None:
                out = np.empty((len(seeds), rows.shape[1]), dtype=rows.dtype)
            out[np.searchsorted(seeds, owned_ids)] = rows
        return out, results[0][2]

    def _apply_update(self, apply_fn: Optional[Callable]) -> int:
        # Runs on the serve-loop thread with no batch in flight.  Mutate
        # the parent's (authoritative) model; forked workers then load its
        # weights.  The job reaches every worker even without weights, so
        # every shard's cache is invalidated.
        payload = None
        if apply_fn is not None:
            apply_fn(self.model)
            self.model.eval()
            if self.backend == "mp":
                payload = self.model.state_dict()
        self._cluster.request("update", payload)
        self._version_counter += 1
        return self.version

    @property
    def version(self) -> int:
        return self._version_counter

    def _worker_stats(self) -> list:
        """Per-worker stats from a live cluster, else the last snapshot."""
        cluster = self._cluster
        if cluster is not None and cluster.running and cluster.failure is None:
            try:
                self._last_worker_stats = cluster.request("stats")
            except RuntimeError:  # the cluster failed or stopped meanwhile
                pass
        return self._last_worker_stats or []

    def _backend_stats(self) -> dict:
        workers = self._worker_stats()
        stats = {
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
        }
        if self.backend == "mp":
            cluster = self._cluster
            stats["processes"] = {
                "alive": [p.is_alive() for p in self.processes],
                "exitcodes": [p.exitcode for p in self.processes],
                "failure": cluster.failure if cluster is not None else None,
            }
        return stats

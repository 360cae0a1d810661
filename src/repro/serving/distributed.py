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
deduplicated ascending seed set, and the frontend dispatches that seed set
to every shard worker thread (routing *within* the batch is by the
:class:`~repro.partition.book.PartitionBook` — each worker computes and
returns exactly its owned seeds' logit rows, scattered back into request
order by the frontend).

Every served logit is **bit-identical** to the single-machine
:class:`~repro.serving.InferenceServer` on the same graph: the per-worker
restricted blocks reduce each destination in the single-machine order (see
``distributed_restricted_logits``), and cached rows are bit-identical to
recomputation.  ``update()`` applies the model mutation on the frontend
thread (worker threads are idle between batches) and bumps every worker's
cache version; a feature-store ``replace()`` is picked up by each worker's
store-version fold-in at the next batch, so stale activations are never
served from any shard.

Construct through :func:`repro.serving.create_server` with
``ServingConfig(backend="distributed")``.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.dist_graph import DistributedGraph
from repro.partition.shard import ShardedGraph
from repro.sample.inference import distributed_restricted_logits
from repro.serving.cache import EmbeddingCache
from repro.serving.config import ServingConfig
from repro.serving.server import _STOP, _MicroBatchServerBase
from repro.store import DenseStore, FeatureStore, PartitionedKVStore
from repro.distributed.thread_backend import create_thread_communicators


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

    ``spec`` is whatever :meth:`_ShardServerBase._check_features` returned —
    a shared global store, a per-worker store list, the global matrix, or
    (``"kv"`` only) a per-worker owned-row matrix list.  Called once per
    worker; with ``config.feature_store="kv"`` the returned
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


class _ShardServerBase(_MicroBatchServerBase):
    """Shared frontend of the shard-backed serving backends.

    Both the thread-backed :class:`DistributedInferenceServer` and the
    process-backed :class:`~repro.serving.mp_server.
    MultiprocessInferenceServer` serve a shard list over the same
    micro-batching frontend; this base holds what is identical between
    them — shard/book validation, features-spec checking, and the scatter
    of per-worker owned logit rows back into batch seed order.
    """

    def __init__(self, model, shards: Sequence[ShardedGraph], features,
                 config: ServingConfig):
        if config.backend != self.backend:
            raise ValueError(
                f"{type(self).__name__} is the {self.backend} backend; "
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
        self.shards = shards
        self.book = book
        self._world = len(shards)
        self._features_spec = self._check_features(features)

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

    def _features_dtype(self):
        """Served logit dtype, readable from the spec before any cluster is up."""
        spec = self._features_spec
        if isinstance(spec, (FeatureStore, np.ndarray)):
            return spec.dtype
        return spec[0].dtype

    def _output_dtype(self):
        return self._features_dtype()

    # ------------------------------------------------------------------ #
    # batch assembly
    # ------------------------------------------------------------------ #
    def _scatter_owned(self, seeds: np.ndarray, results):
        """Merge per-worker ``(owned_seeds, rows, input_layer)`` results.

        Every worker returns the logit rows of the batch seeds *it owns*
        (in ascending owned-seed order); scattering them back by
        ``searchsorted`` rebuilds the batch's seed order.  Returns the
        ``(logits, input_layer)`` pair :meth:`_compute` must produce.
        """
        out = None
        for owned_ids, rows, _ in results:
            if rows is None:
                continue
            if out is None:
                out = np.empty((len(seeds), rows.shape[1]), dtype=rows.dtype)
            out[np.searchsorted(seeds, owned_ids)] = rows
        return out, results[0][2]


class DistributedInferenceServer(_ShardServerBase):
    """Serve ``predict(node_ids)`` over a partitioned graph.

    Parameters
    ----------
    model:
        A trained module exposing ``num_layers`` and ``forward_layer`` —
        shared by all shard worker threads (safe: ``eval()``-mode layers
        are stateless in their forward pass); mutate it only through
        :meth:`update`.
    shards:
        One :class:`~repro.partition.shard.ShardedGraph` per worker, in
        rank order, all sharing one partition book (what
        :func:`repro.partition.shard.create_shards` returns).
    features:
        Any of: the global ``(num_nodes, dim)`` feature matrix; one
        :class:`~repro.store.FeatureStore` covering the global rows (used
        as-is, shared by all workers); a per-worker list of owned-row
        matrices (``shards[p]``'s rows in local order); or a per-worker
        list of global-coverage stores.  With
        ``config.feature_store="kv"`` matrices become per-worker
        :class:`~repro.store.PartitionedKVStore`\\ s (owned rows resident,
        remote rows pulled through a hot-row cache); ``"dense"`` shares one
        dense matrix.
    config:
        A :class:`~repro.serving.ServingConfig` with
        ``backend="distributed"``.

    The cluster (thread-backend communicators, per-worker
    :class:`~repro.core.dist_graph.DistributedGraph` handles, feature
    stores, embedding caches, and worker threads) is brought up by
    :meth:`start` and torn down by :meth:`stop`.
    """

    backend = "distributed"

    def __init__(
        self,
        model,
        shards: Sequence[ShardedGraph],
        features,
        config: Optional[ServingConfig] = None,
    ):
        if config is None:
            config = ServingConfig(backend="distributed")
        super().__init__(model, shards, features, config)
        self._comms = None
        self._shared_store = None
        self._dist_graphs: List[DistributedGraph] = []
        self._stores: List[FeatureStore] = []
        self._caches: List[Optional[EmbeddingCache]] = []
        self._job_queues: List["queue.Queue"] = []
        self._workers: List[threading.Thread] = []
        self._version_counter = 1

    # ------------------------------------------------------------------ #
    # cluster lifecycle
    # ------------------------------------------------------------------ #
    def _on_start(self) -> None:
        config = self.config
        self._comms, self._shared_store = create_thread_communicators(
            self._world, timeout_s=config.comm_timeout_s
        )
        self._stores = [
            _build_worker_store(self._features_spec, config, self.book, p, self._comms[p])
            for p in range(self._world)
        ]
        self._dist_graphs = [None] * self._world
        self._caches = [
            EmbeddingCache(config.byte_budget, admission=config.cache_admission)
            if config.byte_budget is not None else None
            for _ in range(self._world)
        ]
        self._job_queues = [queue.Queue() for _ in range(self._world)]
        # DistributedGraph construction runs a collective halo-routing
        # exchange, so every worker must build its handle concurrently on
        # its own thread; the futures surface startup failures here.
        init_futures: List[Future] = [Future() for _ in range(self._world)]
        self._workers = [
            threading.Thread(
                target=self._worker_loop, args=(p, init_futures[p]),
                name=f"serving-shard-{p}", daemon=True,
            )
            for p in range(self._world)
        ]
        for thread in self._workers:
            thread.start()
        for future in init_futures:
            future.result(config.comm_timeout_s)

    def _on_stop(self) -> None:
        for jobs in self._job_queues:
            jobs.put(_STOP)
        for thread in self._workers:
            thread.join(self.config.stop_timeout_s)
        # Release the KV stores built here, never the caller's stores.
        spec = self._features_spec
        given = spec if isinstance(spec, list) else [spec]
        for store in self._stores:
            if isinstance(store, PartitionedKVStore) and not any(store is item for item in given):
                store.release()

    def _worker_loop(self, rank: int, init_future: Future) -> None:
        try:
            dist_graph = DistributedGraph(
                self.shards[rank], self._comms[rank],
                restriction_cache_capacity=self.config.restriction_slots,
            )
        except BaseException as exc:
            try:
                self._shared_store.abort(
                    f"serving worker {rank} failed to start: {exc!r}"
                )
            except BaseException:
                pass
            init_future.set_exception(exc)
            return
        self._dist_graphs[rank] = dist_graph
        init_future.set_result(rank)
        store = self._stores[rank]
        cache = self._caches[rank]
        jobs = self._job_queues[rank]
        store_version_seen = store.version
        while True:
            job = jobs.get()
            if job is _STOP:
                break
            seeds, future = job
            try:
                # Store-version fold-in (as on the local backend): a
                # replace()/embedding step invalidates this shard's cached
                # activations exactly once, at the next batch boundary.
                if store.version != store_version_seen:
                    store_version_seen = store.version
                    if cache is not None:
                        cache.bump_version()
                result = distributed_restricted_logits(
                    dist_graph, self.model, store, seeds, cache=cache,
                )
                future.set_result(result)
            except BaseException as exc:
                # Unblock peers stuck in this batch's collectives, then
                # surface the failure to the frontend.
                try:
                    self._shared_store.abort(
                        f"serving worker {rank} failed: {exc!r}"
                    )
                except BaseException:
                    pass
                if not future.done():
                    future.set_exception(exc)

    # ------------------------------------------------------------------ #
    # backend hooks
    # ------------------------------------------------------------------ #
    def _compute(self, seeds: np.ndarray):
        futures: List[Future] = []
        for jobs in self._job_queues:
            future: Future = Future()
            jobs.put((seeds, future))
            futures.append(future)
        results = [f.result(self.config.comm_timeout_s) for f in futures]
        return self._scatter_owned(seeds, results)

    def _apply_update(self, apply_fn: Optional[Callable]) -> int:
        # Runs on the frontend serve-loop thread with no batch in flight —
        # every worker thread is idle on its job queue, so the shared model
        # and per-worker caches can be mutated directly.
        if apply_fn is not None:
            apply_fn(self.model)
            self.model.eval()
        self._version_counter += 1
        for cache in self._caches:
            if cache is not None:
                cache.bump_version()
        return self.version

    @property
    def version(self) -> int:
        versions = [self._version_counter] + [
            cache.version for cache in self._caches if cache is not None
        ]
        return max(versions)

    def _backend_stats(self) -> dict:
        workers = [
            {
                "rank": p,
                "embedding_cache": (
                    self._caches[p].stats()
                    if p < len(self._caches) and self._caches[p] is not None
                    else None
                ),
                "feature_store": (
                    self._stores[p].stats() or None
                    if p < len(self._stores) else None
                ),
                "comm": self._comms[p].stats.serving_snapshot(),
            }
            for p in range(self._world if self._comms is not None else 0)
        ]
        return {
            "store_version": (
                max(store.version for store in self._stores)
                if self._stores else None
            ),
            "embedding_cache": _aggregate_counters(
                [w["embedding_cache"] for w in workers]
            ),
            "feature_store": _aggregate_counters(
                [w["feature_store"] for w in workers]
            ),
            "workers": workers,
        }

"""Long-lived online inference server: micro-batched, cache-truncated predicts.

:class:`InferenceServer` is the serving half of the roadmap's north star: a
process-resident object that loads a trained model plus its graph and feature
matrix once, then answers ``predict(node_ids)`` requests from any number of
concurrent client threads.  The request hot path is the paper's core trick
run per batch: only the requested seeds' receptive fields are compiled
(:func:`repro.graph.mfg.build_mfg_pipeline`) and executed, never a full-graph
forward.

Three mechanisms shape the latency/throughput profile:

**Micro-batching.**  Requests land on a bounded queue consumed by one worker
thread.  The worker takes the first request, then keeps draining the queue
until ``window_ms`` elapses or ``max_batch_seeds`` requested seeds have
accumulated; the coalesced requests are deduplicated into one ascending seed
set, compiled into one pipeline, executed once, and the per-seed logit rows
are scattered back to each request's future.  ``window_ms=0`` disables
coalescing (strictly one request per execution — the sequential baseline the
serving benchmark compares against).

**Plan warmth.**  Pipeline blocks resolve their :class:`~repro.tensor.
edge_plan.EdgePlan` through the shared structural :class:`~repro.tensor.
edge_plan.PlanCache`, so a repeated request topology (same coalesced seed
set) pays **zero** plan builds — asserted in ``tests/test_serving.py`` and
visible in :meth:`InferenceServer.stats` under ``"plan_cache"``.

**Historical-embedding cache.**  With a cache ``byte_budget`` set, every
computed activation row is inserted into an :class:`~repro.serving.cache.
EmbeddingCache` keyed by ``(version, layer, node)``.  Each request batch
probes the cache from the deepest layer down during its receptive-field walk
and truncates the pipeline at the deepest fully-cached frontier
(``stop_at`` on :func:`build_mfg_pipeline`); a batch whose seeds all have
cached logits never builds a pipeline at all.  Cached rows are bit-identical
to recomputation (eval-mode activations are pure per-row functions), so
served logits stay **bit-identical** to ``model(graph, features)`` rows with
the cache on, off, cold, or warm.

Model updates go through :meth:`update`, which runs the mutation *on the
worker thread* (serialized between batches) and bumps the cache version —
requests enqueued before the update see the old weights and cache entries,
requests after see the new ones, and no batch ever mixes the two.

The micro-batching frontend (queue, coalescing loop, request/control
futures, telemetry) lives in :class:`_MicroBatchServerBase`, shared with the
distributed backend (:class:`repro.serving.distributed.
DistributedInferenceServer`); only the per-batch compute and the
update/version plumbing differ between backends.  Construct servers through
:class:`~repro.serving.ServingConfig` and
:func:`repro.serving.create_server`.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.graph.mfg import build_mfg_pipeline
from repro.sample.inference import check_layered_model
from repro.serving.cache import EmbeddingCache
from repro.serving.config import ServingConfig
from repro.store import DenseStore, as_feature_store
from repro.tensor import no_grad
from repro.tensor.edge_plan import shared_plan_cache
from repro.tensor.tensor import Tensor
from repro.utils.validation import check_1d_int_array

#: queue sentinel shutting the worker down after all earlier items are served.
_STOP = object()


class _Predict:
    """One enqueued request: the validated ids and the future to resolve."""

    __slots__ = ("ids", "future")

    def __init__(self, ids: np.ndarray):
        self.ids = ids
        self.future: "Future[np.ndarray]" = Future()


class _Control:
    """An enqueued model-update: runs on the worker thread, bumps the version."""

    __slots__ = ("apply_fn", "future")

    def __init__(self, apply_fn: Optional[Callable]):
        self.apply_fn = apply_fn
        self.future: "Future[int]" = Future()


class _MicroBatchServerBase:
    """Micro-batching request frontend shared by both serving backends.

    Owns the bounded request queue, the coalescing serve loop, request /
    control futures, lifecycle (start / stop / context manager), and the
    shared ``stats()`` shape.  Backends provide:

    * :meth:`_compute` — logits of one deduplicated ascending seed set;
    * :meth:`_apply_update` — apply a model mutation and return the new
      version (runs on the serve-loop thread, serialized between batches);
    * :attr:`version` — the monotonic serving version;
    * :meth:`_backend_stats` — the backend section of :meth:`stats`;
    * :meth:`_on_start` / :meth:`_on_stop` — backend resource lifecycle.
    """

    #: ``stats()["backend"]`` discriminator; overridden per backend.
    backend = "local"

    def __init__(self, model, num_nodes: int, config: ServingConfig):
        self.num_layers = check_layered_model(model)
        self.model = model
        self.config = config
        self._num_nodes = int(num_nodes)
        self.window_s = float(config.window_ms) / 1e3
        self.max_batch_seeds = config.max_batch_seeds
        self._queue: "queue.Queue" = queue.Queue(maxsize=config.max_pending)
        self._thread: Optional[threading.Thread] = None
        self._accepting = False
        self._started = False
        self._stopped = False
        self._stats_lock = threading.Lock()
        self._requests = 0
        self._served_requests = 0
        self._batches = 0
        self._seeds_executed = 0
        self._max_requests_in_batch = 0
        self._fast_path_batches = 0
        self._updates = 0
        #: how deep request batches truncated: input_layer -> batch count
        #: (0 = full-depth recompute, ``num_layers`` = all-logits fast path).
        self._frontier_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # backend hooks
    # ------------------------------------------------------------------ #
    def _compute(self, seeds: np.ndarray) -> Tuple[np.ndarray, int]:
        """``(logit rows, input_layer)`` of the ascending unique ``seeds``."""
        raise NotImplementedError

    def _apply_update(self, apply_fn: Optional[Callable]) -> int:
        """Apply ``apply_fn(model)``, invalidate caches, return the version."""
        raise NotImplementedError

    @property
    def version(self) -> int:
        """Current model/cache version (bumped by every :meth:`update`)."""
        raise NotImplementedError

    def _output_dtype(self):
        """Dtype of served logit rows (for empty-request results)."""
        raise NotImplementedError

    def _backend_stats(self) -> dict:
        """Backend section of :meth:`stats` (stores, caches, workers)."""
        raise NotImplementedError

    def _on_start(self) -> None:
        """Bring up backend resources before the serve loop starts."""

    def _on_stop(self) -> None:
        """Release backend resources after the serve loop has drained."""

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self):
        """Spawn the serving worker (idempotent until :meth:`stop`)."""
        if self._stopped:
            raise RuntimeError(
                f"{type(self).__name__} cannot be restarted after stop()"
            )
        if self._thread is None:
            self.model.eval()
            self._on_start()
            self._accepting = True
            self._started = True
            self._thread = threading.Thread(
                target=self._serve_loop, name="inference-server", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = None) -> None:
        """Drain already-queued requests, then stop the worker."""
        if self._thread is None or self._stopped:
            self._stopped = True
            return
        if timeout is None:
            timeout = self.config.stop_timeout_s
        self._accepting = False
        self._queue.put(_STOP)
        self._thread.join(timeout)
        self._on_stop()
        self._stopped = True

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._accepting and self._thread is not None and self._thread.is_alive()

    def _check_running(self) -> None:
        if self.running:
            return
        name = type(self).__name__
        if not self._started:
            raise RuntimeError(
                f"{name} is not running — it was never started; call "
                f"start() (or use the server as a context manager) first"
            )
        raise RuntimeError(f"{name} is not running (call start())")

    # ------------------------------------------------------------------ #
    # client API
    # ------------------------------------------------------------------ #
    def predict_async(self, node_ids, timeout: Optional[float] = None) -> "Future[np.ndarray]":
        """Enqueue a request; the future resolves to its ``(len(ids), C)`` logits.

        Rows follow the request's id order (duplicates included).  Blocks
        only when the request queue is full (backpressure), up to
        ``timeout`` seconds.
        """
        ids = check_1d_int_array(node_ids, "node_ids", max_value=self._num_nodes)
        self._check_running()
        item = _Predict(ids)
        if ids.size == 0:
            item.future.set_result(np.empty((0, 0), dtype=self._output_dtype()))
            return item.future
        try:
            self._queue.put(item, timeout=timeout)
        except queue.Full:
            raise RuntimeError(
                f"request queue full ({self._queue.maxsize} pending)"
            ) from None
        with self._stats_lock:
            self._requests += 1
        return item.future

    def predict(self, node_ids, timeout: Optional[float] = None) -> np.ndarray:
        """Blocking :meth:`predict_async`; returns the logit rows."""
        if timeout is None:
            timeout = self.config.predict_timeout_s
        return self.predict_async(node_ids, timeout=timeout).result(timeout)

    def update(self, apply_fn: Optional[Callable] = None,
               timeout: Optional[float] = 30.0) -> int:
        """Apply a model mutation on the worker thread and invalidate caches.

        ``apply_fn(model)`` (if given) runs serialized between batches:
        requests enqueued before this call are served by the old model and
        cache version, requests after by the new ones.  Returns the new
        version number.  ``update()`` with no function is a pure version
        bump — e.g. after swapping the feature matrix's contents in place.
        """
        self._check_running()
        item = _Control(apply_fn)
        self._queue.put(item, timeout=timeout)
        return item.future.result(timeout)

    def bump_version(self, timeout: Optional[float] = 30.0) -> int:
        """Invalidate cached activations without touching the model."""
        return self.update(None, timeout=timeout)

    def stats(self) -> dict:
        """Telemetry snapshot in the shape shared by both backends.

        See ``docs/serving.md`` ("The stats() shape") for the documented
        key-by-key reference; the backend section comes from
        :meth:`_backend_stats` (``workers`` is ``None`` on the local
        backend, a per-worker list on the distributed one).
        """
        with self._stats_lock:
            snapshot = {
                "backend": self.backend,
                "running": self.running,
                "requests": self._requests,
                "served_requests": self._served_requests,
                "batches": self._batches,
                "seeds_executed": self._seeds_executed,
                "max_requests_in_batch": self._max_requests_in_batch,
                "fast_path_batches": self._fast_path_batches,
                "updates": self._updates,
                "frontier_layers": dict(sorted(self._frontier_counts.items())),
                "queue_depth": self._queue.qsize(),
            }
        snapshot["version"] = self.version
        snapshot.update(self._backend_stats())
        snapshot["plan_cache"] = shared_plan_cache().stats()
        return snapshot

    # ------------------------------------------------------------------ #
    # worker
    # ------------------------------------------------------------------ #
    def _serve_loop(self) -> None:
        stop = False
        carried: Optional[_Control] = None
        while not stop:
            if carried is not None:
                item, carried = carried, None
            else:
                item = self._queue.get()
            if item is _STOP:
                break
            if isinstance(item, _Control):
                self._handle_control(item)
                continue
            batch: List[_Predict] = [item]
            if self.window_s > 0:
                deadline = time.perf_counter() + self.window_s
                seeds = len(item.ids)
                while seeds < self.max_batch_seeds:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    try:
                        nxt = self._queue.get(timeout=remaining)
                    except queue.Empty:
                        break
                    if nxt is _STOP:
                        stop = True
                        break
                    if isinstance(nxt, _Control):
                        # Updates are barriers: close the batch, run it on the
                        # old version, then apply the control next iteration.
                        carried = nxt
                        break
                    batch.append(nxt)
                    seeds += len(nxt.ids)
            self._execute(batch)

    def _handle_control(self, item: _Control) -> None:
        try:
            version = self._apply_update(item.apply_fn)
            with self._stats_lock:
                self._updates += 1
            item.future.set_result(version)
        except BaseException as exc:  # propagate to the waiting client
            item.future.set_exception(exc)

    def _execute(self, batch: List[_Predict]) -> None:
        try:
            all_ids = (
                batch[0].ids if len(batch) == 1
                else np.concatenate([item.ids for item in batch])
            )
            seeds, inverse = np.unique(all_ids, return_inverse=True)
            logits, input_layer = self._compute(seeds)
            offset = 0
            for item in batch:
                n = len(item.ids)
                item.future.set_result(logits[inverse[offset:offset + n]])
                offset += n
            with self._stats_lock:
                self._served_requests += len(batch)
                self._batches += 1
                self._seeds_executed += len(seeds)
                self._max_requests_in_batch = max(
                    self._max_requests_in_batch, len(batch)
                )
                if input_layer == self.num_layers:
                    self._fast_path_batches += 1
                self._frontier_counts[input_layer] = (
                    self._frontier_counts.get(input_layer, 0) + 1
                )
        except BaseException as exc:
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)


class InferenceServer(_MicroBatchServerBase):
    """Serve ``predict(node_ids)`` over a trained model with micro-batching.

    Parameters
    ----------
    model:
        A trained module exposing ``num_layers`` and ``forward_layer(index,
        graph, x)`` (every ``repro.nn`` model).  Switched to ``eval()`` on
        :meth:`start` and kept there; mutate it only through :meth:`update`.
    graph:
        The full homogeneous :class:`~repro.graph.graph.Graph` (hetero
        serving would need per-relation pipelines — not supported yet).
    features:
        ``(num_nodes, in_features)`` input feature matrix (read-only), or
        any :class:`~repro.store.FeatureStore` covering the graph's nodes —
        batch input rows are gathered through the store, so serving runs
        unchanged over partitioned KV features or a trained embedding table.
        The store's own :attr:`~repro.store.FeatureStore.version` composes
        with the activation-cache version: when the store reports a new
        version (features replaced, embedding rows stepped), the next batch
        bumps the cache version, so stale activations are never served.
    config:
        A :class:`~repro.serving.ServingConfig` carrying the micro-batching
        window, the embedding-cache ``byte_budget`` / ``cache_admission``,
        queue bound, and timeouts.  ``None`` uses the defaults.  Prefer
        constructing through :func:`repro.serving.create_server`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.datasets import make_sbm_dataset
    >>> from repro.nn.models import GraphSageNet
    >>> from repro.serving import ServingConfig, create_server
    >>> from repro.utils.seed import set_seed
    >>> set_seed(0)
    >>> ds = make_sbm_dataset(name="s", num_nodes=80, num_classes=3,
    ...                       feature_dim=8, p_in=0.1, p_out=0.02)
    >>> model = GraphSageNet(8, 16, 3, num_layers=2, dropout=0.0)
    >>> config = ServingConfig(byte_budget=1 << 20)
    >>> with create_server(model, ds.graph, ds.features, config) as server:
    ...     logits = server.predict([3, 1, 4, 1])
    >>> logits.shape
    (4, 3)
    """

    backend = "local"

    def __init__(
        self,
        model,
        graph: Graph,
        features,
        config: Optional[ServingConfig] = None,
    ):
        if config is None:
            config = ServingConfig()
        if config.backend != "local":
            raise ValueError(
                f"InferenceServer is the local backend; "
                f"config.backend={config.backend!r} (use "
                f"repro.serving.create_server to dispatch on the backend)"
            )
        if not isinstance(graph, Graph):
            raise ValueError(
                "InferenceServer serves homogeneous Graph instances only"
            )
        store = as_feature_store(features)
        if store.num_rows != graph.num_nodes:
            raise ValueError(
                f"features must cover the graph's {graph.num_nodes} nodes, "
                f"got {store.num_rows} rows"
            )
        super().__init__(model, graph.num_nodes, config)
        self.graph = graph
        self.store = store
        #: the raw matrix when the store is dense (back-compat); ``None``
        #: for non-materialized backends — read through :attr:`store`.
        self.features = store.matrix if isinstance(store, DenseStore) else None
        self._store_version_seen = store.version
        self.cache: Optional[EmbeddingCache] = (
            EmbeddingCache(config.byte_budget, admission=config.cache_admission)
            if config.byte_budget is not None else None
        )
        self._version_no_cache = 1

    # ------------------------------------------------------------------ #
    # backend hooks
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Current model/cache version (bumped by every :meth:`update`)."""
        return self.cache.version if self.cache is not None else self._version_no_cache

    def _output_dtype(self):
        return self.store.dtype

    def _apply_update(self, apply_fn: Optional[Callable]) -> int:
        if apply_fn is not None:
            apply_fn(self.model)
            self.model.eval()
        if self.cache is not None:
            return self.cache.bump_version()
        self._version_no_cache += 1
        return self._version_no_cache

    def _backend_stats(self) -> dict:
        return {
            "store_version": self.store.version,
            "embedding_cache": (
                self.cache.stats() if self.cache is not None else None
            ),
            "feature_store": self.store.stats() or None,
            "workers": None,
        }

    def _sync_store_version(self) -> None:
        # Compose the feature store's version into the serving version: a
        # store mutation (replace(), sparse-embedding step) invalidates every
        # cached activation exactly once, at the next batch boundary.  Runs
        # on the worker thread, so it is serialized with cache reads.
        current = self.store.version
        if current != self._store_version_seen:
            self._store_version_seen = current
            if self.cache is not None:
                self.cache.bump_version()
            else:
                self._version_no_cache += 1

    def _compute(self, seeds: np.ndarray):
        """Logits of the ascending unique ``seeds``; returns ``(rows, frontier)``."""
        self._sync_store_version()
        cache = self.cache
        model = self.model
        num_layers = self.num_layers
        with no_grad():
            if cache is not None:
                rows = cache.lookup(num_layers, seeds)
                if rows is not None:
                    return rows, num_layers
            frontier: dict = {}

            def stop_at(layer: int, nodes: np.ndarray) -> bool:
                if cache is None:
                    return False
                rows = cache.lookup(layer, nodes)
                if rows is None:
                    return False
                frontier["rows"] = rows
                return True

            pipeline = build_mfg_pipeline(self.graph, seeds, num_layers,
                                          stop_at=stop_at)
            start = pipeline.input_layer
            if start == 0:
                x = Tensor(self.store.gather(pipeline.input_nodes))
            else:
                x = Tensor(frontier["rows"])
            for offset, layer in enumerate(range(start, num_layers)):
                block = pipeline.layer_block(offset)
                x = model.forward_layer(layer, block, x)
                if cache is not None:
                    cache.put(layer + 1, block.dst_nodes, x.data)
            return x.data, start

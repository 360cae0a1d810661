"""Multiprocessing backend (true multi-process workers on one host).

The thread backend in :mod:`repro.distributed.thread_backend` is the default
because it is fast to spin up and lets the benchmarks simulate up to 32
workers cheaply.  This module provides a small, slower, but *genuinely*
multi-process backend built on :mod:`multiprocessing` primitives, matching
the paper's deployment model of one training process per machine ("repro
band": multi-process on one big server).  It exists to demonstrate that the
SAR algorithms only rely on the abstract :class:`Communicator` interface; the
example/test keep the worker count and graph size small.

There is one process model: :class:`MultiprocessServiceCluster` is the
forked transport of :class:`~repro.distributed.service.ServiceCluster`
(``fork`` start method required): ``world_size`` long-lived workers build
their state once and then answer jobs posted to all ranks.  Serving posts
one job per batch; :func:`run_multiprocess` is a cluster that runs a single
``"run"`` job and reaps.

Usage::

    from repro.distributed.mp_backend import run_multiprocess
    results = run_multiprocess(worker_fn, world_size=2, worker_args=shards)

    with MultiprocessServiceCluster(factory, world_size=2) as cluster:
        per_rank = cluster.request("predict", seeds)

``worker_fn`` has the usual ``(rank, comm, *args)`` signature; ``factory``
is ``(rank, comm) -> handler(kind, payload)``.  Both reach the children by
fork, so closures are fine; job payloads and results are pickled.  Workers
are daemonic, so a job cannot start processes of its own.  The failure
semantics are those of the shared job loop (:mod:`repro.distributed.
service`), for both entry points; a dead worker is reported with its exit
code, and ``stop()`` reaps with terminate -> kill and a Manager shutdown, so
no child outlives the cluster or the :func:`run_multiprocess` call.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.distributed.comm import (
    STREAM_KEY_PREFIX,
    ClusterAborted,
    Communicator,
    reduce_arrays,
)
from repro.distributed.service import (
    _DEFAULT_TIMEOUT_S,
    ServiceCluster,
    WorkerFailedError,
    _service_worker,
)

#: bounded wait slice while a worker is parked on the store condition
_WAIT_SLICE_S = 0.1
#: store key carrying the abort message (rank ``-1`` collides with no worker)
_ABORT_KEY = (-1, "__abort__")


def _poison_cluster(store, barrier, condition, message: str) -> None:
    """Flag the cluster as aborted and wake every blocked worker.

    Writes the abort message into the shared store (every communicator wait
    loop checks it), breaks the barrier (unblocks collectives), and
    broadcasts the store condition (unblocks parked ``_wait_get`` readers).
    Each step tolerates a Manager that is already torn down.
    """
    try:
        store[_ABORT_KEY] = message
    except Exception:  # pragma: no cover - manager already gone
        pass
    try:
        barrier.abort()
    except Exception:  # pragma: no cover - manager already gone
        pass
    try:
        with condition:
            condition.notify_all()
    except Exception:  # pragma: no cover - manager already gone
        pass


class MultiprocessCommunicator(Communicator):
    """Communicator backed by a ``multiprocessing.Manager`` dict and barrier.

    Blocking reads park on a shared Manager :class:`~threading.Condition` in
    bounded slices (every publish notifies it) instead of hammering the
    Manager proxy with a few-millisecond poll, and every wait loop checks the
    abort flag so a peer failure propagates within one slice.
    """

    def __init__(self, rank: int, world_size: int, store, barrier, condition,
                 timeout_s: float = _DEFAULT_TIMEOUT_S):
        super().__init__(rank, world_size)
        self._store = store
        self._barrier = barrier
        self._cond = condition
        self._timeout_s = timeout_s
        self._collective_counter = 0
        self._exchange_counter = 0

    # -- point-to-point ------------------------------------------------- #
    def _put_and_notify(self, store_key, array: np.ndarray) -> None:
        self._store[store_key] = array
        with self._cond:
            self._cond.notify_all()

    def _check_abort(self) -> None:
        message = self._store.get(_ABORT_KEY)
        if message is not None:
            raise ClusterAborted(f"rank {self.rank}: cluster aborted: {message}")

    def publish(self, key: str, array: np.ndarray) -> None:
        self._put_and_notify((self.rank, key), np.asarray(array))

    def _wait_get(self, owner_rank: int, key: str) -> np.ndarray:
        deadline = time.monotonic() + self._timeout_s
        while True:
            value = self._store.get((owner_rank, key))
            if value is not None:
                return value
            self._check_abort()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"rank {self.rank} timed out waiting for rank {owner_rank} key {key!r}"
                )
            with self._cond:
                # Re-check under the lock: a publisher cannot notify between
                # this get and the wait (notify needs the same lock), so a
                # publish is either seen here or wakes the wait below.
                if self._store.get((owner_rank, key)) is None:
                    self._cond.wait(min(_WAIT_SLICE_S, remaining))

    def fetch(self, owner_rank: int, key: str, rows: Optional[np.ndarray] = None,
              tag: str = "halo") -> np.ndarray:
        array = self._wait_get(owner_rank, key)
        out = array[np.asarray(rows)] if rows is not None else np.array(array, copy=True)
        if owner_rank != self.rank:
            self.stats.record_recv(out.nbytes, tag=tag)
        return out

    def unpublish(self, key: str) -> None:
        self._store.pop((self.rank, key), None)

    def clear_published(self) -> None:
        # Keyed-stream payloads (background sampling frontiers) survive the
        # iteration-boundary sweep; they are reclaimed via release_keyed.
        for store_key in list(self._store.keys()):
            if store_key[0] == self.rank and not store_key[1].startswith(STREAM_KEY_PREFIX):
                self._store.pop(store_key, None)

    # -- collectives ----------------------------------------------------- #
    def barrier(self) -> None:
        try:
            self._barrier.wait(timeout=self._timeout_s)
        except Exception as exc:  # BrokenBarrierError (proxied) or timeout
            self._check_abort()
            raise WorkerFailedError(
                f"rank {self.rank}: barrier broken or timed out (a worker died "
                f"or exceeded the {self._timeout_s:.0f}s timeout)"
            ) from exc

    def exchange(self, key: str, outgoing: Dict[int, np.ndarray],
                 tag: str = "exchange") -> Dict[int, np.ndarray]:
        """All-to-all over the store: one write and one pop-read per peer.

        Each rank's payload for a peer is written once under a per-call
        unique prefix; after a single barrier the receiver *pops* the entries
        addressed to it, so the read doubles as cleanup and the old
        second barrier (which only guarded a cleanup sweep) is gone.  The
        per-call counter advances identically on every rank, so a slow
        reader can never collide with the next call's entries.
        """
        self._exchange_counter += 1
        prefix = f"__xchg/{self._exchange_counter}/{key}"
        received: Dict[int, np.ndarray] = {}
        for dest, array in outgoing.items():
            if not 0 <= dest < self.world_size:
                raise ValueError(f"exchange destination {dest} out of range")
            array = np.asarray(array)
            if dest == self.rank:
                received[self.rank] = np.array(array, copy=True)
                continue
            self._store[(self.rank, f"{prefix}/to{dest}")] = array
            self.stats.record_send(array.nbytes, tag=tag)
        self.barrier()
        for sender in range(self.world_size):
            if sender == self.rank:
                continue
            value = self._store.pop((sender, f"{prefix}/to{self.rank}"), None)
            if value is None:
                continue
            received[sender] = np.array(value, copy=True)
            self.stats.record_recv(received[sender].nbytes, tag=tag)
        return received

    def allreduce(self, array: np.ndarray, op: str = "sum", tag: str = "allreduce") -> np.ndarray:
        array = np.asarray(array)
        self._collective_counter += 1
        key = f"__coll/{self._collective_counter}"
        self._put_and_notify((self.rank, key), array)
        contributions = [self._wait_get(r, key) for r in range(self.world_size)]
        result = reduce_arrays(contributions, op).astype(array.dtype, copy=False)
        ring_bytes = int(2 * array.nbytes * (self.world_size - 1) / max(self.world_size, 1))
        self.stats.record_send(ring_bytes, tag=tag)
        self.stats.record_recv(ring_bytes, tag=tag)
        self.barrier()
        self._store.pop((self.rank, key), None)
        return result

    def allgather(self, array: np.ndarray, tag: str = "allgather") -> List[np.ndarray]:
        array = np.asarray(array)
        self._collective_counter += 1
        key = f"__coll/{self._collective_counter}"
        self._put_and_notify((self.rank, key), array)
        gathered = []
        for r in range(self.world_size):
            remote = np.array(self._wait_get(r, key), copy=True)
            if r != self.rank:
                self.stats.record_recv(remote.nbytes, tag=tag)
                self.stats.record_send(array.nbytes, tag=tag)
            gathered.append(remote)
        self.barrier()
        self._store.pop((self.rank, key), None)
        return gathered


# --------------------------------------------------------------------------- #
# forked workers (the service job loop, one process per rank)
# --------------------------------------------------------------------------- #

def _forked_worker(rank: int, world_size: int, store, barrier, condition,
                   requests, responses, service_factory, timeout_s: float) -> None:
    """Process target: the shared job loop over a Manager communicator."""
    comm = MultiprocessCommunicator(rank, world_size, store, barrier, condition,
                                    timeout_s=timeout_s)
    poison = functools.partial(_poison_cluster, store, barrier, condition)
    if not _service_worker(rank, comm, requests, responses, service_factory, poison):
        # Injected crash: die like a segfault, skipping every exit handler.
        os._exit(13)


class MultiprocessServiceCluster(ServiceCluster):
    """:class:`~repro.distributed.service.ServiceCluster` on forked processes.

    Requires the ``fork`` start method: workers inherit the factory's
    captured state (model, shards, feature matrices) by address-space copy
    instead of pickling.  Job payloads and results *do* cross a pickling
    queue — keep them to the per-job data (seed ids, logit rows, state
    dicts).  Poisoning sets an abort flag in the Manager store, breaks the
    Manager barrier and notifies the store condition; :meth:`stop` reaps
    stragglers with terminate -> kill, then shuts the Manager down, so no
    child outlives the cluster.
    """

    def _launch(self) -> None:
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "MultiprocessServiceCluster requires the 'fork' start method "
                "(workers inherit the service state by address-space copy); "
                "this platform does not support fork"
            )
        ctx = mp.get_context("fork")
        self._manager = mp.Manager()
        store = self._manager.dict()
        barrier = self._manager.Barrier(self.world_size)
        condition = self._manager.Condition()
        self._poison_workers = functools.partial(_poison_cluster, store, barrier, condition)
        self._requests = [ctx.Queue() for _ in range(self.world_size)]
        self._responses = ctx.Queue()
        self._workers = [
            ctx.Process(
                target=_forked_worker,
                args=(rank, self.world_size, store, barrier, condition,
                      self._requests[rank], self._responses,
                      self._service_factory, self._timeout_s),
                name=f"{self.name}-{rank}",
                daemon=True,
            )
            for rank in range(self.world_size)
        ]

    def _reap(self) -> None:
        for process in self._workers:
            if process.is_alive():
                process.terminate()
        for process in self._workers:
            if process.is_alive():
                process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - terminate ignored
                process.kill()
                process.join(timeout=5.0)
        self._manager.shutdown()

    def _death_note(self, rank: int) -> str:
        return ("worker process died without posting a result "
                f"(exitcode {self._workers[rank].exitcode})")

    @property
    def processes(self) -> List[mp.process.BaseProcess]:
        """The worker processes, indexed by rank (for liveness checks)."""
        return list(self._workers)


def run_multiprocess(worker_fn: Callable[..., Any], world_size: int,
                     worker_args: Optional[Sequence[Any]] = None,
                     timeout_s: float = _DEFAULT_TIMEOUT_S,
                     **common_kwargs: Any) -> List[Any]:
    """Run ``worker_fn`` on ``world_size`` forked processes; results by rank.

    Rank ``r`` calls ``worker_fn(r, comm, worker_args[r], **common_kwargs)``
    (no positional argument when ``worker_args`` is ``None``) as the single
    job of a :class:`MultiprocessServiceCluster`, which is reaped before
    this returns or raises :class:`WorkerFailedError`.
    """
    if worker_args is not None and len(worker_args) != world_size:
        raise ValueError(f"worker_args must have length {world_size}")

    def factory(rank: int, comm: Communicator) -> Callable:
        args = [] if worker_args is None else [worker_args[rank]]
        return lambda kind, payload: worker_fn(rank, comm, *args, **common_kwargs)

    with MultiprocessServiceCluster(factory, world_size, timeout_s=timeout_s,
                                    name="multiprocess") as cluster:
        return cluster.request("run")

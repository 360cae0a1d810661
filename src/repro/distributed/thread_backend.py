"""In-process cluster backend: one thread per worker, a shared key/value store.

This backend gives every worker blocking point-to-point and collective
primitives with the same synchronization structure as a real
``torch.distributed`` deployment, while keeping everything inside one Python
process so the benchmarks can run on a laptop.  NumPy releases the GIL for
the heavy kernels, so workers do overlap; per-worker *compute* time is
measured with thread CPU clocks (see :mod:`repro.utils.timing`) to stay
independent of host core counts.

Two launchers run workers on it: :class:`~repro.distributed.cluster.
SimulatedCluster` runs one function per worker to completion (training,
benchmarks), and :class:`ThreadServiceCluster` keeps workers alive to answer
jobs (thread-backed serving) through the shared job loop of
:mod:`repro.distributed.service`.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.distributed.comm import (
    STREAM_KEY_PREFIX,
    ClusterAborted,
    Communicator,
    CommStats,
    reduce_arrays,
)
from repro.distributed.service import ServiceCluster, _service_worker

_DEFAULT_TIMEOUT_S = 120.0


class SharedStore:
    """Shared key/value store of published arrays, with blocking reads."""

    def __init__(self, world_size: int, timeout_s: float = _DEFAULT_TIMEOUT_S):
        self.world_size = world_size
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._data: Dict[Tuple[int, str], np.ndarray] = {}
        self._events: Dict[Tuple[int, str], threading.Event] = {}
        self._barrier: Optional[threading.Barrier] = None
        self.failure = threading.Event()
        self.failure_message: Optional[str] = None

    def attach_barrier(self, barrier: threading.Barrier) -> None:
        """Register the cluster barrier so :meth:`abort` can break it."""
        self._barrier = barrier

    # -- failure handling ------------------------------------------------ #
    def abort(self, message: str) -> None:
        with self._lock:
            if self.failure_message is None:
                self.failure_message = message
        self.failure.set()
        if self._barrier is not None:
            self._barrier.abort()
        # Wake up any blocked readers.
        with self._lock:
            for event in self._events.values():
                event.set()

    def _check_failure(self) -> None:
        if self.failure.is_set():
            raise ClusterAborted(self.failure_message or "another worker failed")

    # -- data access ------------------------------------------------------ #
    def _event_for(self, owner: int, key: str) -> threading.Event:
        with self._lock:
            event = self._events.get((owner, key))
            if event is None:
                event = threading.Event()
                self._events[(owner, key)] = event
            return event

    def put(self, owner: int, key: str, array: np.ndarray) -> None:
        event = self._event_for(owner, key)
        with self._lock:
            self._data[(owner, key)] = array
        event.set()

    def wait_get(self, owner: int, key: str) -> np.ndarray:
        """Block until ``(owner, key)`` is published; return the stored array.

        The wait parks on the publish event (``abort`` sets every registered
        event, so failures wake blocked readers) instead of spinning on a
        2 ms poll.  Waits are sliced so the event reference is re-acquired a
        few times per second: ``remove()`` discards the event object, and a
        reader parked on a discarded event would otherwise miss both a
        re-publish (which installs a fresh event) and ``abort`` (which only
        sets events still registered).
        """
        deadline = time.monotonic() + self.timeout_s
        while True:
            self._check_failure()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"Timed out waiting for rank {owner} to publish {key!r} "
                    f"after {self.timeout_s:.0f}s"
                )
            event = self._event_for(owner, key)
            if not event.wait(min(remaining, 0.1)):
                continue
            self._check_failure()
            with self._lock:
                if (owner, key) in self._data:
                    return self._data[(owner, key)]
            # Event set without data: abort() (raises below) or a transient
            # publish/remove race — back off briefly instead of spinning.
            self._check_failure()
            time.sleep(0.002)

    def try_get(self, owner: int, key: str) -> Optional[np.ndarray]:
        with self._lock:
            return self._data.get((owner, key))

    def remove(self, owner: int, key: str) -> None:
        with self._lock:
            self._data.pop((owner, key), None)
            event = self._events.pop((owner, key), None)
        if event is not None:
            event.clear()

    def clear_owner(self, owner: int, keep_prefix: Optional[str] = None) -> None:
        """Drop all of ``owner``'s entries, except keys under ``keep_prefix``."""
        with self._lock:
            keys = [
                k for k in self._data
                if k[0] == owner and not (keep_prefix and k[1].startswith(keep_prefix))
            ]
            for k in keys:
                self._data.pop(k, None)
                self._events.pop(k, None)

    def keys_of(self, owner: int) -> List[str]:
        with self._lock:
            return [key for (o, key) in self._data if o == owner]


class ThreadCommunicator(Communicator):
    """Communicator backed by a :class:`SharedStore` and a shared barrier."""

    def __init__(self, rank: int, world_size: int, store: SharedStore,
                 barrier: threading.Barrier, peer_stats: List[CommStats]):
        super().__init__(rank, world_size)
        self._store = store
        self._barrier = barrier
        self._peer_stats = peer_stats
        self.stats = peer_stats[rank]
        self._collective_counter = 0

    # -- point-to-point ------------------------------------------------- #
    def publish(self, key: str, array: np.ndarray) -> None:
        self._store.put(self.rank, key, np.asarray(array))

    def fetch(self, owner_rank: int, key: str, rows: Optional[np.ndarray] = None,
              tag: str = "halo") -> np.ndarray:
        if owner_rank == self.rank:
            array = self._store.wait_get(owner_rank, key)
            # A row fetch already copies (fancy indexing); the whole-array
            # case must copy too — returning the published array itself would
            # let caller mutation silently corrupt what peers fetch.
            return array[rows] if rows is not None else array.copy()
        array = self._store.wait_get(owner_rank, key)
        out = array[np.asarray(rows)].copy() if rows is not None else array.copy()
        nbytes = out.nbytes
        self.stats.record_recv(nbytes, tag=tag)
        self._peer_stats[owner_rank].record_send(nbytes, tag=tag)
        return out

    def unpublish(self, key: str) -> None:
        self._store.remove(self.rank, key)

    def clear_published(self) -> None:
        # Keyed-stream payloads (background sampling frontiers) survive the
        # iteration-boundary sweep; they are reclaimed via release_keyed.
        self._store.clear_owner(self.rank, keep_prefix=STREAM_KEY_PREFIX)

    # -- collectives ------------------------------------------------------ #
    def barrier(self) -> None:
        if self._store.failure.is_set():
            raise ClusterAborted(self._store.failure_message or "another worker failed")
        try:
            self._barrier.wait(timeout=self._store.timeout_s)
        except threading.BrokenBarrierError as exc:
            raise ClusterAborted(
                self._store.failure_message or "barrier broken (a worker died)"
            ) from exc

    def _next_collective_key(self, name: str) -> str:
        self._collective_counter += 1
        return f"__coll/{name}/{self._collective_counter}"

    def exchange(self, key: str, outgoing: Dict[int, np.ndarray],
                 tag: str = "exchange") -> Dict[int, np.ndarray]:
        prefix = f"__xchg/{key}"
        for dest, array in outgoing.items():
            if not 0 <= dest < self.world_size:
                raise ValueError(f"exchange destination {dest} out of range")
            array = np.asarray(array)
            self._store.put(self.rank, f"{prefix}/to{dest}", array)
            if dest != self.rank:
                self.stats.record_send(array.nbytes, tag=tag)
        self.barrier()
        received: Dict[int, np.ndarray] = {}
        for sender in range(self.world_size):
            array = self._store.try_get(sender, f"{prefix}/to{self.rank}")
            if array is None:
                continue
            if sender == self.rank:
                received[sender] = array
            else:
                received[sender] = array.copy()
                self.stats.record_recv(array.nbytes, tag=tag)
        self.barrier()
        for dest in outgoing:
            self._store.remove(self.rank, f"{prefix}/to{dest}")
        return received

    def allreduce(self, array: np.ndarray, op: str = "sum", tag: str = "allreduce") -> np.ndarray:
        array = np.asarray(array)
        key = self._next_collective_key("allreduce")
        self._store.put(self.rank, key, array)
        contributions = [self._store.wait_get(r, key) for r in range(self.world_size)]
        result = reduce_arrays(contributions, op).astype(array.dtype, copy=False)
        # Ring-allreduce volume: each worker sends/receives ~2·(N-1)/N of the payload.
        ring_bytes = int(2 * array.nbytes * (self.world_size - 1) / max(self.world_size, 1))
        self.stats.record_send(ring_bytes, tag=tag)
        self.stats.record_recv(ring_bytes, tag=tag)
        self.barrier()
        self._store.remove(self.rank, key)
        return result

    def allgather(self, array: np.ndarray, tag: str = "allgather") -> List[np.ndarray]:
        array = np.asarray(array)
        key = self._next_collective_key("allgather")
        self._store.put(self.rank, key, array)
        gathered = []
        for r in range(self.world_size):
            remote = self._store.wait_get(r, key)
            if r != self.rank:
                remote = remote.copy()
                self.stats.record_recv(remote.nbytes, tag=tag)
                self.stats.record_send(array.nbytes, tag=tag)
            gathered.append(remote)
        self.barrier()
        self._store.remove(self.rank, key)
        return gathered


def create_thread_communicators(world_size: int,
                                timeout_s: float = _DEFAULT_TIMEOUT_S
                                ) -> Tuple[List[ThreadCommunicator], SharedStore]:
    """Create one communicator per worker sharing a store and a barrier."""
    store = SharedStore(world_size, timeout_s=timeout_s)
    barrier = threading.Barrier(world_size)
    store.attach_barrier(barrier)
    peer_stats = [CommStats() for _ in range(world_size)]
    comms = [
        ThreadCommunicator(rank, world_size, store, barrier, peer_stats)
        for rank in range(world_size)
    ]
    return comms, store


class ThreadServiceCluster(ServiceCluster):
    """:class:`~repro.distributed.service.ServiceCluster` on daemon threads.

    Workers share the parent's address space, so a handler works on the
    very objects its factory closed over, not on copies.  Poisoning is
    :meth:`SharedStore.abort`.  A thread cannot be killed: one still stuck
    in a job after :meth:`stop`'s grace is left behind as a daemon, on a
    cluster that is already poisoned.
    """

    def _launch(self) -> None:
        comms, store = create_thread_communicators(self.world_size, timeout_s=self._timeout_s)
        self._poison_workers = store.abort
        self._requests = [queue.Queue() for _ in range(self.world_size)]
        self._responses = queue.Queue()
        self._workers = [
            threading.Thread(
                target=_service_worker,
                args=(rank, comms[rank], self._requests[rank], self._responses,
                      self._service_factory, store.abort),
                name=f"{self.name}-{rank}",
                daemon=True,
            )
            for rank in range(self.world_size)
        ]

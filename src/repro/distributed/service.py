"""One job loop for long-lived worker clusters, over any transport.

A :class:`ServiceCluster` runs ``world_size`` long-lived workers that build
their state once and then answer jobs posted to all ranks.  The parent side
(:meth:`~ServiceCluster.start`, :meth:`~ServiceCluster.request`,
:meth:`~ServiceCluster.stop` and the drain loop) and the worker side
(:func:`_service_worker`) are written once; a transport subclass only builds
the communicators, the queues, the worker objects and the poison callable:

* :class:`repro.distributed.thread_backend.ThreadServiceCluster` runs daemon
  threads over the thread backend's shared store;
* :class:`repro.distributed.mp_backend.MultiprocessServiceCluster` forks
  processes that talk through a ``multiprocessing.Manager``.

Usage::

    with ThreadServiceCluster(factory, world_size=2) as cluster:
        per_rank = cluster.request("predict", seeds)

``factory`` is ``(rank, comm) -> handler(kind, payload)``.  It runs once on
every worker, concurrently, so collective construction is fine; each job
then calls the handler on every rank and returns the results by rank.

Failure semantics (one loop, so they hold on both transports)
--------------------------------------------------------------

* A worker whose job **raises** poisons the cluster and posts its error.
  Every blocking communicator wait then raises
  :class:`~repro.distributed.comm.ClusterAborted`; survivors post that as a
  follow-on, which is dropped once a root cause is recorded.  The parent
  raises :class:`WorkerFailedError` naming the failing rank.
* A worker that **dies without posting anything** (an injected crash, a
  killed process) is found by polling ``is_alive`` alongside the response
  queue; the parent poisons the cluster the same way and raises naming the
  dead rank.
* After the first error, survivors get ``_ABORT_GRACE_S`` to post before
  the parent raises anyway; without errors a job waits up to ``timeout_s``.
* A poisoned cluster fails every later job at once.  ``stop()`` (stop
  sentinels, a short join, then the transport's reap) is the only teardown
  path.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from typing import Any, Callable, List, Optional

import numpy as np

from repro.distributed.comm import ClusterAborted, Communicator

_DEFAULT_TIMEOUT_S = 300.0
#: parent-side liveness-check interval while draining the result queue
_POLL_S = 0.2
#: how long survivors get to post their errors after the cluster aborts
_ABORT_GRACE_S = 10.0
#: request kinds reserved by the worker loop itself.
_STOP_KIND = "__stop__"
_CRASH_KIND = "__crash__"
#: job id carrying each worker's startup acknowledgement.
_INIT_JOB = 0
#: how long stop() lets workers drain before the transport reaps them.
_STOP_GRACE_S = 2.0


class WorkerFailedError(RuntimeError):
    """One or more workers raised, died, or timed out."""


def portable(payload: Any) -> Any:
    """Make a job payload cheap and safe to ship through an mp queue.

    Queue transport pickles every payload; a non-contiguous array (a slice,
    a transpose) pickles through a private copy anyway, so taking the
    contiguous copy *here* keeps the feeder thread from doing it and makes
    the cost explicit at the call site.  Tuples/lists/dicts are walked;
    everything else is returned untouched (and must be picklable).
    """
    if isinstance(payload, np.ndarray):
        return np.ascontiguousarray(payload)
    if isinstance(payload, tuple):
        return tuple(portable(item) for item in payload)
    if isinstance(payload, list):
        return [portable(item) for item in payload]
    if isinstance(payload, dict):
        return {key: portable(value) for key, value in payload.items()}
    return payload


def _service_worker(rank: int, comm: Communicator, requests, responses,
                    service_factory: Callable[[int, Communicator], Callable],
                    poison: Callable[[str], None]) -> bool:
    """Job loop of one worker; returns ``False`` when told to crash.

    Builds the handler with ``service_factory(rank, comm)``, acknowledges
    startup as job ``_INIT_JOB``, then answers ``(kind, job_id, payload)``
    requests until the stop sentinel.  Every job posts exactly one
    ``(rank, job_id, status, payload)`` response: ``"ok"`` with the result,
    ``"aborted"`` when the cluster was poisoned under it, or ``"error"``
    after this worker poisoned the cluster itself, so peers blocked in the
    failed job's collectives unblock instead of timing out.
    """

    def attempt(job_id: int, call: Callable[[], Any]):
        try:
            return "ok", call()
        except ClusterAborted as exc:  # a follow-on of someone else's failure
            return "aborted", repr(exc)
        except BaseException as exc:  # noqa: BLE001 - report, unblock peers, keep looping
            poison(f"rank {rank} failed on job {job_id}: {exc!r}")
            return "error", repr(exc)

    status, handler = attempt(_INIT_JOB, lambda: service_factory(rank, comm))
    # Startup ack; on failure ``handler`` holds the error text.
    responses.put((rank, _INIT_JOB, status, None if status == "ok" else handler))
    if status != "ok":
        return True
    while True:
        kind, job_id, payload = requests.get()
        if kind == _STOP_KIND:
            return True
        if kind == _CRASH_KIND:
            # Fault injection (tests): stop mid-loop without posting anything.
            return False
        status, result = attempt(job_id, lambda: handler(kind, payload))
        responses.put((rank, job_id, status, portable(result)))


class ServiceCluster:
    """``world_size`` long-lived workers behind per-rank job queues.

    :meth:`request` posts one ``(kind, payload)`` job to **every** worker
    and blocks until every rank responded (responses cross one shared
    queue, matched by job id).  See the module docstring for the failure
    semantics.  A transport subclass implements :meth:`_launch` and may
    override :meth:`_reap` and :meth:`_death_note`.
    """

    def __init__(self, service_factory: Callable[[int, Communicator], Callable],
                 world_size: int, timeout_s: float = _DEFAULT_TIMEOUT_S,
                 name: str = "service"):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.name = name
        self._service_factory = service_factory
        self._timeout_s = timeout_s
        self._lock = threading.Lock()
        self._requests: List[Any] = []
        self._responses = None
        self._workers: List[Any] = []
        self._poison_workers: Optional[Callable[[str], None]] = None
        self._job_counter = _INIT_JOB
        self._started = False
        self._stopped = False
        self._failure: Optional[str] = None

    # -- transport hooks --------------------------------------------------- #
    def _launch(self) -> None:
        """Build the transport: fill ``_requests``, ``_responses``,
        ``_poison_workers`` and ``_workers`` (not yet started; each runs
        :func:`_service_worker` and is named ``f"{name}-{rank}"``)."""
        raise NotImplementedError

    def _reap(self) -> None:
        """Release the transport once :meth:`stop` gave workers their grace."""

    def _death_note(self, rank: int) -> str:
        """Why rank ``rank`` is missing, once its worker is no longer alive."""
        return "worker died without posting a result"

    # -- lifecycle -------------------------------------------------------- #
    def start(self) -> "ServiceCluster":
        """Start the workers and wait for every rank's startup ack."""
        if self._started:
            raise RuntimeError("cluster is already started")
        self._launch()
        self._started = True
        for worker in self._workers:
            worker.start()
        try:
            self._collect(_INIT_JOB)
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Stop sentinels, a graceful join, then the transport's reap — idempotent."""
        if self._stopped or not self._started:
            self._stopped = True
            return
        self._stopped = True
        for worker, requests in zip(self._workers, self._requests):
            if worker.is_alive():
                try:
                    requests.put((_STOP_KIND, -1, None))
                except Exception:  # pragma: no cover - queue torn down
                    pass
        for worker in self._workers:
            worker.join(timeout=_STOP_GRACE_S)
        self._reap()

    @property
    def running(self) -> bool:
        return (self._started and not self._stopped
                and all(w.is_alive() for w in self._workers))

    @property
    def failure(self) -> Optional[str]:
        """The message that poisoned the cluster, or ``None`` while healthy."""
        return self._failure

    # -- job dispatch ------------------------------------------------------ #
    def request(self, kind: str, payload: Any = None) -> List[Any]:
        """Run one job on every worker; per-rank responses indexed by rank.

        Thread-safe (jobs from concurrent callers are serialized, so every
        worker sees the same job order).  Raises :class:`WorkerFailedError`
        if any worker errors or dies before responding.
        """
        with self._lock:
            if not self._started or self._stopped:
                raise RuntimeError("cluster is not running")
            if self._failure is not None:
                raise WorkerFailedError(
                    f"cluster is poisoned by an earlier failure: {self._failure}"
                )
            self._job_counter += 1
            job_id = self._job_counter
            for requests in self._requests:
                requests.put((kind, job_id, portable(payload)))
            return self._collect(job_id)

    def inject_crash(self, rank: int) -> None:
        """Fault injection: make ``rank`` stop answering before its next job.

        The crash sentinel is queued in order, so a job posted *after* this
        call finds the rank already gone — the deterministic way for tests
        to exercise the mid-request failure path.
        """
        self._requests[rank].put((_CRASH_KIND, -1, None))

    def _collect(self, job_id: int) -> List[Any]:
        """Drain responses for ``job_id`` with liveness polling (see module doc)."""
        results: List[Any] = [None] * self.world_size
        reported: set = set()
        errors: List[str] = []
        follow_ons: List[str] = []
        deadline = time.monotonic() + self._timeout_s

        def _record(rank: int, status: str, payload: Any) -> None:
            nonlocal deadline
            reported.add(rank)
            if status == "ok":
                results[rank] = payload
                return
            if not errors and not follow_ons:
                # Survivors get a bounded grace to post after the abort.
                deadline = min(deadline, time.monotonic() + _ABORT_GRACE_S)
            if status == "aborted":
                follow_ons.append(f"rank {rank}: {payload}")
            else:
                errors.append(f"rank {rank}: {payload}")
                self._poison(errors[-1])

        def _drain_one() -> bool:
            try:
                rank, jid, status, payload = self._responses.get(timeout=_POLL_S)
            except queue_mod.Empty:
                return False
            if jid == job_id:
                _record(rank, status, payload)
            # Stale responses (an aborted earlier job's stragglers) are
            # dropped: their job already raised in the parent.
            return True

        while len(reported) < self.world_size:
            if errors and reported >= self._live_or_reported(reported):
                break  # every rank that can still answer has answered
            if _drain_one():
                continue
            if time.monotonic() > deadline:
                if not errors and not follow_ons:
                    missing = sorted(set(range(self.world_size)) - reported)
                    errors.append(
                        f"timed out after {self._timeout_s:.0f}s waiting for "
                        f"ranks {missing}"
                    )
                break
            crashed = [r for r in range(self.world_size)
                       if r not in reported and not self._workers[r].is_alive()]
            if not crashed:
                continue
            # A dead rank's response may still be in flight through the
            # queue feeder — drain once more before declaring it crashed.
            if _drain_one():
                continue
            for rank in crashed:
                if rank not in reported:
                    _record(rank, "error", self._death_note(rank))
        # Follow-ons speak only when no root cause reached the parent.
        failures = errors or follow_ons
        if failures:
            if self._failure is None:  # a timeout, or follow-ons only
                self._poison(failures[0])
            raise WorkerFailedError(
                f"{self.name} workers failed: " + "; ".join(failures)
            )
        return results

    def _live_or_reported(self, reported: set) -> set:
        """Ranks we can still expect a response from, plus those heard."""
        return reported | {
            r for r in range(self.world_size) if self._workers[r].is_alive()
        }

    def _poison(self, message: str) -> None:
        if self._failure is None:
            self._failure = message
        self._poison_workers(message)

    def __enter__(self) -> "ServiceCluster":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

"""Outside-in probes: a tracing Communicator proxy and model instrumentation.

Nothing here reaches inside the library.  Every span is taken around a call
into a public entry point:

* :class:`TracingCommunicator` wraps the :class:`~repro.distributed.comm.
  Communicator` a worker function receives and times each primitive, noting
  whether the worker's own thread or a background thread (SAR prefetch,
  sample-ahead) issued it.  Bytes are still accounted by the wrapped
  communicator's :class:`~repro.distributed.comm.CommStats`, which the proxy
  shares, so tracing never changes the byte counts.
* :func:`instrument_training_model` patches ``forward`` on one model
  instance (a timestamp per call: the step clock) and, when traced,
  ``forward_layer`` and ``zero_grad``: each layer call is timed, and every
  layer output but the last passes through an identity autograd marker
  whose backward timestamps the moment the gradient reaches it, which
  brackets the layers' backward passes.
* :func:`instrument_serving_model` times ``forward_layer`` in forked shard
  processes and ships what they record back over a queue the benchmark
  owns, a few times a second.

Markers share the layer output's buffer and are created untracked, so the
memory accounting sees the same tensors as without them; they are skipped
when no gradient is recorded.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.distributed.comm import Communicator
from repro.tensor import edge_plan
from repro.tensor.memory import active_tracker, no_tracking
from repro.tensor.tensor import Function

clock = time.perf_counter

#: ``(op, tag, start, end, on_main_thread)``
CommSpan = Tuple[str, str, float, float, bool]


class RankTrace:
    """What the probes recorded on one training worker.

    Lists are appended from the worker thread and, for comm spans, from its
    background threads; ``list.append`` is atomic, so no lock is needed.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        #: ``(time, training)`` at every ``model.forward`` entry
        self.forwards: List[Tuple[float, bool]] = []
        #: ``(layer, start, end, training)`` of every ``forward_layer`` call
        self.layer_fwd: List[Tuple[int, float, float, bool]] = []
        #: ``(layer, time)``: the gradient reached layer ``layer``'s output
        #: (for the last layer: ``zero_grad`` returned, backward is next)
        self.bwd_marks: List[Tuple[int, float]] = []
        self.comm: List[CommSpan] = []
        #: counter snapshots taken at each training ``forward`` entry:
        #: ``(alloc_bytes, allocs, plan_builds)``
        self.counters: List[Tuple[int, int, int]] = []
        #: counters and received bytes per tag at the first eval forward
        self.at_eval: Optional[Dict[str, Any]] = None
        self.resident_blocks_max = 0
        self.model = None

    def training_forwards(self) -> List[float]:
        """Start times of the training steps, closed by the first eval forward."""
        times = []
        for t, training in self.forwards:
            times.append(t)
            if not training:
                break
        return times


class _LayerMark(Function):
    """Identity whose backward timestamps the gradient's arrival.

    Apply it under :func:`~repro.tensor.memory.no_tracking`: its output
    shares the input's buffer, which must not be counted twice.
    """

    def forward(self, x, trace: RankTrace, index: int):
        self.save_for_backward(trace, index)
        return x.data

    def backward(self, grad_out):
        trace, index = self.saved
        trace.bwd_marks.append((index, clock()))
        return grad_out


def _counters() -> Tuple[int, int, int]:
    tracker = active_tracker()
    if tracker is None:
        return 0, 0, edge_plan.build_counter
    return tracker.total_allocated_bytes, tracker.num_allocations, edge_plan.build_counter


def instrument_training_model(model, trace: RankTrace):
    """Patch ``model`` (in place) to feed ``trace``; returns the model."""
    inner_forward = model.forward
    trace.model = model

    def forward(graph, x):
        trace.forwards.append((clock(), model.training))
        if trace.traced:
            engine = getattr(graph, "engine", None)
            if engine is not None:
                trace.resident_blocks_max = max(trace.resident_blocks_max,
                                                engine.max_resident_remote_blocks)
            if model.training:
                trace.counters.append(_counters())
            elif trace.at_eval is None:
                stats = graph.comm.stats
                trace.at_eval = {"counters": _counters(),
                                 "received_by_tag": dict(stats.received_by_tag)}
        return inner_forward(graph, x)

    model.forward = forward
    if trace.traced:
        inner_layer, inner_zero_grad = model.forward_layer, model.zero_grad
        last = model.num_layers - 1

        def forward_layer(index, graph, x):
            start = clock()
            y = inner_layer(index, graph, x)
            trace.layer_fwd.append((index, start, clock(), model.training))
            if index == last or not y.requires_grad:
                return y
            with no_tracking():
                return _LayerMark.apply(y, trace, index)

        def zero_grad():
            # The trainers call zero_grad() right before loss.backward(): the
            # gradient is about to flow into the last layer.  A marker on the
            # last layer's output would instead change which tensor owns the
            # logits' buffer, and so the live-memory accounting.
            inner_zero_grad()
            if model.training:
                trace.bwd_marks.append((last, clock()))

        model.forward_layer = forward_layer
        model.zero_grad = zero_grad
    return model


class TracingCommunicator(Communicator):
    """Times every primitive of ``inner``; shares its :class:`CommStats`."""

    def __init__(self, inner: Communicator, trace: RankTrace):
        super().__init__(inner.rank, inner.world_size)
        self.inner = inner
        self.stats = inner.stats
        self._trace = trace
        self._main = threading.get_ident()

    def _timed(self, op: str, tag: str, fn, /, *args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._trace.comm.append(
                (op, tag, start, clock(), threading.get_ident() == self._main))

    def publish(self, key, array):
        return self._timed("publish", "", self.inner.publish, key, array)

    def fetch(self, owner_rank, key, rows=None, tag="halo"):
        return self._timed("fetch", tag, self.inner.fetch, owner_rank, key,
                           rows=rows, tag=tag)

    def unpublish(self, key):
        return self._timed("unpublish", "", self.inner.unpublish, key)

    def clear_published(self):
        return self._timed("clear_published", "", self.inner.clear_published)

    def exchange(self, key, outgoing, tag="exchange"):
        return self._timed("exchange", tag, self.inner.exchange, key, outgoing, tag=tag)

    def allreduce(self, array, op="sum", tag="allreduce"):
        return self._timed("allreduce", tag, self.inner.allreduce, array, op=op, tag=tag)

    def allgather(self, array, tag="allgather"):
        return self._timed("allgather", tag, self.inner.allgather, array, tag=tag)

    def barrier(self):
        return self._timed("barrier", "", self.inner.barrier)

    def allgather_keyed(self, key, array, tag="allgather"):
        return self._timed("allgather_keyed", tag, self.inner.allgather_keyed,
                           key, array, tag=tag)

    def release_keyed(self, key):
        return self._timed("release_keyed", "", self.inner.release_keyed, key)


#: how often a shard process ships what it recorded (seconds)
SERVING_FLUSH_S = 0.2


def instrument_serving_model(model, channel, traced: bool):
    """Patch ``forward_layer`` on a model that forked shard processes serve.

    Each shard process buffers what it records and, on the first call at
    least :data:`SERVING_FLUSH_S` after its previous send, puts one message
    ``(pid, peak_bytes, spans)`` on ``channel``: the peak of the process's
    active :class:`~repro.tensor.memory.MemoryTracker` so far and, when
    ``traced``, the ``(pid, layer, start, end, plan_builds)`` spans of the
    calls since the last send.  ``plan_builds`` counts edge plans built in
    the process since its previous call: a batch's restricted blocks are
    built, or taken from the per-seed-set cache, just before its first
    layer runs.  A caller that needs everything recorded waits
    :data:`SERVING_FLUSH_S` and sends one more request that every shard
    computes.
    """
    inner_layer = model.forward_layer
    state = {"builds": edge_plan.build_counter, "spans": [], "sent": clock()}

    def forward_layer(index, graph, x):
        start = clock()
        y = inner_layer(index, graph, x)
        end = clock()
        pid = os.getpid()
        if traced:
            builds = edge_plan.build_counter
            state["spans"].append((pid, index, start, end, builds - state["builds"]))
            state["builds"] = builds
        if end - state["sent"] >= SERVING_FLUSH_S:
            tracker = active_tracker()
            peak = tracker.peak_bytes if tracker is not None else 0
            channel.put((pid, peak, state["spans"]))
            state["spans"], state["sent"] = [], end
        return y

    model.forward_layer = forward_layer
    return model

"""Pure arithmetic of the benchmark: percentiles, failure accounting, spans.

Kept free of the library and of I/O so the rules the reported numbers rest
on are unit-tested on their own (``test_perfbench.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]

#: samples that must lie beyond the reported tail percentile
TAIL_MIN_BEYOND = 10
#: the highest tail percentile reported.  On the 2-vCPU host this benchmark
#: was sized on, serve-mp's p99 latency moved by 25 % (IQR over median)
#: between runs with a few percent of CPU steal, p95 by 14 % and p90 by
#: 7 %; a tail that noisy could gate nothing.
TAIL_MAX_PERCENTILE = 90


def tail_percentile(values: Sequence[float],
                    min_beyond: int = TAIL_MIN_BEYOND) -> Tuple[float, int, int]:
    """The highest whole percentile, up to p90, with ``min_beyond`` samples beyond it.

    Returns ``(value, percentile, n)``.  The value is the nearest-rank order
    statistic: with ``p = min(90, floor(100 * (n - min_beyond) / n))`` it is
    the ``ceil(p * n / 100)``-th smallest sample, so at least ``min_beyond``
    samples are larger-ranked.  Samples too few to support a percentile
    above the median report the median (``p = 50``).
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail_percentile needs at least one sample")
    ordered = sorted(values)
    percentile = max(50, min(TAIL_MAX_PERCENTILE, (100 * (n - min_beyond)) // n))
    rank = max(1, math.ceil(percentile * n / 100))
    return ordered[rank - 1], percentile, n


def request_windows(requests: Sequence[Interval], size: int,
                    min_beyond: int = TAIL_MIN_BEYOND) -> Tuple[List[float], List[float], int]:
    """Tail latency and completion rate of each run of ``size`` consecutive requests.

    ``requests`` are ``(submit, done)`` pairs in the order they were sent.
    Returns ``(tails, rates, percentile)``: for each full window, its
    :func:`tail_percentile` latency and ``size`` over the time from its first
    submit to its last completion.  A trailing partial window is dropped, so
    fewer than ``size`` requests give no window; every window has the same
    size, hence the same percentile.
    """
    tails, rates, percentile = [], [], 0
    for start in range(0, len(requests) - size + 1, size):
        window = requests[start:start + size]
        tail, percentile, _ = tail_percentile([done - submit for submit, done in window],
                                              min_beyond)
        tails.append(tail)
        rates.append(size / (max(done for _, done in window) - window[0][0]))
    return tails, rates, percentile


@dataclass
class OpLedger:
    """Attempted and failed operations (steps or requests).

    An operation fails when it raises, times out or fails a correctness
    check; :attr:`failed_frac` is failed over attempted.
    """

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# --------------------------------------------------------------------------- #
# interval arithmetic
# --------------------------------------------------------------------------- #
def covered(intervals: Iterable[Interval], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if b > start and a < end)
    total = 0.0
    cursor = start
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def exclusive_lengths(intervals: Sequence[Optional[Interval]]) -> List[float]:
    """Per interval, the length not already covered by earlier ones.

    The results sum to the length of the union, so parts attributed this
    way never double count time.  ``None`` entries contribute 0.
    """
    out: List[float] = []
    seen: List[Interval] = []
    for interval in intervals:
        if interval is None:
            out.append(0.0)
            continue
        a, b = interval
        out.append((b - a) - covered(seen, a, b))
        seen.append(interval)
    return out


# --------------------------------------------------------------------------- #
# one training step
# --------------------------------------------------------------------------- #
def decompose_step(start: float, end: float, num_layers: int,
                   layer_fwd: Sequence[Tuple[int, float, float]],
                   bwd_marks: Sequence[Tuple[int, float]],
                   main_comm: Sequence[Tuple[str, str, float, float]]) -> Dict[str, float]:
    """Split one training step ``[start, end)`` into its top-level parts.

    ``layer_fwd`` holds the step's ``(layer, t0, t1)`` forward spans,
    ``bwd_marks`` the ``(layer, t)`` moments the gradient reached each
    layer's output (for the last layer: the moment backward began), and
    ``main_comm`` the worker thread's ``(op, tag, t0, t1)`` communicator
    calls.  The backward of layer ``i`` runs from its
    mark to the mark of layer ``i - 1``; layer 0's ends where the gradient
    sync begins (the trainer's first ``allreduce`` after backward, the
    global loss-count reduction), and the sync ends when the ``grad_sync``
    allreduce returns.  Everything after it until the next step starts is
    ``between_steps`` (optimizer, scheduler, loss allreduce, next
    ``begin_step``, and on sampled runs the sample-ahead wait and block
    install).  ``unattributed`` is the rest, so the parts sum to
    ``end - start`` exactly.  Each layer span is also split into the time
    spent inside communicator calls (``comm``) and the rest (``self``).
    """
    parts: Dict[str, float] = {}
    comm_intervals = [(a, b) for _, _, a, b in main_comm]
    fwd: Dict[int, Interval] = {i: (a, b) for i, a, b in layer_fwd}
    marks: Dict[int, float] = {i: t for i, t in bwd_marks}

    bwd_end = None
    sync_end = None
    if 0 in marks:
        t0 = marks[0]
        bwd_end = next((a for op, tag, a, _ in main_comm
                        if op == "allreduce" and tag == "allreduce" and a >= t0), None)
    if bwd_end is not None:
        sync_end = next((b for op, tag, a, b in main_comm
                         if op == "allreduce" and tag == "grad_sync" and a >= bwd_end), None)

    bwd: Dict[int, Interval] = {}
    for i in range(num_layers):
        if i not in marks:
            continue
        stop = marks.get(i - 1) if i > 0 else bwd_end
        if stop is not None:
            bwd[i] = (marks[i], stop)

    attributed = 0.0
    for phase, spans in (("fwd", fwd), ("bwd", bwd)):
        for i in range(num_layers):
            span = spans.get(i)
            total = span[1] - span[0] if span else 0.0
            comm = covered(comm_intervals, *span) if span else 0.0
            parts[f"layer{i}.{phase}"] = total
            parts[f"layer{i}.{phase}_comm"] = comm
            parts[f"layer{i}.{phase}_self"] = total - comm
            attributed += total
    parts["grad_sync"] = (sync_end - bwd_end) if sync_end is not None else 0.0
    parts["between_steps"] = (end - sync_end) if sync_end is not None else 0.0
    attributed += parts["grad_sync"] + parts["between_steps"]
    parts["unattributed"] = (end - start) - attributed
    parts["step"] = end - start
    return parts


def comm_totals(start: float, end: float,
                comm: Sequence[Tuple[str, str, float, float, bool]]) -> Dict[str, float]:
    """Communicator time and calls of the calls that began in ``[start, end)``.

    Halo fetches are split by thread: ``fetch`` on the worker's own thread
    blocks the step, ``fetch_bg`` on a background (prefetch or sample-ahead)
    thread should not.
    """
    out = {"fetch": 0.0, "fetch_bg": 0.0, "exchange": 0.0, "allreduce": 0.0,
           "allgather_keyed": 0.0, "calls": 0.0}
    for op, _, a, b, main in comm:
        if not start <= a < end:
            continue
        out["calls"] += 1
        if op == "fetch":
            out["fetch" if main else "fetch_bg"] += b - a
        elif op in ("exchange", "allreduce", "allgather_keyed"):
            out[op] += b - a
    return out


# --------------------------------------------------------------------------- #
# one served request
# --------------------------------------------------------------------------- #
def attribute_request(submit: float, done: float, num_layers: int,
                      spans: Sequence[Tuple[int, float, float]]) -> Dict[str, float]:
    """Split one request's latency into per-layer shard time and the rest.

    ``spans`` are ``(layer, t0, t1)`` ``forward_layer`` calls from every
    shard process.  A span counts for the request when it lies entirely
    inside ``[submit, done]`` — the serve loop runs one batch at a time, so
    those belong to the batch that answered it.  Per layer the shards'
    spans are merged into one interval (first start to last end) and each
    layer keeps only the time no earlier layer already claimed;
    ``unattributed`` (queueing, coalescing, pickling, the walk) is the rest
    of the latency, so the parts sum to it exactly.
    """
    per_layer: List[Optional[Interval]] = []
    for i in range(num_layers):
        inside = [(a, b) for layer, a, b in spans
                  if layer == i and a >= submit and b <= done]
        per_layer.append((min(a for a, _ in inside), max(b for _, b in inside))
                         if inside else None)
    lengths = exclusive_lengths(per_layer)
    parts = {f"layer{i}": length for i, length in enumerate(lengths)}
    parts["unattributed"] = (done - submit) - sum(lengths)
    parts["latency"] = done - submit
    return parts


def mean_parts(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Key-wise mean of equally keyed part dictionaries."""
    if not rows:
        return {}
    return {key: sum(row[key] for row in rows) / len(rows) for key in rows[0]}

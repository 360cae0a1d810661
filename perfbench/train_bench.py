"""Training workloads: SAR full-batch and neighbour-sampled, on a thread cluster.

A run is a sequence of *rounds*.  Each round starts from the generated
dataset, partitions it, shards it, and runs the library's own per-worker
loop (:func:`repro.training.distributed_train_worker`) on a
:class:`repro.distributed.SimulatedCluster` for a fixed number of epochs.
The first ``warmup_steps`` optimizer steps of a round are set-up; the rest
are timed.  Rounds repeat until the run's time is spent, so one run yields
several set-up samples and every round does identical work for a seed.

Step boundaries come from the model's ``forward`` calls: step ``k`` runs
from forward ``k`` to forward ``k + 1``, and the final evaluation forward
closes the last step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Optional

import numpy as np

from attribution import (
    OpLedger,
    comm_totals,
    decompose_step,
    mean_parts,
    tail_percentile,
)
from tracing import RankTrace, TracingCommunicator, clock, instrument_training_model

from repro.core.config import SARConfig
from repro.datasets import ogbn_papers_mini, ogbn_products_mini
from repro.distributed import ClusterRunResult, SimulatedCluster
from repro.distributed.cost_model import (
    PREFETCH_OVERLAP_TAGS,
    SAMPLING_OVERLAP_TAGS,
    epoch_cost,
)
from repro.nn.models import GATNet, GraphSageNet
from repro.partition import PartitionBook, create_shards, partition_graph
from repro.sample.distributed import build_sampling_plan
from repro.sample.loader import NeighborSamplingConfig, num_batches_for
from repro.tensor import Tensor, no_grad
from repro.training import TrainingConfig, distributed_train_worker

#: communicator timeout of one cluster run; a hung collective fails the round
CLUSTER_TIMEOUT_S = 30.0
#: the tolerance the repository's SAR parity tests use: SAR sums remote
#: blocks in another order than one machine does
LOGIT_RTOL = LOGIT_ATOL = 1e-3
#: conv layers of every training model
NUM_LAYERS = 3
BYTE_TAGS = ("forward_halo", "backward_refetch", "backward_error", "grad_sync",
             "sample_frontier")


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    world: int
    make_dataset: Callable[[int], object]
    make_factory: Callable[[object], Callable[[int], object]]
    sar: SARConfig
    epochs: int
    warmup_steps: int
    sampler: Optional[NeighborSamplingConfig] = None

    def steps_per_epoch(self, dataset) -> int:
        if self.sampler is None:
            return 1
        return num_batches_for(int(dataset.train_mask.sum()), self.sampler.batch_size,
                               self.sampler.drop_last)

    def overlap_tags(self):
        """The comm tags the cost model may hide behind compute for this run."""
        tags = (PREFETCH_OVERLAP_TAGS if self.sar.prefetch else ()) + \
            (SAMPLING_OVERLAP_TAGS if self.sampler is not None else ())
        return tags or None


def _products(seed: int):
    return ogbn_products_mini(scale=4.0, seed=seed)


def _papers(seed: int):
    return ogbn_papers_mini(scale=2.0, seed=seed)


def _sage(dataset):
    return lambda dim: GraphSageNet(dim, 64, dataset.num_classes, num_layers=NUM_LAYERS)


def _gat(dataset):
    return lambda dim: GATNet(dim, 8, dataset.num_classes, num_layers=NUM_LAYERS,
                              num_heads=4, fused=True)


# The full-batch workloads run three workers, not two: with two there is a
# single remote block, so the prefetch pipeline never holds a second one and
# gat-full could not show the two-resident-block (3/N) memory point it
# exists to exercise.  Epochs per round are sized so a 25 s run times about
# 100 steps or more, enough for a p90 tail.
WORKLOADS: Dict[str, TrainWorkload] = {
    "sage-full": TrainWorkload("sage-full", 3, _products, _sage, SARConfig(),
                               epochs=20, warmup_steps=2),
    "gat-full": TrainWorkload("gat-full", 3, _products, _gat, SARConfig(prefetch=True),
                              epochs=16, warmup_steps=2),
    "sage-sampled": TrainWorkload(
        "sage-sampled", 2, _papers, _sage, SARConfig(), epochs=3, warmup_steps=3,
        sampler=NeighborSamplingConfig(fanouts=(5, 5, 5), batch_size=128)),
}


def _bench_worker(rank, comm, shard, *, traces: List[RankTrace], model_factory, **kwargs):
    """The library's worker loop, handed a traced communicator and model."""
    trace = traces[rank]
    if trace.traced:
        comm = TracingCommunicator(comm, trace)

    def factory(dim):
        return instrument_training_model(model_factory(dim), trace)

    return distributed_train_worker(rank, comm, shard, model_factory=factory, **kwargs)


def halo_rows(shards) -> int:
    """Remote source rows all workers need per full-graph aggregation."""
    return int(sum(len(block.required_src_local) for shard in shards
                   for block in shard.blocks if block.src_rank != block.dst_rank))


@dataclass
class Round:
    ok: bool
    steps: List[float] = field(default_factory=list)
    setup_s: float = 0.0
    partition_s: float = 0.0
    shards_s: float = 0.0
    halo_rows: int = 0
    peak_mem_mb: float = 0.0
    cost_model_step_s: float = 0.0
    traces: List[RankTrace] = field(default_factory=list)
    total_steps: int = 0
    error: str = ""
    cluster: Optional[ClusterRunResult] = None
    logits: Optional[np.ndarray] = None


def run_round(wl: TrainWorkload, dataset, seed: int, traced: bool) -> Round:
    """Partition, shard and train one round; check its final logits."""
    start = clock()
    assignment = partition_graph(dataset.graph, wl.world, seed=seed)
    partitioned = clock()
    book = PartitionBook(assignment, wl.world)
    shards = create_shards(dataset.graph, book)
    sharded = clock()
    config = TrainingConfig(num_epochs=wl.epochs, lr_schedule="none", seed=seed,
                            sampler=wl.sampler)
    plan = None
    if wl.sampler is not None:
        plan = build_sampling_plan(dataset.graph, book, wl.sampler,
                                   dataset.train_indices(), config.resolved_sampler_seed())
    factory = wl.make_factory(dataset)
    traces = [RankTrace(traced) for _ in range(wl.world)]
    total_steps = wl.epochs * wl.steps_per_epoch(dataset)
    out = Round(ok=False, partition_s=partitioned - start, shards_s=sharded - partitioned,
                halo_rows=halo_rows(shards), traces=traces, total_steps=total_steps)
    try:
        result = SimulatedCluster(wl.world, timeout_s=CLUSTER_TIMEOUT_S).run(
            _bench_worker, worker_args=shards, traces=traces, model_factory=factory,
            feature_dim=dataset.feature_dim, num_classes=dataset.num_classes,
            config=config, sar_config=wl.sar, sampling=plan)
    except RuntimeError as exc:
        out.error = f"cluster run failed: {exc}"
        return out
    marks = traces[0].training_forwards()
    if len(marks) != total_steps + 1:
        out.error = f"expected {total_steps + 1} forwards on rank 0, saw {len(marks)}"
        return out
    out.cluster = result
    out.steps = [b - a for a, b in zip(marks[wl.warmup_steps:-1], marks[wl.warmup_steps + 1:])]
    out.setup_s = marks[wl.warmup_steps] - start
    out.peak_mem_mb = result.max_peak_memory_mb
    per_epoch = epoch_cost(result, num_epochs=wl.epochs, overlap_tags=wl.overlap_tags())
    out.cost_model_step_s = per_epoch.epoch_time_s / wl.steps_per_epoch(dataset)

    # Correctness gate: the assembled final-evaluation logits equal a
    # single-machine forward of the trained weights (float tolerance).
    got = out.logits = book.scatter_to_global([r["local_logits"] for r in result.results])
    reference_model = factory(dataset.feature_dim)
    reference_model.load_state_dict(traces[0].model.state_dict())
    reference_model.eval()
    with no_grad():
        want = reference_model(dataset.graph, Tensor(dataset.features)).data
    out.ok = bool(np.allclose(got, want, rtol=LOGIT_RTOL, atol=LOGIT_ATOL))
    if not out.ok:
        worst = float(np.max(np.abs(got - want)))
        out.error = f"final logits differ from the single-machine forward (max |diff| {worst:.3g})"
    return out


def _rounds(wl, dataset, seed, seconds, modes, ledger, errors, min_each=2):
    """Rounds until ``seconds`` are spent, cycling through ``modes``.

    ``modes`` holds ``traced`` flags; interleaving plain and traced rounds
    lets both see the same machine state, so their gap is the overhead.
    """
    deadline = clock() + seconds
    done: Dict[bool, List[Round]] = {mode: [] for mode in modes}
    turn = 0
    while min(len(r) for r in done.values()) < min_each or clock() < deadline:
        mode = modes[turn % len(modes)]
        turn += 1
        rnd = run_round(wl, dataset, seed, mode)
        ledger.record(rnd.ok, rnd.total_steps)
        if not rnd.ok:
            errors.append(rnd.error)
            break
        done[mode].append(rnd)
    return done


def _layer_metrics(wl: TrainWorkload, rounds: List[Round]) -> Dict[str, float]:
    """Per-layer numbers of traced rounds (rank 0 spans, cluster counters)."""
    parts_rows, comm_rows = [], []
    alloc_bytes = allocs = builds = timed_steps = 0
    for rnd in rounds:
        rank0 = rnd.traces[0]
        marks = rank0.training_forwards()
        main_comm = [(op, tag, a, b) for op, tag, a, b, main in rank0.comm if main]
        fwd = [(i, a, b) for i, a, b, training in rank0.layer_fwd if training]
        for k in range(wl.warmup_steps, len(marks) - 1):
            s, e = marks[k], marks[k + 1]
            parts_rows.append(decompose_step(
                s, e, NUM_LAYERS,
                [f for f in fwd if s <= f[1] < e],
                [m for m in rank0.bwd_marks if s <= m[1] < e],
                [c for c in main_comm if s <= c[2] < e]))
            comm_rows.append(comm_totals(s, e, rank0.comm))
        for trace in rnd.traces:
            first, last = trace.counters[wl.warmup_steps], trace.at_eval["counters"]
            alloc_bytes += last[0] - first[0]
            allocs += last[1] - first[1]
        builds += (rank0.at_eval["counters"][2] - rank0.counters[wl.warmup_steps][2])
        timed_steps += len(marks) - 1 - wl.warmup_steps
    parts, comm = mean_parts(parts_rows), mean_parts(comm_rows)
    out: Dict[str, float] = {}
    for i in range(NUM_LAYERS):
        for phase in ("fwd", "bwd"):
            out[f"nn.layer{i}.{phase}_s"] = parts[f"layer{i}.{phase}"]
            out[f"nn.layer{i}.{phase}_comm_s"] = parts[f"layer{i}.{phase}_comm"]
            out[f"nn.layer{i}.{phase}_self_s"] = parts[f"layer{i}.{phase}_self"]
    out["training.grad_sync_s"] = parts["grad_sync"]
    out["training.between_steps_s"] = parts["between_steps"]
    out["training.unattributed_s"] = parts["unattributed"]
    out["training.traced_step_mean_s"] = parts["step"]
    for key in ("fetch", "fetch_bg", "exchange", "allreduce", "allgather_keyed"):
        out[f"distributed.{key}_s"] = comm[key]
    out["distributed.calls"] = comm["calls"]
    # Bytes: everything the workers received under each tag before the
    # final evaluation, per training step (warm-up steps included, so the
    # count is exact for a seed).
    first = rounds[0]
    for tag in BYTE_TAGS:
        total = sum(t.at_eval["received_by_tag"].get(tag, 0) for t in first.traces)
        out[f"distributed.bytes.{tag}"] = total / first.total_steps
    out["core.resident_blocks_max"] = max(t.resident_blocks_max for t in first.traces)
    out["tensor.alloc_mb_per_step"] = alloc_bytes / 2**20 / timed_steps
    out["tensor.allocs_per_step"] = allocs / timed_steps
    out["tensor.plan_builds_per_step"] = builds / timed_steps
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of training workload ``name``; see ``run.py``."""
    wl = WORKLOADS[name]
    dataset = wl.make_dataset(seed)
    dataset.attach_to_graph()
    ledger, errors = OpLedger(), []
    rounds = _rounds(wl, dataset, seed, seconds, (False, True) if trace else (False,),
                     ledger, errors)
    plain, traced = rounds[False], rounds.get(True, [])
    outcome = {"ledger": ledger, "errors": errors, "e2e": {}, "layers": {}, "notes": {}}
    if errors:
        return outcome
    steps = [s for rnd in plain for s in rnd.steps]
    tail, percentile, n = tail_percentile(steps)
    outcome["e2e"] = {
        "op_p50_ms": median(steps) * 1e3,
        "op_tail_ms": tail * 1e3,
        "ops_per_s": len(steps) / sum(steps),
        "peak_mem_mb": median([rnd.peak_mem_mb for rnd in plain]),
        "setup_s": median([rnd.setup_s for rnd in plain]),
    }
    outcome["notes"] = {"op": "optimizer step", "tail_percentile": percentile, "samples": n,
                        "rounds": len(plain)}
    if not trace:
        return outcome
    layers = _layer_metrics(wl, traced)
    untraced_ms = median(steps) * 1e3
    traced_ms = median([s for rnd in traced for s in rnd.steps]) * 1e3
    predicted = median([rnd.cost_model_step_s for rnd in plain])
    layers.update({
        "partition.partition_s": median([r.partition_s for r in plain + traced]),
        "partition.shards_s": median([r.shards_s for r in plain + traced]),
        "partition.halo_rows": plain[0].halo_rows,
        "training.cost_model_step_s": predicted,
        "training.cost_model_residual": abs(predicted / (untraced_ms / 1e3) - 1.0),
        "trace.untraced_op_ms": untraced_ms,
        "trace.traced_op_ms": traced_ms,
        "trace.overhead": traced_ms / untraced_ms - 1.0,
    })
    outcome["layers"] = layers
    return outcome

"""The repository's benchmark: SAR training and mp serving, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sage-full --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload serve-mp --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --emit-spec > BENCHMARK.json

``--trace 0`` measures with no probe inside the program beyond one
timestamp per step or request and prints the end-to-end metrics.
``--trace 1`` alternates plain and traced rounds (servers, for serve-mp)
within the same time and prints the per-layer metrics plus the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A failed correctness check makes the command exit 1; a
checkout without the library source makes it exit 2 before measuring.
See ``README.md`` next to this file for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 25

WORKLOADS = {
    "sage-full": "Paper headline (Fig. 3/5): 3-layer GraphSAGE, full-batch SAR without "
                 "prefetch; halo fetch, error exchange and SpMM carry the load, with no "
                 "re-fetch, prefetch or sampling.",
    "gat-full": "Fused 3-layer GAT (case 2) with prefetch on the sage-full graph: exercises "
                "the backward re-fetch, the prefetch pipeline (2 resident blocks) and the "
                "attention kernels.",
    "sage-sampled": "Neighbour-sampled 3-layer SAGE (fanout 5, mean degree 19) on a sparse "
                    "papers-like graph: many small steps through the sampler, keyed "
                    "allgathers, block installs and plan builds.",
    "serve-mp": "2-layer SAGE served by 2 forked shard processes to 4 closed-loop clients "
                "sending Zipf single-node predict(): Manager comm, micro-batcher, restricted "
                "grids, KV store.",
}

#: ``(name, unit, better, bound)``.  An operation is one optimizer step on
#: the training workloads and one ``predict()`` request on serve-mp.
#: The timing bounds are the widest allowed: on the 2-vCPU host this was
#: sized on, run-to-run medians of the same workload moved by up to 15 %
#: with the host's load (CPU steal), so a tighter bound would reject
#: unchanged code.  Peak memory is exact for a seed and varies only with it.
END_TO_END = [
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_mem_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]


def _layer_metrics():
    rows = [("partition.partition_s", "s", "lower"),
            ("partition.shards_s", "s", "lower"),
            ("partition.halo_rows", "count", "lower")]
    for i in range(3):
        for phase in ("fwd", "bwd"):
            for part in ("", "_comm", "_self"):
                rows.append((f"nn.layer{i}.{phase}{part}_s", "s", "lower"))
    rows += [(f"nn.layer{i}.serve_fwd_s", "s", "lower") for i in range(2)]
    rows += [("training.grad_sync_s", "s", "lower"),
             ("training.between_steps_s", "s", "lower"),
             ("training.unattributed_s", "s", "lower"),
             ("training.traced_step_mean_s", "s", "lower"),
             ("training.cost_model_step_s", "s", "lower"),
             ("training.cost_model_residual", "ratio", "lower")]
    rows += [(f"distributed.{op}_s", "s", "lower")
             for op in ("fetch", "fetch_bg", "exchange", "allreduce", "allgather_keyed")]
    rows.append(("distributed.calls", "count", "lower"))
    rows += [(f"distributed.bytes.{tag}", "bytes", "lower")
             for tag in ("forward_halo", "backward_refetch", "backward_error", "grad_sync",
                         "sample_frontier")]
    rows += [("distributed.halo_bytes_per_req", "bytes", "lower"),
             ("distributed.frontier_bytes_per_req", "bytes", "lower"),
             ("core.resident_blocks_max", "count", "lower"),
             ("tensor.alloc_mb_per_step", "MB", "lower"),
             ("tensor.allocs_per_step", "count", "lower"),
             ("tensor.plan_builds_per_step", "count", "lower"),
             ("store.kv_hit_rate", "ratio", "higher"),
             ("store.bytes_fetched_per_req", "bytes", "lower"),
             ("serving.requests_per_batch", "count", "higher"),
             ("serving.seeds_per_batch", "count", "higher"),
             ("serving.fast_path_share", "ratio", "higher"),
             ("serving.plan_cache_hit_rate", "ratio", "higher"),
             ("serving.unattributed_ms", "ms", "lower"),
             ("serving.latency_mean_ms", "ms", "lower"),
             ("trace.untraced_op_ms", "ms", "lower"),
             ("trace.traced_op_ms", "ms", "lower"),
             ("trace.overhead", "ratio", "lower")]
    return rows


PER_LAYER = _layer_metrics()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def spec() -> dict:
    """The ``BENCHMARK.json`` this benchmark answers to."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def pin_threads() -> None:
    """One BLAS/OpenMP thread per process; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_src() -> None:
    """Import the library from this checkout's ``src``, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {src}; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not from {src}",
              file=sys.stderr)
        raise SystemExit(2)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def meta(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_env": {v: os.environ.get(v) for v in THREAD_VARS}},
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": git_commit(), "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--emit-spec", action="store_true",
                        help="print the BENCHMARK.json this benchmark answers to")
    args = parser.parse_args(argv)
    if args.emit_spec:
        print(json.dumps(spec(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    pin_threads()
    use_checkout_src()
    if args.workload == "serve-mp":
        import serve_bench as bench
    else:
        import train_bench as bench

    outcome = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    ledger, errors = outcome["ledger"], outcome["errors"]
    correct = not errors and ledger.failed == 0 and ledger.attempted > 0
    registry = PER_LAYER if args.trace else [row[:3] for row in END_TO_END]
    values = outcome["layers"] if args.trace else outcome["e2e"]
    unknown = set(values) - {name for name, _, _ in registry}
    if unknown:
        raise RuntimeError(f"metrics missing from the registry: {sorted(unknown)}")
    metrics = {}
    if correct:
        # Per-layer metrics of layers a workload does not run read 0.
        metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                   for name, unit, _ in registry}
    for name, entry in metrics.items():
        print(f"{name}: {entry['value']:.6g} {entry['unit']}")
    notes = outcome["notes"]
    if notes.get("windows"):
        print(f"op_tail_ms and ops_per_s are medians over {notes['windows']} windows of "
              f"{notes['window_requests']} timed operations of each window's "
              f"p{notes['tail_percentile']} and rate (one operation: {notes['op']})")
    elif "tail_percentile" in notes:
        print(f"op_tail_ms is the p{notes['tail_percentile']} of {notes['samples']} "
              f"timed operations (one operation: {notes['op']})")
    print(f"failed_frac: {ledger.failed_frac:.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for error in errors[:10]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({"meta": meta(args), "notes": outcome["notes"]}))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark: parallel corpus generation scaling, 1 -> N workers.

Times one corpus build (Algorithm 1's per-epoch resampling under the
``max(min(degree, 32), 10)`` policy) on synthetic weighted heter-views of
growing size, for the serial engine (``workers=0``) and for
:class:`repro.engine.ParallelRuntime` pools of growing width.  The
parallel path pays a per-build overhead (start-node computation, shard
pickling, result transfer) against a per-shard win, so the curve only
bends upward once walks dominate — and only when the machine actually
has spare cores: the payload records ``os.cpu_count()`` precisely so a
flat curve on a 1-core box is read as a machine property, not a
regression.  The per-worker shard timers and the shared-memory byte
gauge from the runtime's observability registry ride along in the
report.

Results land in ``BENCH_parallel.json`` at the repository root.

Run::

    PYTHONPATH=src python benchmarks/bench_parallel.py            # full
    PYTHONPATH=src python benchmarks/bench_parallel.py --fast     # CI smoke

Fast mode shrinks the graphs to smoke-test sizes; its timings are not
meaningful and its output should never be checked in.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine.observability import (  # noqa: E402
    MetricsRegistry,
    RunReport,
    Tracer,
)
from repro.engine.parallel import (  # noqa: E402
    ParallelRuntime,
    single_view_seed,
)
from repro.graph import HeteroGraph, separate_views  # noqa: E402
from repro.walks import (  # noqa: E402
    BiasedCorrelatedPolicy,
    LockstepWalker,
    build_corpus,
)

FULL_SIZES = [(2_000, 12_000), (8_000, 48_000), (20_000, 120_000)]
FAST_SIZES = [(200, 800)]
WORKER_COUNTS = [1, 2, 4]


def synthetic_heter_view(num_nodes: int, num_edges: int, seed: int):
    """A random weighted bipartite heter-view (weights 1..5, Figure-4 style)."""
    rng = np.random.default_rng(seed)
    half = num_nodes // 2
    graph = HeteroGraph()
    for i in range(half):
        graph.add_node(f"u{i}", "user")
    for i in range(num_nodes - half):
        graph.add_node(f"b{i}", "item")
    us = rng.integers(0, half, size=num_edges)
    vs = rng.integers(0, num_nodes - half, size=num_edges)
    weights = rng.integers(1, 6, size=num_edges).astype(float)
    for u, v, w in zip(us, vs, weights):
        graph.add_edge(f"u{u}", f"b{v}", "rating", weight=float(w))
    return separate_views(graph)[0]


def timed(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_one_size(
    num_nodes: int, num_edges: int, length: int, seed: int, repeats: int
) -> dict:
    view = synthetic_heter_view(num_nodes, num_edges, seed)
    policy = BiasedCorrelatedPolicy()
    rng = np.random.default_rng(seed)
    walker = LockstepWalker(view, policy, rng=rng)
    walker.walk_batch(np.zeros(1, dtype=np.int64), 2)  # warm alias tables

    serial_s = timed(
        lambda: build_corpus(view, walker, length=length, rng=rng), repeats
    )
    entry = {
        "nodes": view.num_nodes,
        "edges": view.num_edges,
        "serial_s": serial_s,
        "workers": {},
    }
    for workers in WORKER_COUNTS:
        metrics = MetricsRegistry()
        with ParallelRuntime(workers, metrics=metrics) as runtime:
            # warm: publish shared memory + attach in every worker once
            runtime.build_corpus(
                view,
                policy,
                length=2,
                seed_seq=single_view_seed(seed, 0, 0),
            )
            parallel_s = timed(
                lambda: runtime.build_corpus(
                    view,
                    policy,
                    length=length,
                    seed_seq=single_view_seed(seed, 0, 1),
                ),
                repeats,
            )
            snapshot = metrics.snapshot()
        entry["workers"][str(workers)] = {
            "parallel_s": parallel_s,
            "speedup": serial_s / parallel_s,
            "shared_bytes": snapshot["gauges"].get("parallel/shared_bytes"),
            "worker_seconds": {
                name: stats
                for name, stats in snapshot["timers"].items()
                if name.startswith("parallel/worker/")
            },
        }
    return entry


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast",
        action="store_true",
        help="smoke-test sizes for CI; timings not meaningful",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_parallel.json",
        help="output JSON path (default: BENCH_parallel.json at the repo root)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sizes = FAST_SIZES if args.fast else FULL_SIZES
    length = 8 if args.fast else 20
    repeats = 1 if args.fast else 2

    metrics = MetricsRegistry()
    tracer = Tracer()
    results = []
    with tracer.span("bench_parallel", kind="run"):
        for num_nodes, num_edges in sizes:
            print(
                f"benchmarking {num_nodes} nodes / {num_edges} edges ...",
                flush=True,
            )
            label = f"{num_nodes}x{num_edges}"
            with tracer.span(label, kind="custom", nodes=num_nodes):
                with metrics.timer(f"size/{label}"):
                    entry = bench_one_size(
                        num_nodes, num_edges, length, args.seed, repeats
                    )
            print(f"  serial {entry['serial_s']:8.3f}s")
            for workers, stats in entry["workers"].items():
                metrics.observe(f"speedup/{workers}w", stats["speedup"])
                print(
                    f"  {workers}w  parallel {stats['parallel_s']:8.3f}s"
                    f"  speedup {stats['speedup']:5.2f}x"
                )
            results.append(entry)

    largest = results[-1]
    payload = {
        "benchmark": "parallel",
        "fast_mode": args.fast,
        "walk_length": length,
        "walk_policy": {"floor": 10, "cap": 32},
        "machine": {
            # the honest context for every speedup number below: with a
            # single core, process fan-out cannot beat the serial engine
            "cpu_count": os.cpu_count(),
            "sched_getaffinity": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else None,
            "start_method": (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else multiprocessing.get_start_method()
            ),
        },
        "worker_counts": WORKER_COUNTS,
        "results": results,
        "largest_graph": {
            "nodes": largest["nodes"],
            "edges": largest["edges"],
            "scaling_curve": {
                workers: stats["speedup"]
                for workers, stats in largest["workers"].items()
            },
        },
        "observability": RunReport(
            metrics, tracer, metadata={"benchmark": "parallel"}
        ).to_dict(),
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

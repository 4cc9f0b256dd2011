"""Benchmark: scalar walkers vs. the vectorized lockstep walk engine.

Times corpus construction (Algorithm 1's per-epoch resampling under the
``max(min(degree, 32), 10)`` policy) and full pipeline epoch streaming
(corpus -> pairs -> negative-sampled batches) on synthetic weighted
heter-views of growing size, for both engines:

- *scalar*: :class:`UniformWalker` / :class:`BiasedCorrelatedWalker`
  (one Python-level step per walk per iteration);
- *batched*: :class:`LockstepWalker` with :class:`UniformPolicy` /
  :class:`BiasedCorrelatedPolicy` (one vectorized draw across all active
  walks per iteration).

Both engines share the same cached CSR adjacency, so the comparison
isolates the step loop itself.  Results land in ``BENCH_walks.json`` at
the repository root — the seed of the repo's performance trajectory.

Run::

    PYTHONPATH=src python benchmarks/bench_walk_engine.py            # full
    PYTHONPATH=src python benchmarks/bench_walk_engine.py --fast     # CI smoke

Fast mode shrinks the graphs to smoke-test sizes; its timings are not
meaningful and its output should never be checked in.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine import StreamingCorpusPipeline  # noqa: E402
from repro.engine.observability import (  # noqa: E402
    MetricsRegistry,
    RunReport,
    Tracer,
)
from repro.graph import HeteroGraph, separate_views  # noqa: E402
from repro.walks import (  # noqa: E402
    BiasedCorrelatedPolicy,
    BiasedCorrelatedWalker,
    LockstepWalker,
    UniformPolicy,
    UniformWalker,
    build_corpus,
    stream_corpus,
)

FULL_SIZES = [(500, 3_000), (2_000, 12_000), (8_000, 48_000)]
FAST_SIZES = [(80, 300), (160, 700)]


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
    rng = np.random.default_rng(seed)
    walkers = {
        "uniform": (
            UniformWalker(view, rng=rng),
            LockstepWalker(view, UniformPolicy(), rng=rng),
        ),
        "biased": (
            BiasedCorrelatedWalker(view, rng=rng),
            LockstepWalker(view, BiasedCorrelatedPolicy(), rng=rng),
        ),
    }
    # warm both engines: CSR + lazy alias tables are one-time shared costs
    for scalar, batched in walkers.values():
        scalar.walk(view.graph.node_at(0), 2)
        batched.walk_batch(np.zeros(1, dtype=np.int64), 2)

    result = {"nodes": view.num_nodes, "edges": view.num_edges}
    for name, (scalar, batched) in walkers.items():
        scalar_s = timed(
            lambda: build_corpus(view, scalar, length=length, rng=rng), repeats
        )
        batched_s = timed(
            lambda: build_corpus(view, batched, length=length, rng=rng), repeats
        )
        result[name] = {
            "scalar_s": scalar_s,
            "batched_s": batched_s,
            "speedup": scalar_s / batched_s,
        }

    def epoch(walker):
        pipeline = StreamingCorpusPipeline(
            sample_blocks=lambda: stream_corpus(
                view, walker, length=length, rng=rng
            ),
            num_nodes=view.num_nodes,
            window=2,
            num_negatives=5,
            batch_size=256,
            rng=rng,
        )
        return lambda: sum(1 for _ in pipeline.epoch())

    scalar_epoch = timed(epoch(walkers["biased"][0]), repeats)
    batched_epoch = timed(epoch(walkers["biased"][1]), repeats)
    result["epoch_streaming"] = {
        "scalar_s": scalar_epoch,
        "batched_s": batched_epoch,
        "speedup": scalar_epoch / batched_epoch,
    }
    return result


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
        default=REPO_ROOT / "BENCH_walks.json",
        help="output JSON path (default: BENCH_walks.json at the repo root)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sizes = FAST_SIZES if args.fast else FULL_SIZES
    length = 8 if args.fast else 20
    repeats = 2 if args.fast else 1

    metrics = MetricsRegistry()
    tracer = Tracer()
    results = []
    with tracer.span("bench_walk_engine", kind="run"):
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
            for key in ("uniform", "biased", "epoch_streaming"):
                stats = entry[key]
                metrics.observe(f"speedup/{key}", stats["speedup"])
                print(
                    f"  {key:16s} scalar {stats['scalar_s']:8.3f}s"
                    f"  batched {stats['batched_s']:8.3f}s"
                    f"  speedup {stats['speedup']:6.1f}x"
                )
            results.append(entry)

    largest = results[-1]
    payload = {
        "benchmark": "walk_engine",
        "fast_mode": args.fast,
        "walk_length": length,
        "walk_policy": {"floor": 10, "cap": 32},
        "results": results,
        "largest_graph": {
            "nodes": largest["nodes"],
            "edges": largest["edges"],
            "biased_corpus_speedup": largest["biased"]["speedup"],
            "uniform_corpus_speedup": largest["uniform"]["speedup"],
            "epoch_streaming_speedup": largest["epoch_streaming"]["speedup"],
        },
        # per-size wall-clock + span tree in the shared run-report schema
        "observability": RunReport(
            metrics, tracer, metadata={"benchmark": "walk_engine"}
        ).to_dict(),
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

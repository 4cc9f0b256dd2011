"""Benchmark: cross-view training epochs — per-chunk, batched, budgeted.

Times :meth:`CrossViewTrainer.train_epoch` on synthetic view-pairs of
growing size in three execution modes, all on the closed-form translator
kernel (:mod:`repro.core.translator_kernel`):

- *scalar*: the per-chunk reference loop — one ``_train_step`` (forward/
  backward, translator Adam step and two RowAdam updates) per one-chunk
  ``(1, path_len)`` slice (the literal Algorithm 1 loop);
- *batched* (the trainer, no budget): all chunks of a direction in one
  ``(num_chunks, path_len, d)`` batch, one optimizer step per direction
  per epoch;
- *budgeted*: the batched step run in micro-batches sized by
  :func:`repro.engine.pipeline.cross_view_chunks_for_budget` from
  ``--budget-mb``.

For the batched and budgeted trainers it also records the tracemalloc
peak of one epoch (a separate, untimed epoch), and for the budgeted one
that epoch's longest direction and the micro-batches it took; CI asserts
the budgeted peak stays under the budget and that some direction split.  All modes run identical walk sampling from
identically seeded generators, so the comparison isolates the translator
step.  Results land in ``BENCH_cross_view.json`` at the repository root.

Run::

    PYTHONPATH=src python benchmarks/bench_cross_view.py            # full
    PYTHONPATH=src python benchmarks/bench_cross_view.py --fast     # CI smoke

Fast mode shrinks the view-pairs to smoke-test sizes; its timings are not
meaningful and its output should never be checked in.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.cross_view import CrossViewTrainer  # noqa: E402
from repro.engine.observability import (  # noqa: E402
    NULL_REGISTRY,
    MetricsRegistry,
    RunReport,
    Tracer,
)
from repro.graph import HeteroGraph, build_view_pairs, separate_views  # noqa: E402

# (num_users, num_items, num_tags, edges_per_view, paths_per_epoch)
FULL_SIZES = [
    (200, 200, 100, 1_200, 40),
    (800, 800, 400, 5_000, 80),
    (2_000, 2_000, 1_000, 12_000, 160),
]
FAST_SIZES = [
    (30, 30, 20, 150, 6),
    (60, 60, 40, 350, 10),
]


def synthetic_view_pair(
    num_users: int, num_items: int, num_tags: int, edges_per_view: int, seed: int
):
    """A weighted tri-partite graph whose two views share the item nodes.

    ``click`` edges (user-item) and ``tag`` edges (item-tag) induce two
    heter-views with the items as common nodes — the Figure 4 app-store
    shape at benchmark scale.  Weights 1..5 exercise the Eq. 6-7 walker.
    """
    rng = np.random.default_rng(seed)
    graph = HeteroGraph()
    for i in range(num_users):
        graph.add_node(f"u{i}", "user")
    for i in range(num_items):
        graph.add_node(f"i{i}", "item")
    for i in range(num_tags):
        graph.add_node(f"t{i}", "tag")
    seen: set[tuple[str, str]] = set()
    for u, v, w in zip(
        rng.integers(0, num_users, size=edges_per_view),
        rng.integers(0, num_items, size=edges_per_view),
        rng.integers(1, 6, size=edges_per_view),
    ):
        key = (f"u{u}", f"i{v}")
        if key not in seen:
            seen.add(key)
            graph.add_edge(*key, "click", weight=float(w))
    for u, v, w in zip(
        rng.integers(0, num_items, size=edges_per_view),
        rng.integers(0, num_tags, size=edges_per_view),
        rng.integers(1, 6, size=edges_per_view),
    ):
        key = (f"i{u}", f"t{v}")
        if key not in seen:
            seen.add(key)
            graph.add_edge(*key, "tag", weight=float(w))
    views = separate_views(graph)
    return build_view_pairs(views)[0]


def per_chunk_direction(trainer, chunks, *step_args):
    """The literal Algorithm 1 loop: one step per one-chunk slice."""
    t_sum = r_sum = 0.0
    for k in range(chunks.shape[0]):
        t, r = trainer._train_step(chunks[k:k + 1], *step_args)
        t_sum += t
        r_sum += r
    return t_sum, r_sum, chunks.shape[0]


def make_trainer(
    pair,
    seed: int,
    paths_per_epoch: int,
    dim: int,
    per_chunk: bool = False,
    budget_bytes: int | None = None,
):
    rng = np.random.default_rng(seed)
    emb_i = rng.normal(0, 0.1, size=(pair.view_i.num_nodes, dim))
    emb_j = rng.normal(0, 0.1, size=(pair.view_j.num_nodes, dim))
    trainer = CrossViewTrainer(
        pair,
        emb_i,
        emb_j,
        rng=rng,
        dim=dim,
        paths_per_epoch=paths_per_epoch,
        budget_bytes=budget_bytes,
    )
    if per_chunk:
        trainer._train_direction = types.MethodType(
            per_chunk_direction, trainer
        )
    # warm the shared CSR/alias caches so one-time costs drop out
    trainer._sample_chunks(trainer.sub_i, trainer._walker_i, trainer._starts_i)
    trainer._sample_chunks(trainer.sub_j, trainer._walker_j, trainer._starts_j)
    return trainer


def timed_epochs(trainer, repeats: int) -> tuple[float, int]:
    """Best epoch wall-clock and the chunk count of the last epoch."""
    best = float("inf")
    num_paths = 0
    for _ in range(repeats):
        start = time.perf_counter()
        losses = trainer.train_epoch()
        best = min(best, time.perf_counter() - start)
        num_paths = losses.num_paths
    return best, num_paths


def epoch_peak(trainer) -> tuple[int, list[int]]:
    """tracemalloc peak of one epoch (sampling, step and updates) and the
    chunk count of each of its two directions."""
    metrics = MetricsRegistry()
    trainer.bind_metrics(metrics)
    tracemalloc.start()
    try:
        trainer.train_epoch()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        trainer.bind_metrics(NULL_REGISTRY)
    chunks = [
        int(count)
        for name, count in sorted(metrics.counters.items())
        if name.endswith("/chunks")
    ]
    return peak, chunks


def bench_one_size(
    size: tuple, dim: int, seed: int, repeats: int, budget_bytes: int
) -> dict:
    num_users, num_items, num_tags, edges_per_view, paths = size
    pair = synthetic_view_pair(num_users, num_items, num_tags, edges_per_view, seed)
    scalar = make_trainer(pair, seed, paths, dim, per_chunk=True)
    batched = make_trainer(pair, seed, paths, dim)
    budgeted = make_trainer(pair, seed, paths, dim, budget_bytes=budget_bytes)

    scalar_s, scalar_paths = timed_epochs(scalar, repeats)
    batched_s, batched_paths = timed_epochs(batched, repeats)
    budgeted_s, _ = timed_epochs(budgeted, repeats)
    peak_unbudgeted, _ = epoch_peak(batched)
    peak_budgeted, direction_chunks = epoch_peak(budgeted)
    micro = budgeted.micro_batch_chunks
    return {
        "nodes": pair.view_i.num_nodes + pair.view_j.num_nodes,
        "common_nodes": len(pair.common_nodes),
        "edges_view_i": pair.view_i.num_edges,
        "edges_view_j": pair.view_j.num_edges,
        "paths_per_epoch": paths,
        "chunks_scalar": scalar_paths,
        "chunks_batched": batched_paths,
        "micro_batch_chunks": micro,
        # of the budgeted peak epoch: its longest direction and the
        # micro-batches its two directions took
        "max_direction_chunks": max(direction_chunks),
        "micro_batches": sum(-(-n // micro) for n in direction_chunks),
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "budgeted_s": budgeted_s,
        "speedup": scalar_s / batched_s,
        "peak_bytes_unbudgeted": peak_unbudgeted,
        "peak_bytes_budgeted": peak_budgeted,
    }


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
        default=REPO_ROOT / "BENCH_cross_view.json",
        help="output JSON path (default: BENCH_cross_view.json at the repo root)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument(
        "--budget-mb",
        type=float,
        default=None,
        help="corpus_budget_mb of the budgeted trainer "
        "(default: 4, or 0.25 with --fast so the smoke sizes micro-batch)",
    )
    args = parser.parse_args(argv)
    if args.budget_mb is None:
        args.budget_mb = 0.25 if args.fast else 4.0
    budget_bytes = int(args.budget_mb * 1024 * 1024)

    sizes = FAST_SIZES if args.fast else FULL_SIZES
    repeats = 2 if args.fast else 3

    metrics = MetricsRegistry()
    tracer = Tracer()
    results = []
    with tracer.span("bench_cross_view", kind="run"):
        for size in sizes:
            print(
                f"benchmarking {size[0]}+{size[1]}+{size[2]} nodes, "
                f"{size[4]} paths/epoch ...",
                flush=True,
            )
            label = f"{size[0]}+{size[1]}+{size[2]}"
            with tracer.span(label, kind="custom", paths_per_epoch=size[4]):
                with metrics.timer(f"size/{label}"):
                    entry = bench_one_size(
                        size, args.dim, args.seed, repeats, budget_bytes
                    )
            metrics.observe("speedup/epoch", entry["speedup"])
            print(
                f"  chunks {entry['chunks_batched']:5d}"
                f"  scalar {entry['scalar_s']:8.3f}s"
                f"  batched {entry['batched_s']:8.3f}s"
                f"  budgeted {entry['budgeted_s']:8.3f}s"
                f"  speedup {entry['speedup']:6.1f}x"
                f"  peak {entry['peak_bytes_unbudgeted'] / 2**20:6.2f}"
                f" -> {entry['peak_bytes_budgeted'] / 2**20:6.2f} MiB"
            )
            results.append(entry)

    largest = results[-1]
    payload = {
        "benchmark": "cross_view",
        "fast_mode": args.fast,
        "dim": args.dim,
        "cross_path_len": 6,
        "num_encoders": 2,
        "budget_mb": args.budget_mb,
        "results": results,
        "largest_pair": {
            "nodes": largest["nodes"],
            "common_nodes": largest["common_nodes"],
            "paths_per_epoch": largest["paths_per_epoch"],
            "epoch_speedup": largest["speedup"],
            "peak_bytes_unbudgeted": largest["peak_bytes_unbudgeted"],
            "peak_bytes_budgeted": largest["peak_bytes_budgeted"],
        },
        # per-size wall-clock + span tree in the shared run-report schema
        "observability": RunReport(
            metrics, tracer, metadata={"benchmark": "cross_view"}
        ).to_dict(),
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

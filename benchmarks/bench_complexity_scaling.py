"""Theorem 1: training-time complexity of Algorithm 1.

The theorem bounds one iteration by

    O( delta*T*rho*(z + z')  +  d*T*rho*(z*log(mu) + z'*H*rho) )

Three measurements, each isolating one variable of the bound:

1. **T** (paths per view-pair): wall-clock of one full cross-view epoch
   while sweeping ``paths_per_epoch`` — expected linear (slope <= ~1).
2. **H** (encoders per translator): wall-clock of a translator
   forward+backward on a fixed path — expected linear.
3. **rho** (translator path length): wall-clock of a translator
   forward+backward on one path of length rho — the attention matmuls are
   rho^2*d, so the per-path cost must grow super-linearly once rho
   dominates the fixed per-layer overhead.

Log-log regression slopes are printed and asserted with generous bands
(wall-clock on small inputs is noisy).

Run as a script, this module instead measures the *memory* side of the
complexity story: peak bytes of the corpus -> skip-gram data path
(``stream_corpus`` + ``StreamingCorpusPipeline``), unbudgeted — the
whole corpus as one block, reported under the ``dense`` key — against
a hard budget that cuts the corpus into many blocks (``streaming``), on
synthetic views up to a million-plus edges.  Results land in
``BENCH_scaling.json`` at the repository root.

Run::

    PYTHONPATH=src python benchmarks/bench_complexity_scaling.py          # full
    PYTHONPATH=src python benchmarks/bench_complexity_scaling.py --fast   # CI smoke

Fast mode shrinks the graphs to smoke-test sizes; its timings are not
meaningful and its output should never be checked in.
"""

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.autograd import Tensor  # noqa: E402
from repro.core.cross_view import CrossViewTrainer, similarity_loss  # noqa: E402
from repro.core.translator import Translator  # noqa: E402
from repro.datasets import make_app_daily  # noqa: E402
from repro.engine.pipeline import (  # noqa: E402
    StreamingCorpusPipeline,
    block_walks_for_budget,
)
from repro.graph import HeteroGraph, build_view_pairs, separate_views  # noqa: E402
from repro.walks import LockstepWalker, stream_corpus  # noqa: E402
from repro.walks.corpus import corpus_index_dtype  # noqa: E402
from repro.walks.policies import make_policy  # noqa: E402

from conftest import FAST_MODE, emit, format_table  # noqa: E402


def _slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _time_cross_epoch(graph, paths_per_epoch: int) -> float:
    """One cross-view epoch over the first view-pair."""
    rng = np.random.default_rng(0)
    views = separate_views(graph)
    pair = build_view_pairs(views)[0]
    emb_i = rng.normal(0, 0.1, size=(pair.view_i.num_nodes, 16))
    emb_j = rng.normal(0, 0.1, size=(pair.view_j.num_nodes, 16))
    trainer = CrossViewTrainer(
        pair, emb_i, emb_j, rng=rng, dim=16,
        cross_path_len=6, num_encoders=2, walk_length=12,
        paths_per_epoch=paths_per_epoch,
    )
    start = time.perf_counter()
    trainer.train_epoch()
    return time.perf_counter() - start


def _time_translator(path_len: int, num_encoders: int, repeats: int = 30) -> float:
    """Forward + backward of one translator on one path."""
    rng = np.random.default_rng(0)
    translator = Translator(path_len, 16, num_encoders, rng=rng)
    a = Tensor(rng.normal(size=(path_len, 16)), requires_grad=True)
    target = Tensor(rng.normal(size=(path_len, 16)))
    start = time.perf_counter()
    for _ in range(repeats):
        a.zero_grad()
        for param in translator.parameters():
            param.zero_grad()
        loss = similarity_loss(translator(a), target)
        loss.backward()
    return (time.perf_counter() - start) / repeats


def _compute(graph):
    rows = []
    t_values = [20, 40, 80, 160]
    t_times = [_time_cross_epoch(graph, t) for t in t_values]
    for t, elapsed in zip(t_values, t_times):
        rows.append({"Variable": "T (paths/pair, epoch time)", "Value": t,
                     "Seconds": f"{elapsed:.3f}"})
    h_values = [1, 2, 4, 8, 16]
    h_times = [_time_translator(8, h) for h in h_values]
    for h, elapsed in zip(h_values, h_times):
        rows.append({"Variable": "H (encoders, per-path time)", "Value": h,
                     "Seconds": f"{elapsed:.5f}"})
    rho_values = [8, 32, 128, 512]
    rho_times = [_time_translator(r, 2) for r in rho_values]
    for r, elapsed in zip(rho_values, rho_times):
        rows.append({"Variable": "rho (path len, per-path time)", "Value": r,
                     "Seconds": f"{elapsed:.5f}"})
    slopes = {
        "T": _slope(t_values, t_times),
        "H": _slope(h_values, h_times),
        # fit the rho exponent on the large-rho tail where the quadratic
        # attention term dominates fixed per-layer overhead
        "rho": _slope(rho_values[-2:], rho_times[-2:]),
    }
    for var, slope in slopes.items():
        rows.append({"Variable": f"log-log slope({var})", "Value": "-",
                     "Seconds": f"{slope:.2f}"})
    return rows, slopes


def test_theorem1_complexity_scaling(benchmark, results_dir):
    graph, _ = make_app_daily(
        num_applets=120, num_users=50, num_keywords=40
    )
    rows, slopes = benchmark.pedantic(
        _compute, args=(graph,), rounds=1, iterations=1
    )
    emit(
        results_dir,
        "theorem1_complexity",
        format_table(rows, "Theorem 1 — wall-clock scaling of Algorithm 1"),
    )
    if FAST_MODE:
        return  # scaled-down smoke run: shapes not comparable
    # epoch cost is linear in T (never super-linear)
    assert 0.5 < slopes["T"] < 1.4, slopes
    # per-path translator cost is linear in H
    assert 0.6 < slopes["H"] < 1.4, slopes
    # per-path cost grows super-linearly in rho (the rho^2 d attention)
    assert slopes["rho"] > 1.2, slopes


# ---------------------------------------------------------------------------
# standalone mode: peak memory of the corpus data path, one block vs a budget
# ---------------------------------------------------------------------------

FULL_MEMORY_SIZES = [(20_000, 120_000), (60_000, 420_000), (160_000, 1_200_000)]
FAST_MEMORY_SIZES = [(400, 1_600)]

WALK_LENGTH = 12
WINDOW = 2
BATCH_SIZE = 8192
NUM_NEGATIVES = 5


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


def _drain(pipeline) -> int:
    batches = 0
    for _ in pipeline.epoch():
        batches += 1
    return batches


def measure_epoch(view, seed: int, budget_bytes: int | None = None) -> dict:
    """Peak traced bytes of one epoch, unbudgeted (one block) or under a
    hard budget (blocks sized by ``block_walks_for_budget``)."""
    rng = np.random.default_rng(seed)
    walker = LockstepWalker(view, make_policy("biased"), rng=rng)
    walker.walk_batch(np.zeros(1, dtype=np.int64), 2)  # warm alias tables
    # the trainer's layout: int64 unbudgeted, compact under a budget
    index_dtype = (
        np.dtype(np.int64)
        if budget_bytes is None
        else corpus_index_dtype(view.num_nodes)
    )
    block_walks = (
        None
        if budget_bytes is None
        else block_walks_for_budget(
            budget_bytes,
            length=WALK_LENGTH,
            window=WINDOW,
            num_negatives=NUM_NEGATIVES,
            batch_size=BATCH_SIZE,
            itemsize=index_dtype.itemsize,
        )
    )
    tracemalloc.start()
    start = time.perf_counter()
    pipeline = StreamingCorpusPipeline(
        sample_blocks=lambda: stream_corpus(
            view,
            walker,
            length=WALK_LENGTH,
            rng=rng,
            block_walks=block_walks,
            index_dtype=index_dtype,
        ),
        num_nodes=view.num_nodes,
        window=WINDOW,
        num_negatives=NUM_NEGATIVES,
        batch_size=BATCH_SIZE,
        rng=rng,
        budget_bytes=budget_bytes,
    )
    batches = _drain(pipeline)  # raises MemoryError if a block overflows
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    result = {"peak_bytes": peak, "seconds": elapsed, "batches": batches}
    if budget_bytes is not None:
        result.update(
            block_walks=block_walks,
            peak_block_bytes=pipeline.peak_block_bytes,
            under_budget=pipeline.peak_block_bytes <= budget_bytes,
            index_dtype=str(index_dtype),
        )
    return result


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="peak memory of the corpus data path, one block vs a "
        "budget"
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="smoke-test sizes for CI; timings not meaningful",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_scaling.json",
        help="output JSON path (default: BENCH_scaling.json at the repo root)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--budget-mb",
        type=float,
        default=None,
        help="streaming corpus budget in MiB (default: 64 full, 2 fast)",
    )
    args = parser.parse_args(argv)

    sizes = FAST_MEMORY_SIZES if args.fast else FULL_MEMORY_SIZES
    budget_mb = args.budget_mb if args.budget_mb else (2.0 if args.fast else 64.0)
    budget_bytes = int(budget_mb * 1024 * 1024)

    results = []
    for num_nodes, num_edges in sizes:
        print(
            f"benchmarking {num_nodes} nodes / {num_edges} edges ...",
            flush=True,
        )
        view = synthetic_heter_view(num_nodes, num_edges, args.seed)
        one_block = measure_epoch(view, args.seed)
        streaming = measure_epoch(view, args.seed, budget_bytes)
        ratio = one_block["peak_bytes"] / streaming["peak_bytes"]
        print(
            f"  one block peak {one_block['peak_bytes'] / 2**20:9.1f} MiB"
            f"  {one_block['seconds']:7.1f}s  {one_block['batches']} batches"
        )
        print(
            f"  streaming peak {streaming['peak_bytes'] / 2**20:9.1f} MiB"
            f"  {streaming['seconds']:7.1f}s  {streaming['batches']} batches"
            f"  ({streaming['block_walks']} walks/block,"
            f" block peak {streaming['peak_block_bytes'] / 2**20:.1f} MiB,"
            f" under budget: {streaming['under_budget']})"
        )
        print(f"  peak-memory reduction {ratio:5.1f}x")
        results.append(
            {
                "nodes": view.num_nodes,
                "edges": view.num_edges,
                "dense": one_block,
                "streaming": streaming,
                "peak_reduction": ratio,
            }
        )

    largest = results[-1]
    payload = {
        "benchmark": "scaling",
        "fast_mode": args.fast,
        "walk_length": WALK_LENGTH,
        "window": WINDOW,
        "batch_size": BATCH_SIZE,
        "num_negatives": NUM_NEGATIVES,
        "budget_mb": budget_mb,
        "memory_vs_edges": {
            "edges": [r["edges"] for r in results],
            "dense_peak_bytes": [r["dense"]["peak_bytes"] for r in results],
            "streaming_peak_bytes": [
                r["streaming"]["peak_bytes"] for r in results
            ],
        },
        "time_vs_edges": {
            "edges": [r["edges"] for r in results],
            "dense_seconds": [r["dense"]["seconds"] for r in results],
            "streaming_seconds": [r["streaming"]["seconds"] for r in results],
        },
        "results": results,
        "largest_graph": {
            "nodes": largest["nodes"],
            "edges": largest["edges"],
            "peak_reduction": largest["peak_reduction"],
            "streaming_under_budget": largest["streaming"]["under_budget"],
        },
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

"""Benchmark: the embedding serving layer at million-node scale.

Builds a synthetic mixture-of-Gaussians embedding table (the geometry
real TransN embeddings have: tight communities with overlap), writes it
to a TNEMB1 store, and measures the full serving path:

* store write time and **open latency** — the mmap open must be O(ms)
  regardless of store size, because the header parse + size check is
  all that happens before the first query;
* the first read of the freshly written, memory-mapped store (page
  faults), timed apart from the IVF index build that follows it;
* IVF index build time at the benchmarked operating point;
* **recall@10 vs brute force** on sampled stored-vector queries — the
  acceptance bar is >= 0.9 at the operating point recorded in the
  payload (nlist/nprobe ride along so the number is reproducible);
* single-query p50/p99 latency and batched throughput (QPS), with the
  share of the throughput phase's ids answered from the top-k cache
  (``topk_cache_hit_frac``: 0 at the full 1M rows, whose result slab
  exceeds the cache bound, so the phase measures uncached serving).  The
  store's id -> row map is built by one timed ``row_of`` before the
  latency phase, so no latency sample includes it.  The QPS
  phase runs through a second service over the same built index, with
  its own metrics registry, so the ``serving/latency_ms`` series and its
  p50/p99 gauges in the report describe the single-query phase alone;
* process peak RSS right after the imports and right after the index
  build.

Results land in ``BENCH_serving.json`` at the repository root.

Run::

    PYTHONPATH=src python benchmarks/bench_serving.py            # full, ~1M nodes
    PYTHONPATH=src python benchmarks/bench_serving.py --fast     # CI smoke

Fast mode shrinks the table to smoke-test sizes; its timings are not
meaningful and its output should never be checked in.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
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
from repro.serving import (  # noqa: E402
    EmbeddingService,
    EmbeddingStore,
    write_store,
)
from repro.serving.index import BruteForceIndex, recall_at_k  # noqa: E402

FULL = {
    "nodes": 1_000_000,
    "dim": 32,
    "clusters": 256,
    "nlist": 128,
    "nprobe": 16,
    "recall_queries": 200,
    "latency_queries": 400,
    "qps_queries": 8192,
    "qps_batch": 256,
}
FAST = {
    "nodes": 5_000,
    "dim": 16,
    "clusters": 32,
    "nlist": 64,
    "nprobe": 16,
    "recall_queries": 32,
    "latency_queries": 40,
    "qps_queries": 512,
    "qps_batch": 64,
}


def synthetic_embeddings(n: int, dim: int, clusters: int, seed: int):
    """Mixture-of-Gaussians rows, float32, built cluster-block-wise so
    the peak transient stays far below the final table size."""
    rng = np.random.default_rng(seed)
    centers = (rng.standard_normal((clusters, dim)) * 2.0).astype(np.float32)
    matrix = np.empty((n, dim), dtype=np.float32)
    assignment = rng.integers(0, clusters, size=n)
    for c in range(clusters):
        rows = np.flatnonzero(assignment == c)
        matrix[rows] = centers[c] + 0.3 * rng.standard_normal(
            (len(rows), dim)
        ).astype(np.float32)
    return matrix


def timed(fn, repeats: int = 1) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


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
        default=REPO_ROOT / "BENCH_serving.json",
        help="output JSON path (default: BENCH_serving.json at the repo root)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    # ru_maxrss is in KiB on Linux
    rss_after_imports_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )

    cfg = FAST if args.fast else FULL
    metrics = MetricsRegistry()
    tracer = Tracer()
    store_path = Path(os.environ.get("TMPDIR", "/tmp")) / "bench_serving.tnemb"

    with tracer.span("bench_serving", kind="run"):
        print(
            f"building {cfg['nodes']:,} x {cfg['dim']} float32 table ...",
            flush=True,
        )
        with metrics.timer("bench/build_table"):
            matrix = synthetic_embeddings(
                cfg["nodes"], cfg["dim"], cfg["clusters"], args.seed
            )
        ids = [f"n{i:07d}" for i in range(cfg["nodes"])]

        with metrics.timer("bench/store_write"):
            write_s = timed(lambda: write_store(store_path, ids, matrix))
        store_bytes = store_path.stat().st_size
        print(f"store write {write_s:.2f}s ({store_bytes / 1e6:.1f} MB)")

        # open latency: header parse + size check only, best of 5 —
        # this is the number that must stay O(ms) at any table size
        open_ms = timed(
            lambda: EmbeddingStore(store_path).close(), repeats=5
        ) * 1e3
        print(f"store open {open_ms:.3f} ms")

        rng = np.random.default_rng(args.seed + 1)
        with EmbeddingService(
            store_path,
            metric="cosine",
            index="ivf",
            nlist=cfg["nlist"],
            nprobe=cfg["nprobe"],
            seed=args.seed,
            batch_size=cfg["qps_batch"],
            metrics=metrics,
            tracer=tracer,
        ) as service:
            # the first pass over the new mmap pays its page faults;
            # timed here so index_build_s measures the build alone
            first_read_s = timed(lambda: service.store.matrix.sum(axis=0))
            print(f"store first read {first_read_s:.2f}s")
            print(
                f"building IVF index (nlist={cfg['nlist']}, "
                f"nprobe={cfg['nprobe']}) ...",
                flush=True,
            )
            build_s = timed(lambda: service.index)
            rss_after_build_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
            print(
                f"index build {build_s:.2f}s "
                f"(peak RSS {rss_after_build_mb:.0f} MB)"
            )

            # recall@10 vs brute force on sampled stored vectors
            sample = rng.choice(
                cfg["nodes"], size=cfg["recall_queries"], replace=False
            )
            queries = service.store.matrix[np.sort(sample)]
            exact_idx, _ = BruteForceIndex(
                service.store.matrix, metric="cosine"
            ).search(queries, 10)
            approx_idx, _ = service.index.search(queries, 10)
            recall = recall_at_k(approx_idx, exact_idx)
            metrics.gauge("bench/recall_at_10", recall)
            print(f"recall@10 vs brute force: {recall:.4f}")

            # single-query latency distribution
            lat_rows = rng.integers(0, cfg["nodes"], cfg["latency_queries"])
            lat_ids = [ids[int(r)] for r in lat_rows]
            id_map_s = timed(lambda: service.store.row_of(lat_ids[0]))
            print(f"id map build {id_map_s:.2f}s")
            latencies = []
            for node in lat_ids:
                start = time.perf_counter()
                service.top_k([node], k=10)
                latencies.append((time.perf_counter() - start) * 1e3)
            p50_ms = float(np.percentile(latencies, 50))
            p99_ms = float(np.percentile(latencies, 99))
            print(f"latency p50 {p50_ms:.2f} ms  p99 {p99_ms:.2f} ms")

            # batched throughput, recorded apart from the single queries
            qps_rows = rng.integers(0, cfg["nodes"], cfg["qps_queries"])
            qps_ids = [ids[int(r)] for r in qps_rows]
            qps_metrics = MetricsRegistry()
            batched = EmbeddingService(
                service.store,
                metric="cosine",
                index=service.index,
                batch_size=cfg["qps_batch"],
                metrics=qps_metrics,
            )
            qps_s = timed(lambda: batched.top_k(qps_ids, k=10))
            qps = cfg["qps_queries"] / qps_s
            # the full table is too large for the top-k cache, so this
            # phase is the workload that bypasses it
            counters = qps_metrics.snapshot()["counters"]
            hit_frac = counters["serving/topk_cache_hits"] / cfg["qps_queries"]
            print(
                f"throughput {qps:,.0f} qps "
                f"(batch {cfg['qps_batch']}, {cfg['qps_queries']} queries, "
                f"{hit_frac:.2%} top-k cache hits)"
            )

    payload = {
        "benchmark": "serving",
        "fast_mode": args.fast,
        "table": {
            "nodes": cfg["nodes"],
            "dim": cfg["dim"],
            "dtype": "float32",
            "clusters": cfg["clusters"],
            "store_bytes": store_bytes,
        },
        "machine": {"cpu_count": os.cpu_count()},
        "operating_point": {
            "metric": "cosine",
            "nlist": cfg["nlist"],
            "nprobe": cfg["nprobe"],
            "k": 10,
        },
        "store_write_s": write_s,
        "open_ms": open_ms,
        "store_first_read_s": first_read_s,
        "index_build_s": build_s,
        "id_map_s": id_map_s,
        "rss_after_imports_mb": rss_after_imports_mb,
        "peak_rss_mb_after_build": rss_after_build_mb,
        "recall_at_10": recall,
        "latency_queries": cfg["latency_queries"],
        "p50_ms": p50_ms,
        "p99_ms": p99_ms,
        "qps": qps,
        "qps_batch": cfg["qps_batch"],
        "topk_cache_hit_frac": hit_frac,
        "observability": RunReport(
            metrics, tracer, metadata={"benchmark": "serving"}
        ).to_dict(),
        "qps_observability": RunReport(
            qps_metrics, metadata={"benchmark": "serving", "phase": "qps"}
        ).to_dict(),
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    store_path.unlink(missing_ok=True)


if __name__ == "__main__":
    main()

"""Batched query execution over an embedding store: the serving front.

:class:`EmbeddingService` turns a :class:`~repro.serving.store.EmbeddingStore`
into the two online workloads the paper evaluates offline:

- **link scoring** (Table IV's protocol made a query): a batch of
  ``(u, v)`` pairs scored by the inner product of their stored
  embeddings (:meth:`EmbeddingService.score_links`);
- **top-k recommendation** ("top-k apps for this user"): nearest
  stored vectors of a batch of query nodes, answered through a
  pluggable index — exact brute force or the IVF approximate index
  (:meth:`EmbeddingService.top_k`).

Every query batch is instrumented into the run's
:class:`~repro.engine.observability.MetricsRegistry` and
:class:`~repro.engine.observability.Tracer` under the ``serving/``
namespace: query/pair counters, batch-size series, per-batch latency
series with live p50/p99 gauges, index-build timers, and the recall
gauge from :meth:`EmbeddingService.measure_recall`.  The same
:class:`~repro.engine.observability.RunReport` schema training uses
serializes a serving session (``repro query --report``).

Top-k answers of stored nodes are memoized per row (:class:`_TopKCache`):
the store is immutable once open, so a row's result for a fixed
``(fetch, nprobe)`` is the same on every call, and a repeated query skips
the index search.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.engine.observability import (
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
)
from repro.serving.index import (
    BruteForceIndex,
    IVFIndex,
    make_index,
    recall_at_k,
)
from repro.serving.store import EmbeddingStore

#: cap on the bytes of one service's top-k result slab (int64 indices
#: plus float64 scores, one row per stored row); a store whose slab would
#: exceed it is not cached
TOPK_CACHE_BYTES = 8 * 1024 * 1024


def _percentile_gauges(
    metrics: MetricsRegistry, name: str, series: str
) -> None:
    """Refresh ``<name>_p50_ms``/``<name>_p99_ms`` gauges from the
    retained tail of ``series`` (bounded, so this stays cheap).  The
    series holds one latency per executed batch, so the gauges are
    per-batch percentiles, not per-query ones."""
    values = metrics.series_values(series)
    if not values:
        return
    metrics.gauge(f"{name}_p50_ms", float(np.percentile(values, 50)))
    metrics.gauge(f"{name}_p99_ms", float(np.percentile(values, 99)))


class _TopKCache:
    """Search results of one ``(fetch, nprobe)`` pair, appended to a slab
    with room for every stored row; ``slot_of`` maps a stored row to
    its slab row."""

    def __init__(self, key: tuple, rows: int, width: int) -> None:
        self.key = key
        self.shape = (rows, width)
        self.slot_of: dict[int, int] = {}
        # allocated on the first store, the scores in the search's dtype;
        # np.empty pages are touched only as slots fill
        self.indices: np.ndarray | None = None
        self.scores: np.ndarray | None = None

    @classmethod
    def create(
        cls, key: tuple, rows: int, width: int
    ) -> "_TopKCache | None":
        """A table for every stored row, or ``None`` when its slab would
        exceed :data:`TOPK_CACHE_BYTES`."""
        if 16 * rows * width > TOPK_CACHE_BYTES:
            return None
        return cls(key, rows, width)

    def store(
        self, rows: list[int], indices: np.ndarray, scores: np.ndarray
    ) -> None:
        """Append one search's result rows (each row is stored once, so
        the slab never fills).  Slice writes: a fancy-indexed write of a
        batch costs several times more."""
        if self.scores is None:
            self.indices = np.empty(self.shape, dtype=np.int64)
            self.scores = np.empty(self.shape, dtype=scores.dtype)
        start = len(self.slot_of)
        end = start + len(rows)
        self.indices[start:end] = indices
        self.scores[start:end] = scores
        self.slot_of.update(zip(rows, range(start, end)))


class EmbeddingService:
    """Answer link-score and top-k queries over one embedding store.

    Args:
        store: an open :class:`EmbeddingStore` or a path to one (paths
            are opened — and then owned/closed — by the service).
        metric: ``"cosine"`` or ``"dot"`` for top-k ranking.  Link
            scores always use the raw inner product, matching the
            paper's Table IV edge-scoring protocol exactly.
        index: ``"ivf"`` (default), ``"brute"``, or a prebuilt index
            instance.  Built lazily on the first top-k query, so a
            pure link-scoring service never pays for it.
        nlist / nprobe / seed: IVF build parameters (ignored for
            ``"brute"``).
        batch_size: internal execution batch; large query lists are
            chunked so one request never materializes an unbounded
            score matrix.
        metrics / tracer: observability sinks (default: the no-op
            singletons — the service is zero-cost unobserved).
    """

    def __init__(
        self,
        store: EmbeddingStore | str | Path,
        metric: str = "cosine",
        index: str | BruteForceIndex | IVFIndex = "ivf",
        nlist: int | None = None,
        nprobe: int = 8,
        seed: int = 0,
        batch_size: int = 256,
        metrics: MetricsRegistry = NULL_REGISTRY,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._owns_store = not isinstance(store, EmbeddingStore)
        self.store = (
            store if isinstance(store, EmbeddingStore) else EmbeddingStore(store)
        )
        self.metric = metric
        self.batch_size = int(batch_size)
        self.metrics = metrics
        self.tracer = tracer
        self._index_kind = index if isinstance(index, str) else None
        self._index = None if isinstance(index, str) else index
        self._index_options = {"nlist": nlist, "nprobe": nprobe, "seed": seed}
        self._topk_cache: _TopKCache | None = None
        if isinstance(index, str) and index not in ("ivf", "brute"):
            raise ValueError(
                f"unknown index kind {index!r}; choose ivf or brute"
            )

    # ------------------------------------------------------------------
    @property
    def index(self) -> BruteForceIndex | IVFIndex:
        """The top-k index, built on first use (timed into
        ``serving/index_build``)."""
        if self._index is None:
            assert self._index_kind is not None
            options = {
                k: v
                for k, v in self._index_options.items()
                if v is not None
            }
            with self.tracer.span("index_build", kind="serving"):
                with self.metrics.timer("serving/index_build"):
                    self._index = make_index(
                        self.store.matrix,
                        self._index_kind,
                        metric=self.metric,
                        **options,
                    )
            if isinstance(self._index, IVFIndex):
                self.metrics.gauge("serving/index_nlist", self._index.nlist)
                self.metrics.gauge("serving/index_nprobe", self._index.nprobe)
        return self._index

    # ------------------------------------------------------------------
    def score_links(
        self, pairs: Sequence[tuple[str, str]]
    ) -> np.ndarray:
        """Inner-product scores for ``(u, v)`` node pairs (Table IV).

        Unknown node ids raise ``KeyError`` naming the id.  Returns one
        float per pair, in order.
        """
        pairs = list(pairs)
        out = np.empty(len(pairs), dtype=np.float64)
        for start in range(0, len(pairs), self.batch_size):
            chunk = pairs[start : start + self.batch_size]
            with self.metrics.timer("serving/link_batch"):
                start_t = _now()
                left = self.store.vectors(u for u, _ in chunk)
                right = self.store.vectors(v for _, v in chunk)
                out[start : start + len(chunk)] = np.einsum(
                    "ij,ij->i", left, right, dtype=np.float64
                )
                self._record_batch("link", len(chunk), _now() - start_t)
        return out

    def top_k(
        self,
        node_ids: Sequence[str],
        k: int = 10,
        nprobe: int | None = None,
        exclude_self: bool = True,
    ) -> list[list[tuple[str, float]]]:
        """Top-``k`` neighbors of each query node, best first.

        Args:
            node_ids: stored node ids to query (``KeyError`` if absent,
                raised before any work is done).
            k: neighbors returned per query (``>= 1``).
            nprobe: override the index's probe width (IVF only).
            exclude_self: drop the query node from its own result (a
                stored query always retrieves itself first otherwise).

        Under an approximate index a row's search result is cached
        under ``(row, fetch, nprobe)``; each batch searches its uncached
        rows once, de-duplicated in first-seen order.  A cached answer
        keeps the bytes of the batch it was first searched in.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        row_of = self.store.row_of
        rows = [row_of(n) for n in node_ids]
        index = self.index
        # fetch k+1 so self-exclusion still fills k slots
        fetch = k + 1 if exclude_self else k
        if index.exact:
            # one GEMM over the batch scores every row, and its bits
            # depend on the batch's shape: exact answers are not cached
            options, cache = {}, None
        else:
            nprobe = index.nprobe if nprobe is None else int(nprobe)
            if nprobe < 1:
                raise ValueError(f"nprobe must be >= 1, got {nprobe}")
            nprobe = min(nprobe, index.nlist)
            options = {"nprobe": nprobe}
            cache = self._topk_cache
            if cache is None or cache.key != (fetch, nprobe):
                cache = self._topk_cache = _TopKCache.create(
                    (fetch, nprobe), index.num_rows, min(fetch, index.num_rows)
                )
        ids = self.store.ids
        results: list[list[tuple[str, float]]] = []
        for start in range(0, len(rows), self.batch_size):
            chunk = rows[start : start + self.batch_size]
            start_t = _now()
            if cache is None:
                missed = chunk
            else:
                slot_of = cache.slot_of
                missed = [
                    row for row in dict.fromkeys(chunk) if row not in slot_of
                ]
            rows_scored = 0
            if missed:
                idx, scores = index.search(
                    self.store.matrix[missed], fetch, **options
                )
                rows_scored = index.rows_scored
                if cache is not None:
                    cache.store(missed, idx, scores)
            if len(missed) == len(chunk):  # searched as is, in order
                found, values = idx.tolist(), scores.tolist()
            else:
                picked = [cache.slot_of[row] for row in chunk]
                found = cache.indices[picked].tolist()
                values = cache.scores[picked].tolist()
            # -1 matches no neighbor, so nothing is dropped
            skip = chunk if exclude_self else [-1] * len(chunk)
            results.extend(
                [(ids[n], s) for n, s in zip(hit, vals) if n != own][:k]
                for own, hit, vals in zip(skip, found, values)
            )
            self._record_batch(
                "topk",
                len(chunk),
                _now() - start_t,
                rows_scored,
                misses=len(missed),
            )
        return results

    # ------------------------------------------------------------------
    def measure_recall(
        self, k: int = 10, sample: int = 64, seed: int = 0
    ) -> float:
        """Recall@``k`` of the configured index against brute force on a
        seeded sample of stored vectors; lands in the
        ``serving/recall_at_k`` gauge.  Returns 1.0 trivially for a
        brute-force service."""
        index = self.index
        if isinstance(index, BruteForceIndex):
            self.metrics.gauge("serving/recall_at_k", 1.0)
            return 1.0
        rng = np.random.default_rng(seed)
        sample = min(sample, self.store.count)
        rows = rng.choice(self.store.count, size=sample, replace=False)
        queries = self.store.matrix[np.sort(rows)]
        exact = BruteForceIndex(self.store.matrix, metric=self.metric)
        approx_idx, _ = index.search(queries, k)
        exact_idx, _ = exact.search(queries, k)
        recall = recall_at_k(approx_idx, exact_idx)
        self.metrics.gauge("serving/recall_at_k", recall)
        self.metrics.gauge("serving/recall_k", float(k))
        return recall

    def _record_batch(
        self,
        kind: str,
        batch: int,
        elapsed_s: float,
        rows_scored: int | None = None,
        misses: int | None = None,
    ) -> None:
        if not self.metrics.enabled:
            return
        self.metrics.counter("serving/queries", batch)
        if rows_scored is not None:
            self.metrics.counter("serving/rows_scored", rows_scored)
        if misses is not None:
            self.metrics.counter("serving/topk_cache_hits", batch - misses)
            self.metrics.counter("serving/topk_cache_misses", misses)
        self.metrics.counter(f"serving/{kind}_queries", batch)
        self.metrics.observe("serving/batch_size", batch)
        self.metrics.observe("serving/latency_ms", elapsed_s * 1e3)
        self.metrics.record_seconds("serving/query_seconds", elapsed_s)
        _percentile_gauges(
            self.metrics, "serving/latency", "serving/latency_ms"
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the top-k cache; close the store if this service opened
        it (idempotent)."""
        self._topk_cache = None
        if self._owns_store and self.store is not None:
            self.store.close()

    def __enter__(self) -> "EmbeddingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _now() -> float:
    return time.perf_counter()

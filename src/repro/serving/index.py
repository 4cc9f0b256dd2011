"""Top-k neighbor search over an embedding matrix: exact and IVF-style.

Two interchangeable indexes answer "which stored vectors score highest
against this query" — the operation behind both of the paper's offline
evaluations turned online (link prediction scores pairs by inner
product, Table IV; recommendation asks for the top-k apps of a user):

- :class:`BruteForceIndex` — exact scores against every row, chunked so
  a million-row matrix never materializes more than a bounded score
  block.  It is the correctness reference the approximate index is
  measured against.
- :class:`IVFIndex` — an inverted-file index in the FAISS IVF-Flat
  shape, pure numpy: a coarse k-means quantizer (:mod:`repro.ml.kmeans`)
  partitions the rows into ``nlist`` cells; a query scores only the
  ``nprobe`` cells whose centroids sit closest, then reranks those
  candidates *exactly*.  Probed cells are nested as ``nprobe`` grows
  (the probe order depends only on the query), so recall is
  monotonically non-decreasing in ``nprobe`` and reaches exactness at
  ``nprobe == nlist`` — both properties are pinned by tests.

Scoring supports ``cosine`` (rows and queries L2-normalized once, then
inner product) and raw ``dot``.  All tie-breaks are stable on row index,
so results are deterministic for a fixed ``(seed, nprobe)``.
"""

from __future__ import annotations

import numpy as np

from repro.ml.kmeans import KMeans, _group_by_cell, _nearest_center

METRICS = ("cosine", "dot")

# cap on n * k * d for the k-means training sample.  ml.kmeans works
# in row blocks of bounded size, so this bounds build time, not memory;
# changing it would change which rows are sampled, and with them the
# centroids
_KMEANS_FLOAT_BUDGET = 40_000_000


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


def _prepare(matrix: np.ndarray, metric: str) -> np.ndarray:
    if metric not in METRICS:
        raise ValueError(
            f"unknown metric {metric!r}; choose from {', '.join(METRICS)}"
        )
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ValueError(f"matrix must be non-empty 2-D, got {matrix.shape}")
    return _normalize_rows(matrix) if metric == "cosine" else matrix


def _as_queries(queries: np.ndarray, dim: int, metric: str) -> np.ndarray:
    queries = np.atleast_2d(np.asarray(queries))
    if queries.shape[1] != dim:
        raise ValueError(
            f"query dim {queries.shape[1]} != index dim {dim}"
        )
    return _normalize_rows(queries) if metric == "cosine" else queries


def _stable_top_k(
    scores: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-k of ``scores`` (num_queries, n), ties broken on the
    lower column index; returns ``(indices, scores)`` sorted descending."""
    n = scores.shape[1]
    k = min(k, n)
    if k < n:
        candidates = np.argpartition(scores, n - k, axis=1)[:, n - k :]
    else:
        candidates = np.broadcast_to(
            np.arange(n), scores.shape
        ).copy()
    picked = np.take_along_axis(scores, candidates, axis=1)
    # lexsort per row: primary -score, secondary candidate index
    order = np.lexsort(
        (candidates, -picked), axis=1
    )
    top_idx = np.take_along_axis(candidates, order, axis=1)
    top_scores = np.take_along_axis(picked, order, axis=1)
    return top_idx, top_scores


class BruteForceIndex:
    """Exact top-k by scoring every stored row (the recall reference).

    Args:
        matrix: ``(n, dim)`` embedding rows (e.g.
            :attr:`repro.serving.store.EmbeddingStore.matrix`).
        metric: ``"cosine"`` or ``"dot"``.
        row_chunk: stored rows scored per block, bounding the transient
            score matrix to ``num_queries * row_chunk`` floats.

    After each :meth:`search`, ``rows_scored`` holds the rows it scored:
    ``num_rows`` per query.
    """

    exact = True

    def __init__(
        self,
        matrix: np.ndarray,
        metric: str = "cosine",
        row_chunk: int = 262_144,
    ) -> None:
        if row_chunk < 1:
            raise ValueError(f"row_chunk must be >= 1, got {row_chunk}")
        self.metric = metric
        self._base = _prepare(matrix, metric)
        self.num_rows, self.dim = self._base.shape
        self.row_chunk = int(row_chunk)
        self.rows_scored = 0

    def search(
        self, queries: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` rows per query: ``(indices, scores)``, each
        ``(num_queries, k)``, scores descending."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        queries = _as_queries(queries, self.dim, self.metric)
        k = min(k, self.num_rows)
        self.rows_scored = self.num_rows * queries.shape[0]
        best_idx = np.empty((queries.shape[0], 0), dtype=np.int64)
        best_scores = np.empty((queries.shape[0], 0), dtype=self._base.dtype)
        for start in range(0, self.num_rows, self.row_chunk):
            block = self._base[start : start + self.row_chunk]
            scores = queries @ block.T
            idx, top = _stable_top_k(scores, k)
            best_idx = np.concatenate([best_idx, idx + start], axis=1)
            best_scores = np.concatenate([best_scores, top], axis=1)
            if best_idx.shape[1] > k:
                order = np.lexsort((best_idx, -best_scores), axis=1)[:, :k]
                best_idx = np.take_along_axis(best_idx, order, axis=1)
                best_scores = np.take_along_axis(best_scores, order, axis=1)
        return best_idx, best_scores


class IVFIndex:
    """Approximate top-k: coarse k-means cells + exact in-cell rerank.

    Build: a k-means quantizer is fit on a bounded sample of the rows
    (at most ``_KMEANS_FLOAT_BUDGET / (nlist * dim)`` of them), then
    every row is assigned to its nearest centroid, and the prepared rows
    are stored cell-major (each cell's members one contiguous block;
    under ``dot`` this is an in-RAM copy of the matrix).  Seeding, Lloyd
    steps and the assignment all walk the rows in blocks of about a
    mebibyte (:mod:`repro.ml.kmeans`): the build holds the prepared
    rows, their cell-major copy, the k-means sample and O(n) labels,
    and no ``(n, nlist)`` block.  Search: score the query against all
    ``nlist`` centroids, probe the ``nprobe`` nearest cells, rerank
    their members exactly with one GEMV over the probed blocks, and —
    when the probed cells hold fewer than ``k`` members — keep probing
    further cells in the same order until ``k`` candidates exist, so
    results never pad.

    After each :meth:`search`, ``rows_scored`` holds the rows it scored,
    summed over its queries, probe doubling included.

    Args:
        matrix: ``(n, dim)`` embedding rows.
        metric: ``"cosine"`` (rows normalized; centroids live in the
            normalized space, so cell assignment agrees with the
            scoring geometry) or ``"dot"``.
        nlist: number of cells (default ``round(sqrt(n))`` clamped to
            [1, 4096] — the classic IVF sizing rule).
        nprobe: default cells probed per query (overridable per search).
        seed: k-means seed; fixed ``(seed, nprobe)`` makes every search
            deterministic.
        train_sample: rows sampled for the quantizer fit (default: the
            float-budget cap).
        kmeans_iters: Lloyd iterations for the quantizer.
    """

    exact = False

    def __init__(
        self,
        matrix: np.ndarray,
        metric: str = "cosine",
        nlist: int | None = None,
        nprobe: int = 8,
        seed: int = 0,
        train_sample: int | None = None,
        kmeans_iters: int = 15,
    ) -> None:
        self.metric = metric
        self._base = _prepare(matrix, metric)
        self.num_rows, self.dim = self._base.shape
        if nlist is None:
            nlist = int(round(np.sqrt(self.num_rows)))
        self.nlist = int(np.clip(nlist, 1, min(4096, self.num_rows)))
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        self.nprobe = min(int(nprobe), self.nlist)
        self.seed = seed

        budget_cap = max(
            self.nlist, _KMEANS_FLOAT_BUDGET // (self.nlist * self.dim)
        )
        if train_sample is None:
            train_sample = budget_cap
        sample_size = int(min(self.num_rows, train_sample, budget_cap))
        sample_size = max(sample_size, self.nlist)
        rng = np.random.default_rng(seed)
        if sample_size < self.num_rows:
            rows = rng.choice(self.num_rows, size=sample_size, replace=False)
            sample = self._base[np.sort(rows)]
        else:
            sample = self._base
        kmeans = KMeans(
            num_clusters=self.nlist,
            num_init=1,
            max_iter=kmeans_iters,
            seed=seed,
        )
        kmeans.fit_predict(np.asarray(sample, dtype=np.float64))
        assert kmeans.centers_ is not None
        self.centroids = kmeans.centers_.astype(self._base.dtype)

        self._cent_sq = (self.centroids**2).sum(axis=1)

        # inverted lists: rows sorted by cell + per-cell boundaries
        self._order, self._cell_starts, self._cell_ends = _group_by_cell(
            _nearest_center(self._base, self.centroids, self._cent_sq),
            self.nlist,
        )
        # cell-major rows: a cell's members are one contiguous block, in
        # the order of its inverted list
        self._base = self._base[self._order]
        bounds = list(
            zip(self._cell_starts.tolist(), self._cell_ends.tolist())
        )
        self._cell_rows = [self._base[s:e] for s, e in bounds]
        self._cell_ids = [self._order[s:e] for s, e in bounds]
        self._cell_counts = [e - s for s, e in bounds]
        self.rows_scored = 0

    def cell_sizes(self) -> np.ndarray:
        """Members per cell (diagnostics; sums to ``num_rows``)."""
        return self._cell_ends - self._cell_starts

    def search(
        self, queries: np.ndarray, k: int, nprobe: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate top-``k``: ``(indices, scores)``, scores exact
        for every returned row (only the candidate set is approximate)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        nprobe = self.nprobe if nprobe is None else int(nprobe)
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        nprobe = min(nprobe, self.nlist)
        queries = _as_queries(queries, self.dim, self.metric)
        k = min(k, self.num_rows)

        # centroid ranking per query: nearest cells first (L2 in the
        # prepared space; nested in nprobe, so recall is monotone)
        cell_rank = np.argsort(
            self._cent_sq - 2.0 * (queries @ self.centroids.T),
            kind="stable",
            axis=1,
        )

        num_queries = queries.shape[0]
        out_idx = np.empty((num_queries, k), dtype=np.int64)
        out_scores = np.empty((num_queries, k), dtype=self._base.dtype)
        scanned = 0
        for qi, rank in enumerate(cell_rank.tolist()):
            probes = nprobe
            while True:
                cells = rank[:probes]
                size = sum(self._cell_counts[c] for c in cells)
                if size >= k or probes >= self.nlist:
                    break
                probes = min(probes * 2, self.nlist)
            scanned += size
            scores = (
                np.concatenate([self._cell_rows[c] for c in cells])
                @ queries[qi]
            )
            rows = np.concatenate([self._cell_ids[c] for c in cells])
            if k < size:
                picked = np.argpartition(scores, size - k)[size - k :]
                rows, scores = rows[picked], scores[picked]
            # candidate rows are unique, so (score desc, row id) is a
            # total order: the same one brute force returns
            order = np.lexsort((rows, -scores))
            out_idx[qi] = rows[order]
            out_scores[qi] = scores[order]
        self.rows_scored = scanned
        return out_idx, out_scores


def recall_at_k(
    approx_indices: np.ndarray, exact_indices: np.ndarray
) -> float:
    """Mean fraction of the exact top-k recovered by the approximate
    search (the standard ANN recall@k; both ``(num_queries, k)``)."""
    approx_indices = np.asarray(approx_indices)
    exact_indices = np.asarray(exact_indices)
    if approx_indices.shape != exact_indices.shape:
        raise ValueError(
            f"shape mismatch: {approx_indices.shape} vs {exact_indices.shape}"
        )
    hits = 0
    for approx, exact in zip(approx_indices, exact_indices):
        hits += len(set(approx.tolist()) & set(exact.tolist()))
    return hits / exact_indices.size


def make_index(
    matrix: np.ndarray, kind: str = "ivf", **kwargs
) -> BruteForceIndex | IVFIndex:
    """Index factory keyed by CLI name (``"ivf"`` or ``"brute"``)."""
    if kind == "ivf":
        return IVFIndex(matrix, **kwargs)
    if kind == "brute":
        kwargs.pop("nlist", None)
        kwargs.pop("nprobe", None)
        kwargs.pop("seed", None)
        return BruteForceIndex(matrix, **kwargs)
    raise ValueError(f"unknown index kind {kind!r}; choose ivf or brute")

"""K-means (k-means++ init) and normalized mutual information.

Used by the node-*clustering* extension task (:mod:`repro.eval.clustering`)
— not part of the paper's evaluation, but the standard third task in the
network-embedding literature and a natural consumer of the same
embeddings — and as the coarse quantizer of
:class:`repro.serving.index.IVFIndex`.

Both k-means loops run in O(n·k·d) time and O(n·d + k·d) memory: every
step walks the rows in blocks of about ``_BLOCK_FLOATS`` floats (seeding
keeps one running nearest-center distance per point; assignment is one
GEMM per block, :func:`_nearest_center`), and the Lloyd mean update
reads each cluster as one contiguous slice of the rows sorted by cell
(:func:`_group_by_cell`).  Every block computes each row exactly as the
whole-matrix expression would, so the results do not depend on ``n``'s
split into blocks.
"""

from __future__ import annotations

import numpy as np

# floats in one row block's temporary (1 MiB of float64): a (block, k)
# distance block when assigning, a (block, d) difference when seeding
_BLOCK_FLOATS = 1 << 17


def _row_blocks(n: int, width: int) -> list[slice]:
    """``n`` rows in near-equal blocks of at most ``_BLOCK_FLOATS /
    width`` rows, and at least 64 rows when there is more than one.

    BLAS routes a GEMM of a few rows to other kernels, whose rounding
    differs, so a short ragged tail would change its rows' products;
    equal sizes keep every block of a split at half the cap or more.
    """
    count = max(1, min(-(-n * width // _BLOCK_FLOATS), n // 64))
    return [slice(n * i // count, n * (i + 1) // count) for i in range(count)]


def _block_buffer(blocks: list[slice], width: int, dtype) -> np.ndarray:
    """One ``(rows, width)`` buffer that the largest of ``blocks`` fits."""
    rows = max(block.stop - block.start for block in blocks)
    return np.empty((rows, width), dtype=dtype)


def _nearest_center(
    x: np.ndarray, centers: np.ndarray, centers_sq: np.ndarray
) -> np.ndarray:
    """Index of the nearest center for every row of ``x``.

    ``centers_sq`` is ``(centers**2).sum(axis=1)``.  ``||x||^2`` is the
    same for every center, so ``argmin ||x - c||^2`` equals
    ``argmin ||c||^2 - 2 x.c``: one GEMM per row block, scaled and
    shifted in place.  ``-2 p + c`` has the bits of ``c - 2 p``
    (scaling by -2 is exact and ``a - b`` is ``a + (-b)``).
    """
    n, k = x.shape[0], centers.shape[0]
    blocks = _row_blocks(n, k)
    buf = _block_buffer(blocks, k, np.result_type(x.dtype, centers.dtype))
    out = np.empty(n, dtype=np.intp)
    for block in blocks:
        p = buf[: block.stop - block.start]
        np.matmul(x[block], centers.T, out=p)
        p *= -2.0
        p += centers_sq
        p.argmin(axis=1, out=out[block])
    return out


def _group_by_cell(
    assignment: np.ndarray, num_cells: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows grouped by cell: ``(order, starts, ends)``.

    ``order`` is the stable argsort of ``assignment``, so cell ``c``'s
    rows are ``order[starts[c]:ends[c]]`` in increasing row order (the
    rows, in order, a boolean mask ``assignment == c`` selects).
    """
    # a stable sort's permutation does not depend on the key dtype, and
    # numpy radix-sorts 16-bit keys
    keys = assignment.astype(np.uint16) if num_cells <= 1 << 16 else assignment
    order = np.argsort(keys, kind="stable").astype(np.int64, copy=False)
    counts = np.bincount(assignment, minlength=num_cells)
    ends = np.cumsum(counts)
    return order, ends - counts, ends


def _row_sq_dist(
    x: np.ndarray,
    centers: np.ndarray,
    out: np.ndarray,
    assignment: np.ndarray | None = None,
) -> np.ndarray:
    """``((x - c) ** 2).sum(axis=1)`` into ``out``, row block by row
    block, where ``c`` is the one row ``centers`` or, given
    ``assignment``, each row's ``centers[assignment]``."""
    blocks = _row_blocks(x.shape[0], x.shape[1])
    buf = _block_buffer(blocks, x.shape[1], out.dtype)
    for block in blocks:
        diff = buf[: block.stop - block.start]
        c = centers if assignment is None else centers[assignment[block]]
        np.subtract(x[block], c, out=diff)
        np.square(diff, out=diff)
        diff.sum(axis=1, out=out[block])
    return out


class KMeans:
    """Lloyd's algorithm with k-means++ seeding.

    Args:
        num_clusters: k.
        num_init: restarts; the best inertia wins.
        max_iter: Lloyd iterations per restart.
        tol: center-movement convergence threshold.
        seed: RNG seed.
    """

    def __init__(
        self,
        num_clusters: int,
        num_init: int = 4,
        max_iter: int = 100,
        tol: float = 1e-6,
        seed: int = 0,
    ) -> None:
        if num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")
        self.num_clusters = num_clusters
        self.num_init = num_init
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed
        self.centers_: np.ndarray | None = None
        self.inertia_: float | None = None

    def _plusplus_init(
        self, x: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        n = x.shape[0]
        centers = [x[int(rng.integers(n))]]
        # squared distance to the nearest center so far; a running
        # minimum is exact, so the draws match a min over all centers
        d2 = _row_sq_dist(x, centers[0], np.empty(n, dtype=x.dtype))
        latest = np.empty_like(d2)
        for _ in range(1, self.num_clusters):
            total = d2.sum()
            if total <= 0:
                centers.append(x[int(rng.integers(n))])
            else:
                probs = d2 / total
                centers.append(x[int(rng.choice(n, p=probs))])
            np.minimum(d2, _row_sq_dist(x, centers[-1], latest), out=d2)
        return np.array(centers)

    def _lloyd(
        self, x: np.ndarray, centers: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        for _ in range(self.max_iter):
            assignment = _nearest_center(x, centers, (centers**2).sum(axis=1))
            order, starts, ends = _group_by_cell(assignment, self.num_clusters)
            # each cell gathers the rows a mask assignment == k selects,
            # in the same order, so its mean has the same bits; a cluster
            # left empty keeps its center
            new_centers = centers.copy()
            for k, (s, e) in enumerate(zip(starts.tolist(), ends.tolist())):
                if e > s:
                    new_centers[k] = x[order[s:e]].mean(axis=0)
            shift = np.linalg.norm(new_centers - centers)
            centers = new_centers
            if shift < self.tol:
                break
        assignment = _nearest_center(x, centers, (centers**2).sum(axis=1))
        # per-row sums, then their total (not one flat sum): this order
        # fixes the rounding of inertia_ and so the best-of-num_init pick
        row_sq = _row_sq_dist(
            x, centers, np.empty(x.shape[0], dtype=x.dtype), assignment
        )
        return assignment, centers, float(row_sq.sum())

    def fit_predict(self, x: np.ndarray) -> np.ndarray:
        """Cluster ``x`` (n, d); returns integer labels (n,)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be 2-D")
        if x.shape[0] < self.num_clusters:
            raise ValueError("fewer samples than clusters")
        rng = np.random.default_rng(self.seed)
        best: tuple[float, np.ndarray, np.ndarray] | None = None
        for _ in range(self.num_init):
            centers = self._plusplus_init(x, rng)
            assignment, centers, inertia = self._lloyd(x, centers)
            if best is None or inertia < best[0]:
                best = (inertia, assignment, centers)
        assert best is not None
        self.inertia_, assignment, self.centers_ = best
        return assignment


def normalized_mutual_information(
    labels_true: np.ndarray, labels_pred: np.ndarray
) -> float:
    """NMI with arithmetic-mean normalization (sklearn's default)."""
    labels_true = np.asarray(labels_true)
    labels_pred = np.asarray(labels_pred)
    if labels_true.shape != labels_pred.shape or labels_true.ndim != 1:
        raise ValueError("label arrays must be matching 1-D arrays")
    n = labels_true.size
    if n == 0:
        raise ValueError("empty label arrays")
    classes_true = np.unique(labels_true)
    classes_pred = np.unique(labels_pred)
    contingency = np.zeros((classes_true.size, classes_pred.size))
    index_true = {c: i for i, c in enumerate(classes_true)}
    index_pred = {c: i for i, c in enumerate(classes_pred)}
    for t, p in zip(labels_true, labels_pred):
        contingency[index_true[t], index_pred[p]] += 1
    joint = contingency / n
    p_true = joint.sum(axis=1)
    p_pred = joint.sum(axis=0)
    mutual = 0.0
    for i in range(classes_true.size):
        for j in range(classes_pred.size):
            if joint[i, j] > 0:
                mutual += joint[i, j] * np.log(
                    joint[i, j] / (p_true[i] * p_pred[j])
                )
    h_true = -np.sum(p_true[p_true > 0] * np.log(p_true[p_true > 0]))
    h_pred = -np.sum(p_pred[p_pred > 0] * np.log(p_pred[p_pred > 0]))
    denom = 0.5 * (h_true + h_pred)
    if denom <= 0:
        return 1.0 if classes_true.size == classes_pred.size == 1 else 0.0
    return float(mutual / denom)

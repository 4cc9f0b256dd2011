"""Recall goldens, determinism and byte oracles for the top-k indexes.

Brute force is pinned against a direct numpy computation (it is the
correctness reference everything else is judged by); the IVF index must
hit recall@10 >= 0.9 on fixture embeddings at fixed seeds, be
deterministic for a fixed (seed, nprobe), recover exactness at
nprobe == nlist, and have recall non-decreasing in nprobe — the last
two follow from nested candidate sets, which is exactly what the test
pins so a refactor cannot silently break the nesting.  Its search must
also return the same bytes as :class:`OracleIVFIndex`, the plain
per-query gather-and-rank form.
"""

import tracemalloc

import numpy as np
import pytest

import repro.serving.index as index_module
from repro.serving.index import (
    BruteForceIndex,
    IVFIndex,
    make_index,
    recall_at_k,
)
from tests.ml.test_kmeans import OracleKMeans


def _oracle_top_k(scores, k):
    """Per-row top-k of a 2-D score matrix, ties on the lower column."""
    n = scores.shape[1]
    k = min(k, n)
    if k < n:
        candidates = np.argpartition(scores, n - k, axis=1)[:, n - k :]
    else:
        candidates = np.broadcast_to(
            np.arange(n), scores.shape
        ).copy()
    picked = np.take_along_axis(scores, candidates, axis=1)
    order = np.lexsort(
        (candidates, -picked), axis=1
    )
    top_idx = np.take_along_axis(candidates, order, axis=1)
    top_scores = np.take_along_axis(picked, order, axis=1)
    return top_idx, top_scores


class OracleIVFIndex(IVFIndex):
    """The reference IVF search: per query, a fancy-index gather of the
    probed cells' rows from a row-ordered matrix, one GEMV, and a 2-D
    top-k.  :meth:`IVFIndex.search` must match it byte for byte."""

    def __init__(self, matrix, **kwargs):
        super().__init__(matrix, **kwargs)
        # the prepared rows in row order, whatever layout the index keeps
        self._rows = index_module._prepare(matrix, self.metric)

    def search(self, queries, k, nprobe=None):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        nprobe = self.nprobe if nprobe is None else int(nprobe)
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        nprobe = min(nprobe, self.nlist)
        queries = index_module._as_queries(queries, self.dim, self.metric)
        k = min(k, self.num_rows)

        cell_rank = np.argsort(
            self._cent_sq - 2.0 * (queries @ self.centroids.T),
            kind="stable",
            axis=1,
        )

        num_queries = queries.shape[0]
        out_idx = np.empty((num_queries, k), dtype=np.int64)
        out_scores = np.empty((num_queries, k), dtype=self._rows.dtype)
        for qi in range(num_queries):
            probes = nprobe
            while True:
                cells = cell_rank[qi, :probes]
                candidates = np.concatenate(
                    [
                        self._order[
                            self._cell_starts[c] : self._cell_ends[c]
                        ]
                        for c in cells
                    ]
                )
                if candidates.size >= k or probes >= self.nlist:
                    break
                probes = min(probes * 2, self.nlist)
            scores = self._rows[candidates] @ queries[qi]
            take = min(k, candidates.size)
            idx, top = _oracle_top_k(scores[None, :], take)
            rows = candidates[idx[0]]
            order = np.lexsort((rows, -top[0]))
            out_idx[qi] = rows[order]
            out_scores[qi] = top[0][order]
        return out_idx, out_scores


def clustered_embeddings(
    n=2000, dim=16, clusters=25, noise=0.8, dtype=np.float64, seed=0
):
    """Fixture embeddings: a Gaussian mixture, like real embedding
    geometry (tight communities with overlap), hard enough that small
    nprobe misses neighbors."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((clusters, dim)) * 2.0
    assignment = rng.integers(0, clusters, size=n)
    x = centers[assignment] + noise * rng.standard_normal((n, dim))
    return x.astype(dtype)


@pytest.fixture(scope="module")
def base():
    return clustered_embeddings()


@pytest.fixture(scope="module")
def queries(base):
    rng = np.random.default_rng(42)
    return base[rng.choice(len(base), size=64, replace=False)]


class TestBruteForce:
    @pytest.mark.parametrize("metric", ["cosine", "dot"])
    def test_matches_direct_computation(self, base, queries, metric):
        index = BruteForceIndex(base, metric=metric)
        idx, scores = index.search(queries, 10)
        if metric == "cosine":
            b = base / np.linalg.norm(base, axis=1, keepdims=True)
            q = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        else:
            b, q = base, queries
        expected = q @ b.T
        for qi in range(len(queries)):
            order = np.lexsort((np.arange(len(base)), -expected[qi]))[:10]
            assert np.array_equal(idx[qi], order)
            assert np.allclose(scores[qi], expected[qi][order], rtol=1e-12)

    def test_chunked_equals_unchunked(self, base, queries):
        whole = BruteForceIndex(base, metric="cosine", row_chunk=10**9)
        chunked = BruteForceIndex(base, metric="cosine", row_chunk=137)
        wi, ws = whole.search(queries, 10)
        ci, cs = chunked.search(queries, 10)
        assert np.array_equal(wi, ci)
        assert np.array_equal(ws, cs)

    def test_scores_descending(self, base, queries):
        _, scores = BruteForceIndex(base).search(queries, 10)
        assert np.all(np.diff(scores, axis=1) <= 0)

    def test_k_larger_than_rows(self):
        x = np.eye(3)
        idx, _ = BruteForceIndex(x, metric="dot").search(x[:1], 10)
        assert idx.shape == (1, 3)

    def test_bad_inputs(self, base):
        with pytest.raises(ValueError, match="unknown metric"):
            BruteForceIndex(base, metric="l2")
        with pytest.raises(ValueError, match="k must be"):
            BruteForceIndex(base).search(base[:1], 0)
        with pytest.raises(ValueError, match="query dim"):
            BruteForceIndex(base).search(np.ones((1, 3)), 1)


class TestIVFRecall:
    @pytest.mark.parametrize("metric", ["cosine", "dot"])
    def test_recall_at_10_golden(self, base, queries, metric):
        """recall@10 >= 0.9 vs brute force at the documented operating
        point (nlist=sqrt(n)-ish, nprobe=8, seed=0)."""
        exact_idx, _ = BruteForceIndex(base, metric=metric).search(queries, 10)
        ivf = IVFIndex(base, metric=metric, nlist=45, nprobe=8, seed=0)
        approx_idx, _ = ivf.search(queries, 10)
        recall = recall_at_k(approx_idx, exact_idx)
        assert recall >= 0.9, recall

    def test_recall_monotone_in_nprobe(self, base, queries):
        """Probed cells are nested, so recall never drops as nprobe
        grows — and at nprobe == nlist the search is exhaustive."""
        exact_idx, _ = BruteForceIndex(base).search(queries, 10)
        ivf = IVFIndex(base, nlist=32, nprobe=1, seed=0)
        recalls = []
        for nprobe in (1, 2, 4, 8, 16, 32):
            approx_idx, _ = ivf.search(queries, 10, nprobe=nprobe)
            recalls.append(recall_at_k(approx_idx, exact_idx))
        assert all(b >= a for a, b in zip(recalls, recalls[1:])), recalls
        assert recalls[-1] == 1.0  # nprobe == nlist probes every cell
        assert recalls[0] < 1.0  # the fixture actually exercises the ANN

    def test_deterministic_for_fixed_seed_and_nprobe(self, base, queries):
        a = IVFIndex(base, nlist=32, nprobe=4, seed=3)
        b = IVFIndex(base, nlist=32, nprobe=4, seed=3)
        ai, ascores = a.search(queries, 10)
        bi, bscores = b.search(queries, 10)
        assert np.array_equal(ai, bi)
        assert np.array_equal(ascores, bscores)

    def test_scores_are_exact_for_returned_rows(self, base, queries):
        """IVF approximates the candidate set, never the scores."""
        ivf = IVFIndex(base, nlist=32, nprobe=4, seed=0)
        idx, scores = ivf.search(queries[:8], 5)
        b = base / np.linalg.norm(base, axis=1, keepdims=True)
        q = queries[:8] / np.linalg.norm(
            queries[:8], axis=1, keepdims=True
        )
        for qi in range(8):
            expected = b[idx[qi]] @ q[qi]
            assert np.allclose(scores[qi], expected, rtol=1e-12)


class TestIVFStructure:
    def test_cells_partition_the_rows(self, base):
        ivf = IVFIndex(base, nlist=32, seed=0)
        assert ivf.cell_sizes().sum() == len(base)

    def test_small_cells_extend_probing_to_fill_k(self):
        """k larger than the probed cells' population still returns k
        rows (probing extends deterministically, never pads)."""
        x = clustered_embeddings(n=60, clusters=3, seed=5)
        ivf = IVFIndex(x, nlist=20, nprobe=1, seed=0)
        idx, scores = ivf.search(x[:4], 30)
        assert idx.shape == (4, 30)
        assert np.all(idx >= 0)
        for row in idx:
            assert len(set(row.tolist())) == 30

    def test_nlist_defaults_to_sqrt(self):
        x = clustered_embeddings(n=900, clusters=5)
        assert IVFIndex(x, seed=0).nlist == 30

    def test_nprobe_clamped_to_nlist(self, base):
        ivf = IVFIndex(base, nlist=8, nprobe=1000, seed=0)
        assert ivf.nprobe == 8

    def test_float32_supported(self):
        x = clustered_embeddings(dtype=np.float32, n=500, clusters=10)
        ivf = IVFIndex(x, nlist=16, nprobe=16, seed=0)
        idx, scores = ivf.search(x[:4], 5)
        assert scores.dtype == np.float32
        assert idx.shape == (4, 5)

    @pytest.mark.parametrize(
        "dtype,metric,train_sample",
        [
            (np.float64, "cosine", None),
            (np.float32, "dot", None),
            (np.float32, "cosine", 600),
        ],
    )
    def test_build_matches_reference_kmeans(
        self, monkeypatch, dtype, metric, train_sample
    ):
        """The quantizer and inverted lists are byte-identical to a
        build on the quadratic reference k-means."""
        x = clustered_embeddings(dtype=dtype)
        built = IVFIndex(x, metric=metric, train_sample=train_sample, seed=3)
        monkeypatch.setattr(index_module, "KMeans", OracleKMeans)
        ref = IVFIndex(x, metric=metric, train_sample=train_sample, seed=3)
        assert built.centroids.dtype == dtype
        for name in ("centroids", "_order", "_cell_starts", "_cell_ends"):
            got, want = getattr(built, name), getattr(ref, name)
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("metric", ["cosine", "dot"])
    def test_build_matches_reference_past_one_block(
        self, monkeypatch, metric
    ):
        """A table several assignment blocks long, and not a whole
        number of them (at most 131,072 / nlist = 1,024 rows a block at
        nlist 128): the quantizer matches the reference k-means, and
        the inverted lists match one unblocked nearest-centroid GEMM
        over every row."""
        x = clustered_embeddings(n=5003, dim=8, dtype=np.float32, seed=4)
        built = IVFIndex(x, metric=metric, nlist=128, seed=2)
        monkeypatch.setattr(index_module, "KMeans", OracleKMeans)
        ref = IVFIndex(x, metric=metric, nlist=128, seed=2)
        assert built.centroids.tobytes() == ref.centroids.tobytes()
        rows = index_module._prepare(x, metric)
        cent = built.centroids
        assignment = (
            (cent**2).sum(axis=1) - 2.0 * (rows @ cent.T)
        ).argmin(axis=1)
        order = np.argsort(assignment, kind="stable")
        counts = np.bincount(assignment, minlength=built.nlist)
        assert built._order.tobytes() == order.tobytes()
        assert built._cell_ends.tobytes() == np.cumsum(counts).tobytes()
        assert built._cell_starts.tobytes() == (
            np.cumsum(counts) - counts
        ).tobytes()

    @pytest.mark.parametrize("metric", ["cosine", "dot"])
    def test_build_memory_stays_small(self, metric):
        # one (n, nlist) float32 block is 49 MiB here, and a build that
        # held two of them peaked near 100 MiB
        x = clustered_embeddings(
            n=50_000, dim=16, clusters=64, dtype=np.float32, seed=6
        )
        tracemalloc.start()
        try:
            IVFIndex(x, metric=metric, nlist=256, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024 * 1024, peak

    def test_bad_inputs(self, base):
        with pytest.raises(ValueError, match="nprobe"):
            IVFIndex(base, nlist=8, nprobe=0)
        with pytest.raises(ValueError, match="nprobe"):
            IVFIndex(base, nlist=8).search(base[:1], 5, nprobe=-1)


class TestIVFSearchMatchesOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("metric", ["cosine", "dot"])
    def test_search_bytes_equal_oracle(self, metric, dtype):
        """Indices and scores are byte-equal to the oracle at every
        probe width, through the probe-doubling path and past
        ``num_rows``, on a table whose duplicated rows tie exactly."""
        x = clustered_embeddings(n=600, dim=12, clusters=8, seed=7)
        x[300:340] = x[:40]
        x = x.astype(dtype)
        fast = IVFIndex(x, metric=metric, seed=1)
        oracle = OracleIVFIndex(x, metric=metric, seed=1)
        rng = np.random.default_rng(3)
        queries = np.vstack(
            [x[::37], rng.standard_normal((8, x.shape[1])).astype(dtype)]
        )
        largest_first = np.sort(fast.cell_sizes())[::-1]
        for nprobe in (1, fast.nprobe, fast.nlist):
            # more rows than any nprobe cells hold: probing must double
            doubling = int(largest_first[:nprobe].sum()) + 1
            if nprobe < fast.nlist:
                assert doubling <= fast.num_rows
            for k in (1, 11, doubling, fast.num_rows + 5):
                got = fast.search(queries, k, nprobe=nprobe)
                want = oracle.search(queries, k, nprobe=nprobe)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.shape == w.shape
                    assert g.tobytes() == w.tobytes(), (nprobe, k)


class TestHelpers:
    def test_recall_at_k_counts_overlap(self):
        exact = np.array([[1, 2, 3, 4]])
        approx = np.array([[4, 3, 9, 8]])
        assert recall_at_k(approx, exact) == 0.5

    def test_recall_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            recall_at_k(np.ones((1, 2)), np.ones((1, 3)))

    def test_make_index_factory(self, base):
        assert isinstance(make_index(base, "brute"), BruteForceIndex)
        assert isinstance(make_index(base, "ivf", nlist=8), IVFIndex)
        with pytest.raises(ValueError, match="unknown index kind"):
            make_index(base, "hnsw")

"""Tests for k-means and NMI."""

import tracemalloc

import numpy as np
import pytest

from repro.ml import KMeans, normalized_mutual_information
from repro.ml.kmeans import _row_blocks


class OracleKMeans(KMeans):
    """The quadratic reference k-means: list-min seeding and an
    ``(n, k, d)`` distance tensor per Lloyd step.  :class:`KMeans` must
    match it byte for byte."""

    def _plusplus_init(self, x, rng):
        n = x.shape[0]
        centers = [x[int(rng.integers(n))]]
        for _ in range(1, self.num_clusters):
            d2 = np.min(
                [((x - c) ** 2).sum(axis=1) for c in centers], axis=0
            )
            total = d2.sum()
            if total <= 0:
                centers.append(x[int(rng.integers(n))])
                continue
            probs = d2 / total
            centers.append(x[int(rng.choice(n, p=probs))])
        return np.array(centers)

    def _lloyd(self, x, centers):
        for _ in range(self.max_iter):
            d2 = (
                (x[:, None, :] - centers[None, :, :]) ** 2
            ).sum(axis=2)
            assignment = d2.argmin(axis=1)
            new_centers = centers.copy()
            for k in range(self.num_clusters):
                members = x[assignment == k]
                if members.size:
                    new_centers[k] = members.mean(axis=0)
            shift = np.linalg.norm(new_centers - centers)
            centers = new_centers
            if shift < self.tol:
                break
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assignment = d2.argmin(axis=1)
        inertia = float(d2[np.arange(x.shape[0]), assignment].sum())
        return assignment, centers, inertia


def unit_mixture(n=6000, dim=32, clusters=16, seed=0):
    """Unit-normalized float32 Gaussian mixture: the shape of the
    ``serve-topk`` store, whose IVF quantizer fits k = 77 on it."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((clusters, dim)) * 2.0
    x = centers[rng.integers(0, clusters, size=n)]
    x = (x + rng.standard_normal((n, dim))).astype(np.float32)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def three_blobs(rng, per=25, spread=0.3):
    centers = np.array([[0, 0], [6, 0], [0, 6]], dtype=float)
    x = np.vstack(
        [c + rng.normal(0, spread, size=(per, 2)) for c in centers]
    )
    y = np.repeat(np.arange(3), per)
    return x, y


class TestKMeans:
    def test_validation(self, rng):
        with pytest.raises(ValueError):
            KMeans(0)
        with pytest.raises(ValueError):
            KMeans(5).fit_predict(rng.normal(size=(3, 2)))
        with pytest.raises(ValueError):
            KMeans(2).fit_predict(rng.normal(size=(10,)))

    def test_recovers_blobs(self, rng):
        x, y = three_blobs(rng)
        predicted = KMeans(3, seed=0).fit_predict(x)
        assert normalized_mutual_information(y, predicted) > 0.95

    def test_deterministic(self, rng):
        x, _ = three_blobs(rng)
        a = KMeans(3, seed=1).fit_predict(x)
        b = KMeans(3, seed=1).fit_predict(x)
        assert np.array_equal(a, b)

    def test_inertia_reported(self, rng):
        x, _ = three_blobs(rng)
        km = KMeans(3, seed=0)
        km.fit_predict(x)
        assert km.inertia_ is not None and km.inertia_ >= 0
        assert km.centers_.shape == (3, 2)

    def test_single_cluster(self, rng):
        x = rng.normal(size=(10, 2))
        labels = KMeans(1, seed=0).fit_predict(x)
        assert (labels == 0).all()

    def test_more_restarts_never_worse(self, rng):
        x, _ = three_blobs(rng, spread=1.5)
        one = KMeans(3, num_init=1, seed=0)
        one.fit_predict(x)
        many = KMeans(3, num_init=8, seed=0)
        many.fit_predict(x)
        assert many.inertia_ <= one.inertia_ + 1e-9


def _fit(cls, x, k, **kwargs):
    km = cls(k, **kwargs)
    labels = km.fit_predict(x)
    return labels, km.centers_, km.inertia_


class TestMatchesOracle:
    """Byte-identical labels, centers and inertia to the reference."""

    def assert_same(self, x, k, **kwargs):
        labels, centers, inertia = _fit(KMeans, x, k, **kwargs)
        ref_labels, ref_centers, ref_inertia = _fit(
            OracleKMeans, x, k, **kwargs
        )
        assert labels.tobytes() == ref_labels.tobytes()
        assert centers.tobytes() == ref_centers.tobytes()
        assert np.float64(inertia).tobytes() == np.float64(
            ref_inertia
        ).tobytes()

    def test_blobs_with_restarts(self, rng):
        x, _ = three_blobs(rng, spread=1.5)
        self.assert_same(x, 3, num_init=4, seed=3)

    def test_tie_heavy_integer_grid(self, rng):
        # few distinct points, many duplicates: equal distances everywhere
        x = rng.integers(0, 4, size=(300, 2)).astype(float)
        self.assert_same(x, 6, num_init=3, seed=5)

    def test_serving_shape(self):
        self.assert_same(unit_mixture(), 77, num_init=1, max_iter=15)

    def test_float32_input(self, rng):
        x = rng.normal(size=(400, 6)).astype(np.float32)
        self.assert_same(x, 9, num_init=2, seed=1)

    # the blocked loops split rows into blocks of at most 131,072 / width
    # rows (width k when assigning, d when seeding): 2,049 rows is one
    # row more than a 2,048-row block holds at k = 64 or d = 64, so it
    # splits in two, and 1,000 rows fit in one block at either width
    @pytest.mark.parametrize(
        "n,d,k",
        [(2049, 3, 64), (2049, 64, 3), (1000, 8, 16)],
        ids=["assign-block-plus-one", "seed-block-plus-one", "one-block"],
    )
    def test_block_edges(self, n, d, k):
        assert len(_row_blocks(n, max(d, k))) == (2 if n > 2048 else 1)
        x = np.random.default_rng(n + d + k).normal(size=(n, d))
        self.assert_same(x, k, num_init=1, max_iter=8, seed=2)

    def test_cluster_empties_during_lloyd(self):
        # three distinct points, five clusters: once all three are seeds
        # every distance is 0, so seeding draws duplicates uniformly and
        # the duplicate centers lose every tie (and every member)
        points = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        x = np.repeat(points, 40, axis=0)
        labels, _, _ = _fit(KMeans, x, 5, num_init=2, seed=0)
        assert np.unique(labels).size < 5
        self.assert_same(x, 5, num_init=2, seed=0)


@pytest.mark.parametrize("width", [1, 3, 64, 77, 4096, 100_000])
@pytest.mark.parametrize("n", [0, 1, 63, 64, 2047, 2049, 6000, 50_001])
def test_row_blocks_cover_rows_in_near_equal_blocks(n, width):
    """Blocks tile ``[0, n)`` in order, differ by at most one row, keep
    under the float cap, and never leave a short tail: a GEMM of a few
    rows takes other BLAS kernels, whose products round differently."""
    blocks = _row_blocks(n, width)
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    sizes = [block.stop - block.start for block in blocks]
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) <= max(-(-(1 << 17) // width), 2 * 64)
    if len(blocks) > 1:
        assert min(sizes) >= 64


def test_serving_shape_memory_stays_small():
    # the (n, k, d) tensor of the reference peaks near 120 MB here
    x = unit_mixture()
    tracemalloc.start()
    try:
        KMeans(77, num_init=1, max_iter=15).fit_predict(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 1024 * 1024, peak


class TestNmi:
    def test_perfect_match(self):
        y = np.array([0, 0, 1, 1, 2, 2])
        assert normalized_mutual_information(y, y) == pytest.approx(1.0)

    def test_permuted_labels_still_perfect(self):
        y = np.array([0, 0, 1, 1, 2, 2])
        permuted = np.array([2, 2, 0, 0, 1, 1])
        assert normalized_mutual_information(y, permuted) == pytest.approx(1.0)

    def test_independent_labels_near_zero(self, rng):
        y_true = rng.integers(0, 3, size=3000)
        y_pred = rng.integers(0, 3, size=3000)
        assert normalized_mutual_information(y_true, y_pred) < 0.01

    def test_symmetry(self, rng):
        a = rng.integers(0, 3, size=200)
        b = rng.integers(0, 4, size=200)
        assert normalized_mutual_information(
            a, b
        ) == pytest.approx(normalized_mutual_information(b, a))

    def test_bounds(self, rng):
        for _ in range(10):
            a = rng.integers(0, 4, size=60)
            b = rng.integers(0, 4, size=60)
            nmi = normalized_mutual_information(a, b)
            assert -1e-9 <= nmi <= 1.0 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            normalized_mutual_information(np.array([0]), np.array([0, 1]))
        with pytest.raises(ValueError):
            normalized_mutual_information(np.array([]), np.array([]))

    def test_single_class_both(self):
        assert normalized_mutual_information(
            np.zeros(5), np.zeros(5)
        ) == pytest.approx(1.0)

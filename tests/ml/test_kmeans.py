"""Tests for k-means and NMI."""

import tracemalloc

import numpy as np
import pytest

from repro.ml import KMeans, normalized_mutual_information


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

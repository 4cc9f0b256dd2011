"""The shared sparse row-update kernel, checked byte for byte.

:func:`segment_sum` must produce exactly the bits of a ``np.unique`` +
sequential ``np.add.at`` aggregation, and ``RowSGD``/``RowAdam`` exactly
the bits of their update rules written on that aggregation: every
embedding downstream depends on it.  Those straightforward forms are the
oracles here, compared with ``tobytes()``, not ``allclose``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import TransN, TransNConfig
from repro.datasets import two_view_toy
from repro.nn import RowAdam, RowSGD, segment_sum


# ----------------------------------------------------------------------
# oracles: the same aggregation and updates through np.unique + np.add.at
# ----------------------------------------------------------------------
def scatter_add_oracle(rows, grads):
    unique, inverse, counts = np.unique(
        rows, return_inverse=True, return_counts=True
    )
    sums = np.zeros((unique.size,) + grads.shape[1:], dtype=grads.dtype)
    np.add.at(sums, inverse, grads)
    return unique, sums, counts


def oracle_row_sgd_update(self, rows, grads, lr=None):
    step = self.lr if lr is None else lr
    unique, inverse, counts = np.unique(
        rows, return_inverse=True, return_counts=True
    )
    aggregated = np.zeros(
        (unique.size, self.matrix.shape[1]), dtype=self.matrix.dtype
    )
    np.add.at(aggregated, inverse, grads)
    aggregated /= counts[:, None]
    self.matrix[unique] -= step * aggregated


def oracle_row_adam_update(self, rows, grads, lr=None):
    step = self.lr if lr is None else lr
    rows = np.asarray(rows, dtype=np.int64)
    unique, inverse = np.unique(rows, return_inverse=True)
    aggregated = np.zeros(
        (unique.size, self.matrix.shape[1]), dtype=self.matrix.dtype
    )
    np.add.at(aggregated, inverse, grads)
    self._t += 1
    m = self._m[unique]
    v = self._v[unique]
    m = self.beta1 * m + (1.0 - self.beta1) * aggregated
    v = self.beta2 * v + (1.0 - self.beta2) * aggregated**2
    self._m[unique] = m
    self._v[unique] = v
    m_hat = m / (1.0 - self.beta1**self._t)
    v_hat = v / (1.0 - self.beta2**self._t)
    self.matrix[unique] -= step * m_hat / (np.sqrt(v_hat) + self.eps)


def assert_bytes_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@st.composite
def batches(draw, max_size=120, max_dim=5):
    """(rows, grads): few distinct rows for heavy repeats, any int width,
    float32 or float64 grads with full-range mantissas."""
    dtype = np.dtype(draw(st.sampled_from([np.float32, np.float64])))
    row_dtype = draw(st.sampled_from([np.int32, np.int64]))
    size = draw(st.integers(0, max_size))
    distinct = draw(st.sampled_from([1, 2, 5, 40, 1000]))
    dim = draw(st.integers(1, max_dim))
    rows = draw(
        hnp.arrays(row_dtype, size, elements=st.integers(0, distinct - 1))
    )
    grads = draw(
        hnp.arrays(
            dtype,
            (size, dim),
            elements=st.floats(-1e3, 1e3, width=8 * dtype.itemsize),
        )
    )
    return rows, grads


# ----------------------------------------------------------------------
# the kernel
# ----------------------------------------------------------------------
class TestSegmentSum:
    @settings(max_examples=150, deadline=None)
    @given(batches())
    def test_matches_scatter_add_byte_for_byte(self, batch):
        rows, grads = batch
        unique, sums, counts = segment_sum(rows, grads)
        want_unique, want_sums, want_counts = scatter_add_oracle(rows, grads)
        assert_bytes_equal(unique, want_unique)
        assert_bytes_equal(sums, want_sums)
        np.testing.assert_array_equal(counts, want_counts)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_large_skipgram_shaped_batch(self, rng, dtype):
        # the shape of a context-side SGNS update: B*(m+1) rows of d=32
        rows = rng.zipf(1.5, size=1536 * 6) % 700
        grads = rng.normal(size=(rows.size, 32)).astype(dtype)
        grads *= 10.0 ** rng.uniform(-4, 1, size=(rows.size, 1))
        for got, want in zip(
            segment_sum(rows, grads), scatter_add_oracle(rows, grads)
        ):
            assert_bytes_equal(got, want)

    def test_empty_batch(self):
        unique, sums, counts = segment_sum(
            np.zeros(0, dtype=np.int64), np.zeros((0, 4), dtype=np.float32)
        )
        assert unique.shape == (0,)
        assert sums.shape == (0, 4) and sums.dtype == np.float32
        assert counts.shape == (0,)

    def test_single_row(self):
        unique, sums, counts = segment_sum(
            np.array([7]), np.array([[1.5, -2.0]])
        )
        assert unique.tolist() == [7]
        assert sums.tolist() == [[1.5, -2.0]]
        assert counts.tolist() == [1]

    def test_trailing_shapes(self, rng):
        rows = np.array([3, 1, 3, 3, 0])
        for shape in [(5,), (5, 2, 3)]:
            grads = rng.normal(size=shape)
            for got, want in zip(
                segment_sum(rows, grads), scatter_add_oracle(rows, grads)
            ):
                assert_bytes_equal(got, want)

    def test_sums_in_occurrence_order(self):
        # 1 + 1e8 - 1e8 in float32 depends on the order of the terms
        rows = np.array([0, 0, 0])
        grads = np.array([[1.0], [1e8], [-1e8]], dtype=np.float32)
        _, sums, _ = segment_sum(rows, grads)
        assert sums[0, 0] == np.float32(0.0)
        _, sums, _ = segment_sum(rows, grads[::-1].copy())
        assert sums[0, 0] == np.float32(1.0)


# ----------------------------------------------------------------------
# the optimizers built on it
# ----------------------------------------------------------------------
def _matrix_pair(rng, dtype, num_rows=40, dim=4):
    matrix = rng.normal(size=(num_rows, dim)).astype(dtype)
    return matrix, matrix.copy()


class TestRowOptimizersMatchOracle:
    @settings(max_examples=60, deadline=None)
    @given(batches(max_size=80), st.integers(0, 2**32 - 1))
    def test_row_sgd(self, batch, seed):
        rows, grads = batch
        rows = rows % 40
        new, old = _matrix_pair(
            np.random.default_rng(seed), grads.dtype, dim=grads.shape[1]
        )
        RowSGD(new, lr=0.1).update(rows, grads, lr=0.03)
        oracle_row_sgd_update(RowSGD(old, lr=0.1), rows, grads, lr=0.03)
        assert_bytes_equal(new, old)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_adam_over_steps(self, rng, dtype):
        new, old = _matrix_pair(rng, dtype)
        new_opt, old_opt = RowAdam(new, lr=0.01), RowAdam(old, lr=0.01)
        for _ in range(6):
            rows = rng.integers(0, 40, size=int(rng.integers(0, 90)))
            grads = rng.normal(size=(rows.size, 4)).astype(dtype)
            new_opt.update(rows.astype(np.int32), grads)
            oracle_row_adam_update(old_opt, rows, grads)
        assert_bytes_equal(new, old)
        assert_bytes_equal(new_opt._m, old_opt._m)
        assert_bytes_equal(new_opt._v, old_opt._v)

    def test_empty_update_is_a_no_op(self, rng):
        matrix, before = _matrix_pair(rng, np.float32)
        empty_rows = np.zeros(0, dtype=np.int64)
        empty_grads = np.zeros((0, 4), dtype=np.float32)
        RowSGD(matrix, lr=0.1).update(empty_rows, empty_grads)
        RowAdam(matrix, lr=0.1).update(empty_rows, empty_grads)
        assert_bytes_equal(matrix, before)


class TestStreamingFitMatchesOracle:
    def test_float32_workers2_fit_byte_identical(self, monkeypatch):
        config = dict(
            dim=8,
            walk_length=8,
            walk_floor=2,
            walk_cap=3,
            num_iterations=2,
            cross_path_len=3,
            cross_paths_per_pair=8,
            num_encoders=1,
            batch_size=64,
            seed=7,
            dtype="float32",
            stream_corpus=True,
            workers=2,
        )

        def fit():
            graph, _ = two_view_toy()
            model = TransN(graph, TransNConfig(**config))
            model.fit()
            return model.view_embeddings

        kernel = fit()
        calls = {"sgd": 0, "adam": 0}

        def sgd(self, *args, **kwargs):
            calls["sgd"] += 1
            oracle_row_sgd_update(self, *args, **kwargs)

        def adam(self, *args, **kwargs):
            calls["adam"] += 1
            oracle_row_adam_update(self, *args, **kwargs)

        monkeypatch.setattr(RowSGD, "update", sgd)
        monkeypatch.setattr(RowAdam, "update", adam)
        oracle = fit()
        assert calls["sgd"] > 0 and calls["adam"] > 0
        assert set(kernel) == set(oracle)
        for edge_type in kernel:
            assert kernel[edge_type].dtype == np.float32
            assert_bytes_equal(kernel[edge_type], oracle[edge_type])

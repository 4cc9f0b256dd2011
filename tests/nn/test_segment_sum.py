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

import repro.core.cross_view as cross_view
import repro.nn.optim as nn_optim
import repro.skipgram.trainer as skipgram_trainer
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


def oracle_row_sgd_apply(self, unique, sums, counts, lr=None):
    # the int64 counts make this a float64 division rounded to the sums'
    # dtype
    step = self.lr if lr is None else lr
    sums /= counts[:, None]
    self.matrix[unique] -= step * sums


def oracle_row_adam_apply(self, unique, sums, counts, lr=None):
    step = self.lr if lr is None else lr
    self._t += 1
    m = self._m[unique]
    v = self._v[unique]
    m = self.beta1 * m + (1.0 - self.beta1) * sums
    v = self.beta2 * v + (1.0 - self.beta2) * sums**2
    self._m[unique] = m
    self._v[unique] = v
    m_hat = m / (1.0 - self.beta1**self._t)
    v_hat = v / (1.0 - self.beta2**self._t)
    self.matrix[unique] -= step * m_hat / (np.sqrt(v_hat) + self.eps)


def oracle_row_sgd_update(self, rows, grads, lr=None):
    oracle_row_sgd_apply(
        self, *scatter_add_oracle(rows, grads.astype(self.matrix.dtype)), lr=lr
    )


def oracle_row_adam_update(self, rows, grads, lr=None):
    oracle_row_adam_apply(
        self, *scatter_add_oracle(rows, grads.astype(self.matrix.dtype)), lr=lr
    )


def assert_bytes_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@st.composite
def batches(draw, max_size=120, max_dim=5):
    """(rows, grads): few distinct rows for heavy repeats, any int width,
    rows below, across or far above the 16-bit sort keys' bound of 65,536
    (up to 2**40), float32 or float64 grads anywhere in the finite range,
    subnormals included."""
    dtype = np.dtype(draw(st.sampled_from([np.float32, np.float64])))
    row_dtype = draw(st.sampled_from([np.int32, np.int64]))
    size = draw(st.integers(0, max_size))
    distinct = draw(st.sampled_from([1, 2, 5, 40, 1000]))
    offsets = [0, 65_536 - distinct // 2]
    if row_dtype == np.int64:
        offsets.append(2**40 - distinct)
    offset = draw(st.sampled_from(offsets))
    dim = draw(st.integers(1, max_dim))
    rows = draw(
        hnp.arrays(
            row_dtype,
            size,
            elements=st.integers(offset, offset + distinct - 1),
        )
    )
    grads = draw(
        hnp.arrays(
            dtype,
            (size, dim),
            elements=st.floats(
                allow_nan=False,
                allow_infinity=False,
                allow_subnormal=True,
                width=8 * dtype.itemsize,
            ),
        )
    )
    return rows, grads


# ----------------------------------------------------------------------
# the kernel
# ----------------------------------------------------------------------
class TestSegmentSum:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
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

    @pytest.mark.parametrize(
        "rows",
        [
            np.array([-1, 5, -1, 65_535, 0], dtype=np.int64),
            np.array([-70_000, 3, 3], dtype=np.int32),
            np.array([65_535, 0, 65_535, 9], dtype=np.uint16),
            np.array([2**33, 7, 2**33], dtype=np.uint64),
            np.array([70_000, 2, 70_000, 1], dtype=">i8"),
            np.array([4, 65_535, 4, 1], dtype=">i4"),
        ],
    )
    def test_keys_outside_the_16_bit_sort(self, rng, rows):
        # negative, unsigned and byte-swapped rows must pick the right sort
        grads = rng.normal(size=(rows.size, 3)).astype(np.float32)
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
        calls = {name: 0 for name in ("segment_sum", "sgd", "adam")}

        def counted(name, oracle):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return oracle(*args, **kwargs)

            return wrapper

        # every module that bound the kernel at import: the row
        # optimizers' update, the SGNS step and the cross-view merge
        for module in (nn_optim, skipgram_trainer, cross_view):
            monkeypatch.setattr(
                module,
                "segment_sum",
                counted("segment_sum", scatter_add_oracle),
            )
        monkeypatch.setattr(RowSGD, "apply", counted("sgd", oracle_row_sgd_apply))
        monkeypatch.setattr(
            RowAdam, "apply", counted("adam", oracle_row_adam_apply)
        )
        oracle = fit()
        assert all(calls.values()), calls
        assert set(kernel) == set(oracle)
        for edge_type in kernel:
            assert kernel[edge_type].dtype == np.float32
            assert_bytes_equal(kernel[edge_type], oracle[edge_type])

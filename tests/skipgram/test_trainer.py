"""Tests for the SGNS trainer."""

import numpy as np
import pytest

from repro.nn.optim import RowSGD
from repro.skipgram import SkipGramTrainer
from repro.skipgram.trainer import _sigmoid


def masked_sigmoid(x):
    """The sigmoid by boolean masks, the bitwise oracle of ``_sigmoid``."""
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    ex = np.exp(x[~positive])
    out[~positive] = ex / (1.0 + ex)
    return out


def concatenating_sgns_step(emb, context, centers, contexts, negatives, lr):
    """One SGNS update with int64 casts and the context-side rows and
    grads joined by ``concatenate``: the bitwise oracle of the
    preallocated grad buffer in ``train_batch``."""
    centers = np.asarray(centers, dtype=np.int64)
    contexts = np.asarray(contexts, dtype=np.int64)
    negatives = np.asarray(negatives, dtype=np.int64)
    w_c, w_o, w_n = emb[centers], context[contexts], context[negatives]
    g_pos = masked_sigmoid(np.einsum("bd,bd->b", w_c, w_o)) - 1.0
    g_neg = masked_sigmoid(np.einsum("bd,bmd->bm", w_c, w_n))
    grad_center = g_pos[:, None] * w_o + np.einsum("bm,bmd->bd", g_neg, w_n)
    RowSGD(emb, lr=lr).update(centers, grad_center)
    out_rows = np.concatenate([contexts, negatives.reshape(-1)])
    out_grads = np.concatenate(
        [
            g_pos[:, None] * w_c,
            (g_neg[..., None] * w_c[:, None, :]).reshape(-1, w_c.shape[1]),
        ]
    )
    RowSGD(context, lr=lr).update(out_rows, out_grads)


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_masked_form(self, rng, dtype):
        x = rng.normal(scale=20.0, size=(37, 5)).astype(dtype)
        x[0, :4] = [0.0, -0.0, 1e30, -1e30]
        got, want = _sigmoid(x), masked_sigmoid(x)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def test_midpoint(self):
        assert _sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_extremes_stable(self):
        out = _sigmoid(np.array([-1000.0, 1000.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(1.0)

    def test_matches_naive_in_safe_range(self, rng):
        x = rng.normal(size=100)
        assert np.allclose(_sigmoid(x), 1.0 / (1.0 + np.exp(-x)))


class TestMeanUpdate:
    def test_unique_rows_plain_sgd(self):
        m = np.zeros((3, 2))
        RowSGD(m, lr=1.0).update(np.array([0, 2]), np.ones((2, 2)), lr=0.5)
        assert np.allclose(m[0], -0.5)
        assert np.allclose(m[1], 0.0)
        assert np.allclose(m[2], -0.5)

    def test_duplicates_averaged_not_summed(self):
        m = np.zeros((2, 2))
        grads = np.array([[1.0, 1.0], [3.0, 3.0]])
        RowSGD(m, lr=1.0).update(np.array([0, 0]), grads)
        assert np.allclose(m[0], -2.0)  # mean of 1 and 3


class TestTrainer:
    def test_rejects_1d_embeddings(self):
        with pytest.raises(ValueError):
            SkipGramTrainer(np.zeros(5))

    def test_context_initialized_to_zeros(self, rng):
        trainer = SkipGramTrainer(rng.normal(size=(4, 3)))
        assert (trainer.context == 0).all()

    def test_shape_validation(self, rng):
        trainer = SkipGramTrainer(rng.normal(size=(5, 3)))
        with pytest.raises(ValueError):
            trainer.train_batch(
                np.array([0]), np.array([1, 2]), np.zeros((1, 2), int), 0.1
            )
        with pytest.raises(ValueError):
            trainer.train_batch(
                np.array([0]), np.array([1]), np.zeros(3, int), 0.1
            )

    def test_loss_decreases(self, rng):
        emb = rng.normal(0, 0.1, size=(10, 8))
        trainer = SkipGramTrainer(emb, rng=rng)
        centers = np.array([0, 1, 2, 3])
        contexts = np.array([1, 2, 3, 4])
        negatives = rng.integers(5, 10, size=(4, 5))
        before = trainer.loss_batch(centers, contexts, negatives)
        for _ in range(100):
            trainer.train_batch(centers, contexts, negatives, lr=0.1)
        after = trainer.loss_batch(centers, contexts, negatives)
        assert after < before

    def test_stable_with_duplicates(self, rng):
        """The failure mode the mean-update fixes: heavy duplication."""
        emb = rng.normal(0, 0.1, size=(6, 4))
        trainer = SkipGramTrainer(emb, rng=rng)
        centers = np.repeat([0, 1], 100)
        contexts = np.repeat([1, 0], 100)
        negatives = rng.integers(2, 6, size=(200, 5))
        for _ in range(50):
            trainer.train_batch(centers, contexts, negatives, lr=0.1)
        assert np.linalg.norm(emb) < 100.0
        assert np.isfinite(emb).all()

    def test_positive_pairs_become_similar(self, rng):
        emb = rng.normal(0, 0.1, size=(12, 8))
        trainer = SkipGramTrainer(emb, rng=rng)
        centers = np.array([0, 0, 0])
        contexts = np.array([1, 1, 1])
        negatives = rng.integers(2, 12, size=(3, 4))
        for _ in range(200):
            trainer.train_batch(centers, contexts, negatives, lr=0.1)
        pos = emb[0] @ trainer.context[1]
        negs = emb[0] @ trainer.context[negatives[0]].T
        assert pos > negs.max()

    def test_untouched_rows_unchanged(self, rng):
        emb = rng.normal(0, 0.1, size=(10, 4))
        snapshot = emb[9].copy()
        trainer = SkipGramTrainer(emb, rng=rng)
        trainer.train_batch(
            np.array([0]), np.array([1]), np.array([[2, 3]]), lr=0.5
        )
        assert np.array_equal(emb[9], snapshot)

    def test_updates_in_place(self, rng):
        emb = rng.normal(0, 0.1, size=(5, 4))
        view = emb  # same object
        trainer = SkipGramTrainer(emb, rng=rng)
        trainer.train_batch(
            np.array([0]), np.array([1]), np.array([[2, 3]]), lr=0.5
        )
        assert trainer.embeddings is view


class TestBatchBuffer:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_concatenating_step(self, rng, dtype):
        emb = rng.normal(0, 0.1, size=(30, 6)).astype(dtype)
        reference_emb = emb.copy()
        reference_context = np.zeros_like(emb)
        trainer = SkipGramTrainer(emb, rng=rng)
        for _ in range(5):
            centers = rng.integers(0, 30, size=40).astype(np.int32)
            contexts = rng.integers(0, 30, size=40).astype(np.int32)
            negatives = rng.integers(0, 30, size=(40, 4))
            trainer.train_batch(centers, contexts, negatives, lr=0.05)
            concatenating_sgns_step(
                reference_emb, reference_context,
                centers, contexts, negatives, lr=0.05,
            )
        assert emb.tobytes() == reference_emb.tobytes()
        assert trainer.context.tobytes() == reference_context.tobytes()

    def test_unique_negatives_metric(self, rng):
        from repro.engine.observability import MetricsRegistry

        trainer = SkipGramTrainer(rng.normal(size=(20, 4)), rng=rng)
        trainer.metrics = MetricsRegistry()
        negatives = np.array([[3, 3, 7], [19, 3, 0]])
        trainer.train_batch(np.array([0, 1]), np.array([2, 4]), negatives, 0.1)
        series = trainer.metrics.snapshot()["series"]["negatives/unique_frac"]
        assert series["mean"] == pytest.approx(4 / 6)

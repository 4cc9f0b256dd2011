"""Batched-vs-per-chunk equivalence of the cross-view translator stack.

The tape oracle of the cross-view step (``tests/core/tape_oracle.py``)
feeds a ``(num_chunks, path_len, d)`` tensor through one autograd graph
where a per-chunk step builds one 2-D graph per chunk.  At identical
parameters the two must agree exactly:

* forward: the batched output's k-th slice equals the 2-D forward of
  chunk k;
* backward: the batched loss is the mean over chunks of per-chunk losses,
  so batched parameter/input gradients equal the mean of the per-chunk
  gradients — asserted to 1e-8 (the acceptance tolerance).
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core.cross_view import similarity_loss
from repro.core.translator import make_translator
from repro.nn import Encoder, FeedForwardLayer, SelfAttentionLayer

NUM_CHUNKS, PATH_LEN, DIM = 5, 4, 6


@pytest.fixture(params=["full", "simple"])
def translator(request, rng):
    return make_translator(
        PATH_LEN, DIM, num_encoders=2, simple=request.param == "simple", rng=rng
    )


def _per_chunk_grads(module, batch, loss_of):
    """Mean per-chunk parameter and input gradients of ``loss_of``."""
    params = list(module.parameters())
    param_grads = [np.zeros_like(p.data) for p in params]
    input_grads = np.zeros_like(batch)
    num_chunks = batch.shape[0]
    for k in range(num_chunks):
        module.zero_grad()
        a = Tensor(batch[k], requires_grad=True)
        loss_of(module(a), a, k).backward()
        for grad, param in zip(param_grads, params):
            if param.grad is not None:
                grad += param.grad / num_chunks
        input_grads[k] = a.grad / num_chunks
    module.zero_grad()
    return param_grads, input_grads


class TestLayerBatching:
    def test_attention_batched_matches_slices(self, rng):
        layer = SelfAttentionLayer(DIM)
        batch = rng.normal(size=(NUM_CHUNKS, PATH_LEN, DIM))
        out = layer(Tensor(batch)).data
        for k in range(NUM_CHUNKS):
            np.testing.assert_allclose(
                out[k], layer(Tensor(batch[k])).data, atol=1e-12
            )

    def test_feed_forward_batched_matches_slices(self, rng):
        layer = FeedForwardLayer(PATH_LEN, rng=rng)
        batch = rng.normal(size=(NUM_CHUNKS, PATH_LEN, DIM))
        out = layer(Tensor(batch)).data
        for k in range(NUM_CHUNKS):
            np.testing.assert_allclose(
                out[k], layer(Tensor(batch[k])).data, atol=1e-12
            )

    def test_encoder_batched_matches_slices(self, rng):
        enc = Encoder(PATH_LEN, DIM, rng=rng)
        batch = rng.normal(size=(NUM_CHUNKS, PATH_LEN, DIM))
        out = enc(Tensor(batch)).data
        for k in range(NUM_CHUNKS):
            np.testing.assert_allclose(
                out[k], enc(Tensor(batch[k])).data, atol=1e-12
            )

    def test_wrong_path_len_rejected_batched(self, rng):
        layer = FeedForwardLayer(PATH_LEN, rng=rng)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((3, PATH_LEN + 1, DIM))))


class TestTranslatorForward:
    def test_batched_matches_per_chunk(self, translator, rng):
        batch = rng.normal(size=(NUM_CHUNKS, PATH_LEN, DIM))
        out = translator(Tensor(batch)).data
        assert out.shape == (NUM_CHUNKS, PATH_LEN, DIM)
        for k in range(NUM_CHUNKS):
            np.testing.assert_allclose(
                out[k], translator(Tensor(batch[k])).data, atol=1e-12
            )

    def test_2d_still_accepted(self, translator, rng):
        out = translator(Tensor(rng.normal(size=(PATH_LEN, DIM))))
        assert out.shape == (PATH_LEN, DIM)

    def test_bad_shapes_rejected(self, translator, rng):
        for shape in [
            (PATH_LEN + 1, DIM),
            (PATH_LEN, DIM + 1),
            (2, PATH_LEN + 1, DIM),
            (2, 2, PATH_LEN, DIM),
        ]:
            with pytest.raises(ValueError):
                translator(Tensor(np.zeros(shape)))


class TestTranslatorGradients:
    """Batched gradients == mean of per-chunk gradients, to 1e-8."""

    def test_translation_loss_gradients(self, translator, rng):
        batch = rng.normal(size=(NUM_CHUNKS, PATH_LEN, DIM))
        targets = rng.normal(size=(NUM_CHUNKS, PATH_LEN, DIM))

        translator.zero_grad()
        a = Tensor(batch, requires_grad=True)
        similarity_loss(translator(a), Tensor(targets)).backward()
        batched_param_grads = [p.grad.copy() for p in translator.parameters()]
        batched_input_grad = a.grad.copy()

        param_grads, input_grads = _per_chunk_grads(
            translator,
            batch,
            lambda out, a_k, k: similarity_loss(out, Tensor(targets[k])),
        )
        for got, expected in zip(batched_param_grads, param_grads):
            np.testing.assert_allclose(got, expected, atol=1e-8)
        np.testing.assert_allclose(batched_input_grad, input_grads, atol=1e-8)

    def test_reconstruction_loss_gradients(self, rng):
        """The dual path T_ji(T_ij(A)) vs A, per Eqs. 13-14."""
        fwd = make_translator(PATH_LEN, DIM, 1, simple=False, rng=rng)
        bwd = make_translator(PATH_LEN, DIM, 1, simple=False, rng=rng)
        batch = rng.normal(size=(NUM_CHUNKS, PATH_LEN, DIM))

        class Dual:
            def parameters(self):
                yield from fwd.parameters()
                yield from bwd.parameters()

            def zero_grad(self):
                fwd.zero_grad()
                bwd.zero_grad()

            def __call__(self, a):
                return bwd(fwd(a))

        dual = Dual()
        dual.zero_grad()
        a = Tensor(batch, requires_grad=True)
        similarity_loss(dual(a), a).backward()
        batched_param_grads = [p.grad.copy() for p in dual.parameters()]
        batched_input_grad = a.grad.copy()

        param_grads, input_grads = _per_chunk_grads(
            dual, batch, lambda out, a_k, k: similarity_loss(out, a_k)
        )
        for got, expected in zip(batched_param_grads, param_grads):
            np.testing.assert_allclose(got, expected, atol=1e-8)
        np.testing.assert_allclose(batched_input_grad, input_grads, atol=1e-8)

    def test_unnormalized_loss_gradients(self, translator, rng):
        batch = rng.normal(size=(NUM_CHUNKS, PATH_LEN, DIM))
        targets = rng.normal(size=(NUM_CHUNKS, PATH_LEN, DIM))

        translator.zero_grad()
        a = Tensor(batch, requires_grad=True)
        similarity_loss(translator(a), Tensor(targets), normalize=False).backward()
        batched_param_grads = [p.grad.copy() for p in translator.parameters()]

        param_grads, _ = _per_chunk_grads(
            translator,
            batch,
            lambda out, a_k, k: similarity_loss(
                out, Tensor(targets[k]), normalize=False
            ),
        )
        for got, expected in zip(batched_param_grads, param_grads):
            np.testing.assert_allclose(got, expected, atol=1e-8)


class TestBatchedLossValue:
    def test_batched_loss_is_mean_of_chunk_losses(self, translator, rng):
        batch = rng.normal(size=(NUM_CHUNKS, PATH_LEN, DIM))
        targets = rng.normal(size=(NUM_CHUNKS, PATH_LEN, DIM))
        batched = similarity_loss(
            translator(Tensor(batch)), Tensor(targets)
        ).item()
        per_chunk = np.mean(
            [
                similarity_loss(
                    translator(Tensor(batch[k])), Tensor(targets[k])
                ).item()
                for k in range(NUM_CHUNKS)
            ]
        )
        assert batched == pytest.approx(per_chunk, abs=1e-12)

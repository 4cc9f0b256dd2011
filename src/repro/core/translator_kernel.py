"""Closed-form forward and backward of one cross-view translator step.

The cross-view trainer's hot loop (Lines 9-12 of Algorithm 1) as plain
numpy over ``(N, p, d)`` chunk batches, with the gradients derived by
hand instead of recorded on the :mod:`repro.autograd` tape:

- Equation 8, parameter-free attention ``S(A) = softmax(A Aᵀ/√d) A``;
- Equation 9, ``F(A) = W A + b`` — ReLU on hidden encoders and on
  :class:`~repro.core.translator.SimpleTranslator`'s single layer,
  linear on a full translator's last encoder;
- Equations 11-14, the translation and reconstruction similarity losses,
  normalized (``1 - cos``) or literal (``-<a, b>``).

Nothing here builds a graph, so a step holds only its own activations:
one micro-batch of chunks at a time, which is what lets the trainer
bound cross-view memory by ``corpus_budget_mb``.  The translator
parameters stay :class:`~repro.autograd.Tensor` objects in their modules;
the kernel reads ``.data`` and adds into ``.grad`` exactly where the tape
would, so :class:`~repro.nn.Adam` steps them unchanged.  The tape itself
remains the test oracle (``tests/core/tape_oracle.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.autograd import Tensor
from repro.core.translator import SimpleTranslator

#: the norm floor of :func:`repro.autograd.functional.l2_normalize_rows`
NORM_EPS = 1e-12


@dataclass(frozen=True)
class KernelLayer:
    """One Eq. 9 feed-forward layer, optionally after Eq. 8 attention."""

    weight: Tensor
    bias: Tensor
    attention: bool
    relu: bool


def kernel_layers(translator) -> tuple[KernelLayer, ...]:
    """The layer stack of a :class:`Translator` or :class:`SimpleTranslator`."""
    if isinstance(translator, SimpleTranslator):
        blocks = [(translator.feed_forward, False)]
    else:
        blocks = [(encoder.feed_forward, True) for encoder in translator.encoders]
    return tuple(
        KernelLayer(ff.weight, ff.bias, attention, ff.activation == "relu")
        for ff, attention in blocks
    )


def translate(
    layers: tuple[KernelLayer, ...], a: np.ndarray
) -> tuple[np.ndarray, list]:
    """Forward ``(N, p, d)`` chunks; returns the output and the cache
    :func:`translate_backward` consumes (one entry per layer)."""
    scale = 1.0 / math.sqrt(a.shape[-1])
    cache = []
    for layer in layers:
        if layer.attention:
            probs = a @ a.transpose(0, 2, 1)
            probs *= scale
            probs -= probs.max(axis=-1, keepdims=True)
            np.exp(probs, out=probs)
            probs /= probs.sum(axis=-1, keepdims=True)
            mixed = probs @ a
        else:
            probs, mixed = None, a
        out = layer.weight.data @ mixed
        out += layer.bias.data
        if layer.relu:
            np.maximum(out, 0, out=out)
        cache.append((a, probs, mixed, out))
        a = out
    return a, cache


def _add_grad(param: Tensor, grad: np.ndarray) -> None:
    if param.grad is None:
        param.grad = grad
    else:
        param.grad += grad


def translate_backward(
    layers: tuple[KernelLayer, ...], cache: list, grad: np.ndarray
) -> np.ndarray:
    """Back-propagate d loss / d output through ``layers``.

    Adds every layer's ``W``/``b`` gradient into its Tensor's ``.grad``
    and returns d loss / d input.  Consumes ``cache`` (entries are popped
    as their layer finishes, so activations are freed on the way down).
    """
    scale = 1.0 / math.sqrt(grad.shape[-1])
    for layer in reversed(layers):
        a, probs, mixed, out = cache.pop()
        if layer.relu:
            grad = grad * (out > 0)
        _add_grad(layer.weight, (grad @ mixed.transpose(0, 2, 1)).sum(axis=0))
        _add_grad(layer.bias, grad.sum(axis=(0, 2))[:, None])
        grad = layer.weight.data.T @ grad
        if layer.attention:
            d_probs = grad @ a.transpose(0, 2, 1)
            d_a = probs.transpose(0, 2, 1) @ grad
            d_probs -= (d_probs * probs).sum(axis=-1, keepdims=True)
            d_probs *= probs
            d_probs *= scale
            d_probs += d_probs.transpose(0, 2, 1)
            d_a += d_probs @ a
            grad = d_a
    return grad


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows over their clipped norms, the norms, and where the clip is off."""
    squared = (x * x).sum(axis=-1, keepdims=True)
    live = squared > NORM_EPS
    norms = np.sqrt(np.maximum(squared, NORM_EPS))
    return x / norms, norms, live


def similarity(
    prediction: np.ndarray, target: np.ndarray, normalize: bool, scale: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Summed Eq. 11-14 row losses and ``scale`` times their gradients.

    Returns ``(loss_sum, d_prediction, d_target)``; with ``scale = 1/M``
    over all ``M`` rows of a step these are the gradients of the tape's
    row-mean :func:`repro.core.cross_view.similarity_loss`.
    """
    if not normalize:
        loss = -float(np.vdot(prediction, target))
        return loss, target * -scale, prediction * -scale
    unit_p, norm_p, live_p = _unit_rows(prediction)
    unit_t, norm_t, live_t = _unit_rows(target)
    inner = (unit_p * unit_t).sum(axis=-1, keepdims=True)
    loss = float(inner.size - inner.sum())
    # d(1 - <p̂, t̂>)/dp = (p̂ <p̂, t̂> - t̂) / |p|, without the projection
    # term where the norm is clipped (its gradient is zero there)
    d_prediction = unit_p * (inner * live_p) - unit_t
    d_prediction *= scale / norm_p
    d_target = unit_t * (inner * live_t) - unit_p
    d_target *= scale / norm_t
    return loss, d_prediction, d_target


def direction_step(
    forward: tuple[KernelLayer, ...],
    backward: tuple[KernelLayer, ...],
    a_src: np.ndarray,
    a_tgt: np.ndarray | None,
    *,
    normalize: bool,
    reconstruction: bool,
    scale: float,
) -> tuple[float, float, np.ndarray, np.ndarray | None]:
    """Forward and backward of Eqs. 11-14 for one micro-batch of chunks.

    ``forward`` translates source -> target, ``backward`` target ->
    source.  ``a_tgt`` is the gathered target chunks, or ``None`` when
    the translation task is off; ``reconstruction`` switches the
    reconstruction task.  Gradients of the step loss (the row-sum of both
    losses times ``scale``) land in the translators' ``.grad`` and in the
    returned ``d_src``/``d_tgt`` (``d_tgt`` is ``None`` without the
    translation task).  Returns ``(translation_sum, reconstruction_sum,
    d_src, d_tgt)`` with unscaled loss sums.
    """
    translated, forward_cache = translate(forward, a_src)
    t_sum = r_sum = 0.0
    d_translated = d_src = d_tgt = None
    if a_tgt is not None:
        t_sum, d_translated, d_tgt = similarity(
            translated, a_tgt, normalize, scale
        )
    if reconstruction:
        reconstructed, backward_cache = translate(backward, translated)
        r_sum, d_reconstructed, d_src = similarity(
            reconstructed, a_src, normalize, scale
        )
        del reconstructed
        through = translate_backward(backward, backward_cache, d_reconstructed)
        if d_translated is None:
            d_translated = through
        else:
            d_translated += through
        del through
    d_input = translate_backward(forward, forward_cache, d_translated)
    if d_src is None:
        d_src = d_input
    else:
        d_src += d_input
    return t_sum, r_sum, d_src, d_tgt

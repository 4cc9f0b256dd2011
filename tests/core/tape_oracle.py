"""The autograd-tape reference of one cross-view training step.

:class:`repro.core.cross_view.CrossViewTrainer` trains through the
closed-form kernel of :mod:`repro.core.translator_kernel`.  This module
keeps the step it replaced — the Eq. 11-14 losses recorded on the
:mod:`repro.autograd` tape and differentiated by ``Tensor.backward`` — as
the oracle the kernel is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.core.cross_view import similarity_loss
from repro.nn.optim import gradient_norm


def tape_gradients(
    forward,
    backward,
    a_src: np.ndarray,
    a_tgt: np.ndarray,
    *,
    normalize: bool = True,
    translation: bool = True,
    reconstruction: bool = True,
) -> tuple[float, float, np.ndarray | None, np.ndarray | None]:
    """Tape forward/backward of one step's Eq. 11-14 losses.

    ``forward``/``backward`` are translator modules (source->target and
    target->source).  Their parameter gradients are left in ``.grad``
    (callers zero them first); returns ``(translation loss,
    reconstruction loss, d a_src, d a_tgt)`` with row-mean losses and
    ``None`` for an input no enabled loss reaches.
    """
    src = Tensor(a_src, requires_grad=True)
    tgt = Tensor(a_tgt, requires_grad=True)
    translated = forward(src)
    losses = []
    t_value = r_value = 0.0
    if translation:
        t_loss = similarity_loss(translated, tgt, normalize)
        losses.append(t_loss)
        t_value = t_loss.item()
    if reconstruction:
        r_loss = similarity_loss(backward(translated), src, normalize)
        losses.append(r_loss)
        r_value = r_loss.item()
    total = losses[0]
    for extra in losses[1:]:
        total = total + extra
    total.backward()
    return t_value, r_value, src.grad, tgt.grad


def tape_train_step(
    trainer,
    chunks: np.ndarray,
    src_map: np.ndarray,
    tgt_map: np.ndarray,
    source_emb: np.ndarray,
    target_emb: np.ndarray,
    source_adam,
    target_adam,
    forward,
    backward,
) -> tuple[float, float]:
    """Drop-in for ``CrossViewTrainer._train_step`` on the tape.

    One graph over the whole chunk matrix, one translator Adam step, and
    one RowAdam update per side — the step the trainer took before the
    kernel, kept byte for byte in its effect on optimizer state.
    ``forward``/``backward`` arrive as the trainer's kernel layer tuples
    and are mapped back to their translator modules.
    """
    modules = {
        id(trainer._layers_ij): trainer.translator_ij,
        id(trainer._layers_ji): trainer.translator_ji,
    }
    src_rows = src_map[chunks]
    tgt_rows = tgt_map[chunks]
    trainer._translator_optim.zero_grad()
    t_value, r_value, d_src, d_tgt = tape_gradients(
        modules[id(forward)],
        modules[id(backward)],
        source_emb[src_rows],
        target_emb[tgt_rows],
        normalize=trainer.normalize,
        translation=trainer.use_translation,
        reconstruction=trainer.use_reconstruction,
    )
    if trainer.metrics.enabled:
        trainer.metrics.observe(
            f"cross_view/{trainer.pair_label}/{trainer._metric_scope}"
            "grad_norm/translators",
            gradient_norm(
                param.grad for param in trainer._translator_optim.parameters
            ),
        )
    trainer._translator_optim.step()
    dim = source_emb.shape[1]
    if d_src is not None:
        source_adam.update(src_rows.reshape(-1), d_src.reshape(-1, dim))
    if d_tgt is not None:
        target_adam.update(tgt_rows.reshape(-1), d_tgt.reshape(-1, dim))
    return t_value, r_value

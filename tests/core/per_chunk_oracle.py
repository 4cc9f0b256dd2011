"""The per-chunk reading of Algorithm 1's cross-view loop.

:class:`repro.core.cross_view.CrossViewTrainer` takes one optimizer step
per direction over all of its chunks — the minibatch reading of the
per-path steps (DESIGN.md §2).  This module keeps the paper's loop read
literally, one :meth:`~CrossViewTrainer._train_step` per chunk, as the
reference the batched trainer is compared against.
"""

from __future__ import annotations

import numpy as np

from repro.core.cross_view import CrossViewTrainer


def per_chunk_direction(
    trainer: CrossViewTrainer, chunks: np.ndarray, *step_args
) -> tuple[float, float, int]:
    """Drop-in for ``CrossViewTrainer._train_direction``: one step per
    chunk.  Returns summed (translation, reconstruction) losses and the
    chunk count, as the batched direction does."""
    t_sum = r_sum = 0.0
    for k in range(chunks.shape[0]):
        t, r = trainer._train_step(chunks[k:k + 1], *step_args)
        t_sum += t
        r_sum += r
    return t_sum, r_sum, chunks.shape[0]


def use_per_chunk(monkeypatch) -> None:
    """Train every cross-view direction one chunk at a time."""
    monkeypatch.setattr(
        CrossViewTrainer, "_train_direction", per_chunk_direction
    )

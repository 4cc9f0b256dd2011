"""Neural-network modules and optimizers built on :mod:`repro.autograd`.

The layer zoo is exactly what the paper needs:

- :class:`~repro.nn.modules.SelfAttentionLayer` — Equation (8):
  ``S(A) = softmax(A A^T / sqrt(d)) A``.
- :class:`~repro.nn.modules.FeedForwardLayer` — Equation (9):
  ``F(A) = relu(W A + b)`` with ``W`` of shape (path_len, path_len) and
  ``b`` of shape (path_len, 1), i.e. mixing along the *path* dimension.
- :class:`~repro.nn.modules.Encoder` — one self-attention layer followed by
  one feed-forward layer.
- :class:`~repro.nn.modules.Linear` — a conventional dense layer used by
  the R-GCN baseline and the simple-translator ablation.

plus :class:`~repro.nn.optim.SGD` and :class:`~repro.nn.optim.Adam`
(Kingma & Ba, the optimizer Algorithm 1 prescribes) and their sparse
counterparts :class:`~repro.nn.optim.RowSGD` /
:class:`~repro.nn.optim.RowAdam` for per-row embedding-matrix updates,
which share the :func:`~repro.nn.optim.segment_sum` kernel.
"""

from repro.nn.modules import (
    Encoder,
    FeedForwardLayer,
    Linear,
    Module,
    SelfAttentionLayer,
    Sequential,
)
from repro.nn.optim import (
    SGD,
    Adam,
    Optimizer,
    RowAdam,
    RowOptimizer,
    RowSGD,
    gradient_norm,
    make_row_optimizer,
    segment_sum,
)

__all__ = [
    "Module",
    "Linear",
    "SelfAttentionLayer",
    "FeedForwardLayer",
    "Encoder",
    "Sequential",
    "Optimizer",
    "SGD",
    "Adam",
    "RowOptimizer",
    "RowSGD",
    "RowAdam",
    "gradient_norm",
    "make_row_optimizer",
    "segment_sum",
]

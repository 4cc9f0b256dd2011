"""Vectorized skip-gram-with-negative-sampling trainer.

Owns (or borrows) an input embedding matrix ``W_in`` (the view-specific
node embeddings of Equation 3) and an auxiliary output matrix ``W_out``
(context embeddings).  Gradients are the closed-form SGNS gradients, so no
autograd tape is involved — this is the hot loop of the whole framework.

For a batch of (center c, context o) pairs with negatives ``k_1..k_m``:

    L = -log sigma(w_o . w_c) - sum_j log sigma(-w_{k_j} . w_c)

Updates go through the shared sparse row optimizers of
:mod:`repro.nn.optim`.  The default :class:`~repro.nn.optim.RowSGD` gives
a node occurring several times within a batch the *mean* of its
per-occurrence gradients, not the sum: on small graphs a node can appear
dozens of times per batch; summing would multiply the effective learning
rate by that count and demonstrably diverges, while the mean matches the
sequential word2vec update in expectation.  ``optimizer="adam"`` swaps in
:class:`~repro.nn.optim.RowAdam` for both matrices.  Each step sums the
repeated rows of both matrices with one
:func:`~repro.nn.optim.segment_sum` call and hands each matrix's share
to its optimizer's ``apply``.
"""

from __future__ import annotations

import numpy as np

from repro.engine.observability import NULL_REGISTRY, MetricsRegistry
from repro.nn.optim import gradient_norm, make_row_optimizer, segment_sum


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument never overflows; both branches are
    # computed everywhere, so no boolean gathers or scatters
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class SkipGramTrainer:
    """SGNS over a pair of embedding matrices.

    Args:
        embeddings: input embedding matrix of shape (num_nodes, dim);
            updated *in place* so callers can share it (TransN's
            view-specific embeddings are also touched by the cross-view
            algorithm).
        rng: generator used for initialization of the output matrix.
        optimizer: ``"sgd"`` (default, the classic word2vec update) or
            ``"adam"`` — resolved through
            :func:`repro.nn.optim.make_row_optimizer` for both the input
            and the output matrix.
        optimizer_lr: base learning rate stored on the row optimizers;
            the per-call ``lr`` of :meth:`train_batch` overrides it, so
            this matters mainly for Adam's scale.
    """

    def __init__(
        self,
        embeddings: np.ndarray,
        rng: np.random.Generator | None = None,
        optimizer: str = "sgd",
        optimizer_lr: float = 0.025,
    ) -> None:
        if embeddings.ndim != 2:
            raise ValueError("embeddings must be 2-D (num_nodes, dim)")
        self.embeddings = embeddings
        self.num_nodes, self.dim = embeddings.shape
        # word2vec initializes the output (context) matrix to zeros
        self.context = np.zeros_like(embeddings)
        self.input_optimizer = make_row_optimizer(
            optimizer, self.embeddings, lr=optimizer_lr
        )
        self.context_optimizer = make_row_optimizer(
            optimizer, self.context, lr=optimizer_lr
        )
        # observability: no-op unless a caller binds a live registry (see
        # SingleViewTrainer.bind_metrics); metric_prefix namespaces the
        # emitted keys per view
        self.metrics: MetricsRegistry = NULL_REGISTRY
        self.metric_prefix = ""

    def train_batch(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        negatives: np.ndarray,
        lr: float,
    ) -> float:
        """One SGD step on a batch of pairs; returns the mean batch loss.

        Args:
            centers: int array (B,) of center-node indices.
            contexts: int array (B,) of positive context indices.
            negatives: int array (B, m) of negative indices.
            lr: SGD learning rate.
        """
        centers = np.asarray(centers)
        contexts = np.asarray(contexts)
        negatives = np.asarray(negatives)
        if centers.shape != contexts.shape or centers.ndim != 1:
            raise ValueError("centers and contexts must be matching 1-D arrays")
        if negatives.ndim != 2 or negatives.shape[0] != centers.shape[0]:
            raise ValueError("negatives must be (batch, num_negatives)")

        w_c = self.embeddings[centers]  # (B, d)
        w_o = self.context[contexts]  # (B, d)
        w_n = self.context[negatives]  # (B, m, d)

        pos_score = np.einsum("bd,bd->b", w_c, w_o)
        neg_score = np.einsum("bd,bmd->bm", w_c, w_n)

        pos_sig = _sigmoid(pos_score)
        neg_sig = _sigmoid(neg_score)

        # dL/d(pos_score) = pos_sig - 1 ; dL/d(neg_score) = neg_sig
        g_pos = pos_sig - 1.0  # (B,)
        g_neg = neg_sig  # (B, m)

        # One gradient row per occurrence, all in one buffer: the B
        # context rows and the B*m negative rows of self.context, then the
        # B center rows of self.embeddings, keyed num_nodes higher.  One
        # segment_sum covers both matrices: a node playing context and
        # negative moves once, and the offset keeps the matrices apart
        # without reordering any row's occurrences, so every sum adds the
        # same terms in the same order as two separate calls would.
        batch = centers.size
        split = batch + negatives.size
        rows = np.empty(split + batch, dtype=np.int64)
        rows[:batch] = contexts
        rows[batch:split] = negatives.reshape(-1)
        rows[split:] = centers
        rows[split:] += self.num_nodes
        grads = np.empty((rows.size, self.dim), dtype=w_c.dtype)
        np.multiply(g_pos[:, None], w_c, out=grads[:batch])
        np.multiply(
            g_neg[..., None],
            w_c[:, None, :],
            out=grads[batch:split].reshape(negatives.shape + (self.dim,)),
        )
        grad_center = grads[split:]
        np.multiply(g_pos[:, None], w_o, out=grad_center)
        grad_center += np.einsum("bm,bmd->bd", g_neg, w_n)

        unique, sums, counts = segment_sum(rows, grads)
        cut = np.searchsorted(unique, self.num_nodes)
        self.context_optimizer.apply(
            unique[:cut], sums[:cut], counts[:cut], lr=lr
        )
        self.input_optimizer.apply(
            unique[cut:] - self.num_nodes, sums[cut:], counts[cut:], lr=lr
        )

        eps = 1e-12
        loss = -np.log(pos_sig + eps) - np.log(1.0 - neg_sig + eps).sum(axis=1)
        if self.metrics.enabled:
            prefix = self.metric_prefix
            self.metrics.observe(
                f"{prefix}grad_norm/input", gradient_norm([grad_center])
            )
            drawn = negatives.size
            self.metrics.counter(f"{prefix}negatives/drawn", drawn)
            distinct = np.count_nonzero(np.bincount(negatives.ravel()))
            self.metrics.observe(
                f"{prefix}negatives/unique_frac",
                distinct / drawn if drawn else 0.0,
            )
        # sum / size: the bits of mean() without its overhead
        return float(loss.sum() / loss.size)

    # -- checkpoint protocol -------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of the trainer-owned state: the output (context)
        matrix and both row-optimizer states.  The *input* embedding
        matrix is deliberately excluded — it is borrowed from the caller
        (TransN's view embeddings are shared with the cross-view
        trainer), who saves it exactly once."""
        return {
            "context": self.context.copy(),
            "input_optimizer": self.input_optimizer.state_dict(),
            "context_optimizer": self.context_optimizer.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        if state["context"].shape != self.context.shape:
            raise ValueError(
                f"context matrix shape {state['context'].shape} does not "
                f"match trainer shape {self.context.shape}"
            )
        self.context[:] = state["context"]
        self.input_optimizer.load_state_dict(state["input_optimizer"])
        self.context_optimizer.load_state_dict(state["context_optimizer"])

    def loss_batch(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        negatives: np.ndarray,
    ) -> float:
        """The mean batch loss without updating any parameters."""
        w_c = self.embeddings[np.asarray(centers, dtype=np.int64)]
        w_o = self.context[np.asarray(contexts, dtype=np.int64)]
        w_n = self.context[np.asarray(negatives, dtype=np.int64)]
        pos = _sigmoid(np.einsum("bd,bd->b", w_c, w_o))
        neg = _sigmoid(np.einsum("bd,bmd->bm", w_c, w_n))
        eps = 1e-12
        loss = -np.log(pos + eps) - np.log(1.0 - neg + eps).sum(axis=1)
        return float(loss.mean())

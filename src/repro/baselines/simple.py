"""SimplE (Kazemi & Poole 2018): fully-expressive CP-style KG embedding.

Every entity e has a head vector ``h_e`` and a tail vector ``t_e``; every
relation r has a forward vector ``v_r`` and an inverse vector ``v_r'``.
A triple (u, r, v) is scored by

    s(u, r, v) = 1/2 ( <h_u, v_r, t_v> + <h_v, v_r', t_u> )

and trained with logistic loss over observed edges vs corrupted negatives.
Per the paper's protocol edge weights are ignored.  The node embedding
reported downstream is the concatenation ``[h_e ; t_e]`` with each half of
size ``dim // 2`` — SimplE's representation of an entity *is* the pair, and
concatenating keeps the output dimensionality equal to every other
method's.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.engine import CallablePhase
from repro.graph.heterograph import HeteroGraph

from repro.baselines.base import EmbeddingMethod, Embeddings
from repro.baselines.hin2vec import _logistic_loss, _mean_update, _sigmoid
from repro.nn.optim import check_lr


class SimplE(EmbeddingMethod):
    """SimplE with logistic loss and uniform negative corruption."""

    name = "SimplE"

    def __init__(
        self,
        dim: int = 32,
        seed: int = 0,
        epochs: int = 150,
        lr: float = 0.1,
        num_negatives: int = 2,
        batch_size: int = 512,
        l2: float = 1e-5,
        report: str | Path | None = None,
        trace_memory: bool = False,
    ) -> None:
        super().__init__(
            dim=dim, seed=seed, report=report, trace_memory=trace_memory
        )
        if dim % 2:
            raise ValueError("SimplE needs an even dim (head/tail halves)")
        self.half_dim = dim // 2
        self.epochs = epochs
        self.lr = check_lr(lr)
        self.num_negatives = num_negatives
        self.batch_size = batch_size
        self.l2 = l2

    def fit(self, graph: HeteroGraph) -> Embeddings:
        rng = self._rng()
        n = graph.num_nodes
        edge_types = sorted(graph.edge_types)
        rel_index = {t: i for i, t in enumerate(edge_types)}

        scale = 6.0 / np.sqrt(self.half_dim)
        head = rng.uniform(-scale, scale, size=(n, self.half_dim))
        tail = rng.uniform(-scale, scale, size=(n, self.half_dim))
        rel_fwd = rng.uniform(
            -scale, scale, size=(len(edge_types), self.half_dim)
        )
        rel_inv = rng.uniform(
            -scale, scale, size=(len(edge_types), self.half_dim)
        )

        edges = graph.edges
        us = np.array([graph.index_of(e.u) for e in edges], dtype=np.int64)
        vs = np.array([graph.index_of(e.v) for e in edges], dtype=np.int64)
        rs = np.array([rel_index[e.edge_type] for e in edges], dtype=np.int64)

        def train_epoch(loop, epoch: int) -> float | None:
            order = rng.permutation(len(edges))
            total, scored = 0.0, 0
            for start in range(0, len(edges), self.batch_size):
                pick = order[start : start + self.batch_size]
                b = pick.size
                batches = [(us[pick], vs[pick], rs[pick], np.ones(b))]
                for _ in range(self.num_negatives):
                    corrupt_tail = rng.random(b) < 0.5
                    nu = np.where(
                        corrupt_tail, us[pick], rng.integers(n, size=b)
                    )
                    nv = np.where(
                        corrupt_tail, rng.integers(n, size=b), vs[pick]
                    )
                    batches.append((nu, nv, rs[pick], np.zeros(b)))
                for bu, bv, br, target in batches:
                    total += self._step(
                        head, tail, rel_fwd, rel_inv, bu, bv, br, target
                    )
                    scored += target.size
            self.metrics.counter("simple/triples_seen", scored)
            return total / scored if scored else None

        self._run_loop([CallablePhase("simple", train_epoch)], self.epochs)
        final = np.hstack([head, tail])
        return self._as_dict(graph, final)

    def _step(
        self,
        head: np.ndarray,
        tail: np.ndarray,
        rel_fwd: np.ndarray,
        rel_inv: np.ndarray,
        us: np.ndarray,
        vs: np.ndarray,
        rs: np.ndarray,
        target: np.ndarray,
    ) -> float:
        """One logistic-loss SGD step; returns the batch's summed loss."""
        hu, tv = head[us], tail[vs]
        hv, tu = head[vs], tail[us]
        vr, vr_inv = rel_fwd[rs], rel_inv[rs]

        score = 0.5 * (
            np.einsum("bd,bd,bd->b", hu, vr, tv)
            + np.einsum("bd,bd,bd->b", hv, vr_inv, tu)
        )
        prob = _sigmoid(score)
        dscore = 0.5 * (prob - target)[:, None]

        grad_hu = dscore * vr * tv + self.l2 * hu
        grad_tv = dscore * vr * hu + self.l2 * tv
        grad_hv = dscore * vr_inv * tu + self.l2 * hv
        grad_tu = dscore * vr_inv * hv + self.l2 * tu
        grad_vr = dscore * hu * tv + self.l2 * vr
        grad_vr_inv = dscore * hv * tu + self.l2 * vr_inv

        _mean_update(head, np.concatenate([us, vs]),
                     np.concatenate([grad_hu, grad_hv]), self.lr)
        _mean_update(tail, np.concatenate([vs, us]),
                     np.concatenate([grad_tv, grad_tu]), self.lr)
        _mean_update(rel_fwd, rs, grad_vr, self.lr)
        _mean_update(rel_inv, rs, grad_vr_inv, self.lr)
        return _logistic_loss(prob, target)

"""R-GCN (Schlichtkrull et al. 2017) with a DistMult decoder.

Two relational graph-convolution layers over learnable entity features:

    H^{l+1} = act( sum_r  A_r H^l W_r^l  +  H^l W_0^l )

with A_r the row-normalized adjacency of relation (edge type) r.  Trained
unsupervised for link reconstruction: DistMult scores
``s(u, r, v) = <h_u, diag(m_r), h_v>`` on observed edges vs corrupted
negatives, with binary cross-entropy.  Per the paper's protocol, edge
weights are ignored (unit weights).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.autograd import Tensor, sigmoid
from repro.engine import CallablePhase
from repro.graph.heterograph import HeteroGraph
from repro.nn import Adam, Linear, Module
from repro.nn.optim import check_lr

from repro.baselines.base import EmbeddingMethod, Embeddings


class _RGCNLayer(Module):
    """One relational graph-convolution layer."""

    def __init__(
        self,
        adjacencies: list[Tensor],
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
    ) -> None:
        self.adjacencies = adjacencies
        self.relation_linears = [
            Linear(in_dim, out_dim, bias=False, rng=rng) for _ in adjacencies
        ]
        self.self_linear = Linear(in_dim, out_dim, bias=False, rng=rng)

    def forward(self, h: Tensor) -> Tensor:
        out = self.self_linear(h)
        for adjacency, linear in zip(self.adjacencies, self.relation_linears):
            out = out + adjacency @ linear(h)
        return out


class RGCN(EmbeddingMethod):
    """Two-layer R-GCN encoder + DistMult edge-reconstruction decoder."""

    name = "R-GCN"

    def __init__(
        self,
        dim: int = 32,
        seed: int = 0,
        hidden_dim: int | None = None,
        epochs: int = 60,
        lr: float = 0.01,
        num_negatives: int = 2,
        edges_per_epoch: int = 512,
        report: str | Path | None = None,
        trace_memory: bool = False,
    ) -> None:
        super().__init__(
            dim=dim, seed=seed, report=report, trace_memory=trace_memory
        )
        self.hidden_dim = hidden_dim or dim
        self.epochs = epochs
        self.lr = check_lr(lr)
        self.num_negatives = num_negatives
        self.edges_per_epoch = edges_per_epoch

    @staticmethod
    def _normalized_adjacency(
        graph: HeteroGraph, edge_type: str
    ) -> np.ndarray:
        n = graph.num_nodes
        a = np.zeros((n, n))
        for edge in graph.edges_of_type(edge_type):
            i, j = graph.index_of(edge.u), graph.index_of(edge.v)
            a[i, j] += 1.0  # unit weights: R-GCN ignores weights
            a[j, i] += 1.0
        row_sums = a.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0] = 1.0
        return a / row_sums

    def fit(self, graph: HeteroGraph) -> Embeddings:
        rng = self._rng()
        edge_types = sorted(graph.edge_types)
        adjacencies = [
            Tensor(self._normalized_adjacency(graph, t)) for t in edge_types
        ]
        n = graph.num_nodes

        features = Tensor(
            rng.normal(0.0, 0.1, size=(n, self.dim)), requires_grad=True
        )
        layer1 = _RGCNLayer(adjacencies, self.dim, self.hidden_dim, rng)
        layer2 = _RGCNLayer(adjacencies, self.hidden_dim, self.dim, rng)
        relation_diag = Tensor(
            rng.normal(0.0, 0.1, size=(len(edge_types), self.dim)),
            requires_grad=True,
        )
        params = (
            [features, relation_diag]
            + list(layer1.parameters())
            + list(layer2.parameters())
        )
        optimizer = Adam(params, lr=self.lr)

        rel_index = {t: i for i, t in enumerate(edge_types)}
        edges = graph.edges
        heads = np.array([graph.index_of(e.u) for e in edges], dtype=np.int64)
        tails = np.array([graph.index_of(e.v) for e in edges], dtype=np.int64)
        rels = np.array([rel_index[e.edge_type] for e in edges], dtype=np.int64)

        final: np.ndarray | None = None

        def train_epoch(loop, epoch: int) -> float:
            nonlocal final
            h = layer2(layer1(features).relu())
            batch = min(self.edges_per_epoch, len(edges))
            pick = rng.choice(len(edges), size=batch, replace=False)
            pos_h, pos_t, pos_r = heads[pick], tails[pick], rels[pick]
            # negatives: corrupt the tail uniformly
            neg_t = rng.integers(n, size=batch * self.num_negatives)
            neg_h = np.repeat(pos_h, self.num_negatives)
            neg_r = np.repeat(pos_r, self.num_negatives)

            all_h = np.concatenate([pos_h, neg_h])
            all_t = np.concatenate([pos_t, neg_t])
            all_r = np.concatenate([pos_r, neg_r])
            targets = np.concatenate(
                [np.ones(batch), np.zeros(batch * self.num_negatives)]
            )

            hu = h.take_rows(all_h)
            hv = h.take_rows(all_t)
            mr = relation_diag.take_rows(all_r)
            scores = (hu * mr * hv).sum(axis=-1)
            probs = sigmoid(scores)
            eps = 1e-7
            t = Tensor(targets)
            loss = -(
                t * (probs.clip_min(eps)).log()
                + (1.0 - t) * ((1.0 - probs).clip_min(eps)).log()
            ).mean()

            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            final = h.data
            self.metrics.counter("rgcn/edges_sampled", batch)
            return loss.item()

        self._run_loop([CallablePhase("rgcn", train_epoch)], self.epochs)
        assert final is not None
        return self._as_dict(graph, final)

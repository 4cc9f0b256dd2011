"""HIN2Vec (Fu et al. 2017), core model.

HIN2Vec casts embedding learning as binary classification: does node pair
(x, y) carry relation r?  Here r is the sequence of *edge types* connecting
x to y along a sampled walk (all meta-paths up to a maximum hop count are
enumerated from the data — the paper's point that HIN2Vec needs only a
length bound, not a hand-picked metapath).  The score is

    P(r | x, y) = sigmoid( sum_d  x_d * y_d * f(r_d) ),   f = sigmoid,

where f keeps the relation vector in (0, 1) (the paper's binary-step
regularization, in its differentiable form).  Positive pairs come from
walks; negatives corrupt y with a random node of the same type.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.engine import CallablePhase
from repro.graph.heterograph import HeteroGraph, NodeId

from repro.baselines.base import EmbeddingMethod, Embeddings
from repro.nn.optim import RowSGD, segment_sum


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    ex = np.exp(x[~positive])
    out[~positive] = ex / (1.0 + ex)
    return out


class HIN2Vec(EmbeddingMethod):
    """Node + relation embeddings trained by pair classification."""

    name = "HIN2VEC"

    def __init__(
        self,
        dim: int = 32,
        seed: int = 0,
        max_hops: int = 2,
        walk_length: int = 20,
        walks_per_node: int = 6,
        num_negatives: int = 4,
        epochs: int = 4,
        lr: float = 0.08,
        batch_size: int = 256,
        report: str | Path | None = None,
        trace_memory: bool = False,
    ) -> None:
        super().__init__(
            dim=dim, seed=seed, report=report, trace_memory=trace_memory
        )
        if max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.max_hops = max_hops
        self.walk_length = walk_length
        self.walks_per_node = walks_per_node
        self.num_negatives = num_negatives
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size
        self.relation_vocabulary: dict[tuple[str, ...], int] = {}

    # ------------------------------------------------------------------
    def _typed_walk(
        self, graph: HeteroGraph, start: NodeId, rng: np.random.Generator
    ) -> tuple[list[int], list[str]]:
        """A uniform walk that also records the edge types it traverses."""
        nodes = [graph.index_of(start)]
        types: list[str] = []
        current = start
        for _ in range(self.walk_length - 1):
            incident = graph.incident(current)
            if not incident:
                break
            nbr, _, edge_type = incident[int(rng.integers(len(incident)))]
            nodes.append(graph.index_of(nbr))
            types.append(edge_type)
            current = nbr
        return nodes, types

    def _collect_pairs(
        self, graph: HeteroGraph, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, y, relation_id) triples from fresh walks."""
        xs: list[int] = []
        ys: list[int] = []
        rels: list[int] = []
        for node in graph.nodes:
            if graph.degree(node) == 0:
                continue
            for _ in range(self.walks_per_node):
                nodes, types = self._typed_walk(graph, node, rng)
                for i in range(len(nodes)):
                    for hops in range(1, self.max_hops + 1):
                        j = i + hops
                        if j >= len(nodes):
                            break
                        relation = tuple(types[i:j])
                        rel_id = self.relation_vocabulary.setdefault(
                            relation, len(self.relation_vocabulary)
                        )
                        xs.append(nodes[i])
                        ys.append(nodes[j])
                        rels.append(rel_id)
        return (
            np.asarray(xs, dtype=np.int64),
            np.asarray(ys, dtype=np.int64),
            np.asarray(rels, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    def fit(self, graph: HeteroGraph) -> Embeddings:
        rng = self._rng()
        nodes_by_type = {
            t: np.array([graph.index_of(n) for n in graph.nodes_of_type(t)])
            for t in graph.node_types
        }
        type_of_index = np.array(
            [graph.node_type(n) for n in graph.nodes], dtype=object
        )

        node_emb = self._init_matrix(graph.num_nodes, rng)
        relation_emb: np.ndarray | None = None

        def train_epoch(loop, epoch: int) -> float | None:
            nonlocal relation_emb
            xs, ys, rels = self._collect_pairs(graph, rng)
            if xs.size == 0:
                return None  # no walk took a step, so nothing was drawn
            if relation_emb is None or relation_emb.shape[0] < len(
                self.relation_vocabulary
            ):
                new = self._init_matrix(len(self.relation_vocabulary), rng)
                if relation_emb is not None:
                    new[: relation_emb.shape[0]] = relation_emb
                relation_emb = new
            order = rng.permutation(xs.size)
            xs, ys, rels = xs[order], ys[order], rels[order]
            total = 0.0
            for start in range(0, xs.size, self.batch_size):
                end = min(start + self.batch_size, xs.size)
                total += self._train_batch(
                    node_emb,
                    relation_emb,
                    xs[start:end],
                    ys[start:end],
                    rels[start:end],
                    nodes_by_type,
                    type_of_index,
                    rng,
                )
            if self.metrics.enabled:
                self.metrics.counter("hin2vec/pairs", xs.size)
                self.metrics.gauge(
                    "hin2vec/relation_vocabulary",
                    len(self.relation_vocabulary),
                )
            return total / (xs.size * (1 + self.num_negatives))

        self._run_loop([CallablePhase("hin2vec", train_epoch)], self.epochs)
        return self._as_dict(graph, node_emb)

    def _train_batch(
        self,
        node_emb: np.ndarray,
        relation_emb: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        rels: np.ndarray,
        nodes_by_type: dict[str, np.ndarray],
        type_of_index: np.ndarray,
        rng: np.random.Generator,
    ) -> float:
        """One positive pass plus ``num_negatives`` corrupted passes;
        returns their summed logistic loss."""
        batches = [(xs, ys, rels, 1.0)]
        for _ in range(self.num_negatives):
            corrupted = np.array(
                [
                    nodes_by_type[type_of_index[y]][
                        int(rng.integers(nodes_by_type[type_of_index[y]].size))
                    ]
                    for y in ys
                ],
                dtype=np.int64,
            )
            batches.append((xs, corrupted, rels, 0.0))
        total = 0.0
        for bx, by, br, target in batches:
            wx = node_emb[bx]
            wy = node_emb[by]
            wr = relation_emb[br]
            fr = _sigmoid(wr)
            score = np.einsum("bd,bd,bd->b", wx, wy, fr)
            prob = _sigmoid(score)
            dscore = (prob - target)[:, None]  # (B, 1)
            grad_x = dscore * wy * fr
            grad_y = dscore * wx * fr
            grad_r = dscore * wx * wy * fr * (1.0 - fr)
            _mean_update(node_emb, bx, grad_x, self.lr)
            _mean_update(node_emb, by, grad_y, self.lr)
            _mean_update(relation_emb, br, grad_r, self.lr)
            total += _logistic_loss(prob, target)
        return total


def _logistic_loss(prob: np.ndarray, target: np.ndarray | float) -> float:
    """Summed binary cross-entropy of ``prob`` against 0/1 ``target``,
    with R-GCN's ``1e-7`` floor inside the logs."""
    p_true = np.where(target > 0.5, prob, 1.0 - prob)
    return float(-np.log(np.maximum(p_true, 1e-7)).sum())


def _mean_update(
    matrix: np.ndarray, rows: np.ndarray, grads: np.ndarray, lr: float
) -> None:
    """RowSGD's mean update, accumulated in float64 whatever the
    matrix dtype."""
    RowSGD(matrix, lr).apply(
        *segment_sum(rows, np.asarray(grads, dtype=np.float64))
    )

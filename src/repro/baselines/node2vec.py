"""Node2Vec (Grover & Leskovec 2016): p/q-biased walks + skip-gram."""

from __future__ import annotations

from pathlib import Path

from repro.engine import SkipGramPhase
from repro.graph.heterograph import HeteroGraph
from repro.skipgram import SkipGramTrainer
from repro.walks import Node2VecPolicy

from repro.baselines.base import EmbeddingMethod, Embeddings


class Node2Vec(EmbeddingMethod):
    """Second-order biased walks (return p, in-out q) fed to SGNS.

    Walks run on the lockstep engine via
    :class:`repro.walks.Node2VecPolicy` — the whole corpus advances per
    vectorized step instead of one scalar alias draw per node.
    """

    name = "Node2Vec"

    def __init__(
        self,
        dim: int = 32,
        seed: int = 0,
        p: float = 1.0,
        q: float = 0.5,
        walk_length: int = 20,
        walks_per_node: int = 6,
        window: int = 3,
        num_negatives: int = 5,
        epochs: int = 4,
        lr: float = 0.08,
        batch_size: int = 128,
        report: str | Path | None = None,
        trace_memory: bool = False,
    ) -> None:
        super().__init__(
            dim=dim, seed=seed, report=report, trace_memory=trace_memory
        )
        self.p = p
        self.q = q
        self.walk_length = walk_length
        self.walks_per_node = walks_per_node
        self.window = window
        self.num_negatives = num_negatives
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size

    def fit(self, graph: HeteroGraph) -> Embeddings:
        rng = self._rng()
        matrix = self._init_matrix(graph.num_nodes, rng)
        trainer = SkipGramTrainer(matrix, rng=rng)
        pipeline = self._walk_pipeline(graph, Node2VecPolicy(p=self.p, q=self.q), rng)
        self._run_loop(
            [SkipGramPhase("sgns", pipeline, trainer, lr=self.lr)],
            self.epochs,
        )
        return self._as_dict(graph, matrix)

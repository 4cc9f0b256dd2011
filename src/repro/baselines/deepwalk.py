"""DeepWalk (Perozzi et al. 2014): uniform walks + skip-gram."""

from __future__ import annotations

from pathlib import Path

from repro.engine import SkipGramPhase
from repro.graph.heterograph import HeteroGraph
from repro.skipgram import SkipGramTrainer
from repro.walks import UniformPolicy

from repro.baselines.base import EmbeddingMethod, Embeddings


class DeepWalk(EmbeddingMethod):
    """Type-blind uniform random walks fed to SGNS.

    Args:
        dim: embedding dimensionality.
        walk_length: nodes per walk.
        walks_per_node: walks started at every node.
        window: skip-gram context window.
        num_negatives: negatives per pair.
        epochs: passes over freshly sampled corpora.
        lr: SGD learning rate.
    """

    name = "DeepWalk"

    def __init__(
        self,
        dim: int = 32,
        seed: int = 0,
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
        pipeline = self._walk_pipeline(graph, UniformPolicy(), rng)
        self._run_loop(
            [SkipGramPhase("sgns", pipeline, trainer, lr=self.lr)],
            self.epochs,
        )
        return self._as_dict(graph, matrix)

"""LINE with second-order proximity (Tang et al. 2015).

Edge sampling: edges are drawn with probability proportional to weight
(alias table); for a drawn edge (u, v), u's vertex embedding and v's
*context* embedding are pushed together against negative contexts drawn
from the degree^0.75 distribution — exactly the SGNS update, with edges
in place of walk pairs.  The draw→batch→update chain runs through the
engine's :class:`~repro.engine.EdgeSamplingPipeline`.
"""

from __future__ import annotations

from pathlib import Path

from repro.engine import EdgeSamplingPipeline, SkipGramPhase
from repro.graph.heterograph import HeteroGraph
from repro.skipgram import SkipGramTrainer

from repro.baselines.base import EmbeddingMethod, Embeddings


class LINE(EmbeddingMethod):
    """LINE (2nd order).  Types are ignored; weights are respected."""

    name = "LINE"

    def __init__(
        self,
        dim: int = 32,
        seed: int = 0,
        num_samples: int = 200_000,
        num_negatives: int = 5,
        lr: float = 0.15,
        batch_size: int = 256,
        report: str | Path | None = None,
        trace_memory: bool = False,
    ) -> None:
        super().__init__(
            dim=dim, seed=seed, report=report, trace_memory=trace_memory
        )
        self.num_samples = num_samples
        self.num_negatives = num_negatives
        self.lr = lr
        self.batch_size = batch_size

    def fit(self, graph: HeteroGraph) -> Embeddings:
        if graph.num_edges == 0:
            raise ValueError("LINE needs at least one edge")
        rng = self._rng()
        matrix = self._init_matrix(graph.num_nodes, rng)
        trainer = SkipGramTrainer(matrix, rng=rng)
        pipeline = EdgeSamplingPipeline(
            graph,
            num_samples=self.num_samples,
            num_negatives=self.num_negatives,
            batch_size=self.batch_size,
            rng=rng,
        )
        # one epoch streams all num_samples edge draws
        self._run_loop(
            [SkipGramPhase("edges", pipeline, trainer, lr=self.lr)], 1
        )
        return self._as_dict(graph, matrix)

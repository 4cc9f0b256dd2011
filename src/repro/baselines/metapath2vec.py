"""Metapath2Vec (Dong et al. 2017): metapath-guided walks + skip-gram.

The caller supplies the metapath (the paper uses "APVPA" on AMiner, "UTU"
on BLOG, "UAKAU" on the app-store networks); nodes whose type never
appears on the metapath cannot be visited and receive zero vectors, which
is the behaviour of the original implementation followed by gap-filling.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.engine import SkipGramPhase
from repro.graph.heterograph import HeteroGraph
from repro.skipgram import SkipGramTrainer
from repro.walks import MetapathPolicy
from repro.walks.corpus import WalkCorpus

from repro.baselines.base import EmbeddingMethod, Embeddings


class Metapath2Vec(EmbeddingMethod):
    """Metapath-constrained walks fed to SGNS.

    Walks run on the lockstep engine via
    :class:`repro.walks.MetapathPolicy`; the policy's start restriction
    limits walk starts to nodes of the metapath's first type.
    """

    name = "Metapath2Vec"

    def __init__(
        self,
        metapath: list[str],
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
        self.metapath = list(metapath)
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
        policy = MetapathPolicy(self.metapath).bind(graph)
        starts = policy.start_indices()
        if starts is None or starts.size == 0:
            raise ValueError(
                f"no nodes of type {self.metapath[0]!r} to start walks from"
            )
        visited = np.zeros(graph.num_nodes, dtype=bool)

        def keep_moving(block: WalkCorpus) -> WalkCorpus:
            # walks that never left their start node carry no pairs and
            # do not count a node as embedded
            keep = block.lengths >= 2
            matrix, lengths = block.matrix[keep], block.lengths[keep]
            for row, n in zip(matrix, lengths):
                visited[row[: int(n)]] = True
            return WalkCorpus(matrix, lengths, self.walk_length, graph)

        pipeline = self._walk_pipeline(graph, policy, rng, keep=keep_moving)
        self._run_loop(
            [SkipGramPhase("sgns", pipeline, trainer, lr=self.lr)],
            self.epochs,
        )
        # zero out never-visited nodes: the metapath cannot embed them
        matrix[~visited] = 0.0
        return self._as_dict(graph, matrix)

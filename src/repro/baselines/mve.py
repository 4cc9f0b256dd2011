"""MVE (Qu et al. 2017), unsupervised equal-weight variant.

MVE learns one embedding per node per view with skip-gram, plus a robust
*consensus* embedding; view-specific embeddings are regularized toward the
consensus.  The supervised attention over views is replaced — as the paper
prescribes for fair comparison — by equal view weights, making the
consensus the plain average.  Views are separated by edge type (the same
separation TransN uses) so MVE can run on multi-node-type networks here;
its published form assumes a single node type, which is the limitation
Section I discusses.

Each view is one :class:`~repro.engine.SkipGramPhase` and the consensus
pull a trailing :class:`~repro.engine.CallablePhase` of the same engine
loop, so MVE's per-view losses and timings are observable like any other
method's.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.engine import CallablePhase, Phase, SkipGramPhase
from repro.graph.heterograph import HeteroGraph
from repro.graph.views import separate_views
from repro.skipgram import SkipGramTrainer
from repro.walks import UniformPolicy

from repro.baselines.base import EmbeddingMethod, Embeddings


class MVE(EmbeddingMethod):
    """Multi-view embedding with consensus regularization."""

    name = "MVE"

    def __init__(
        self,
        dim: int = 32,
        seed: int = 0,
        walk_length: int = 20,
        walks_per_node: int = 6,
        window: int = 2,
        num_negatives: int = 5,
        epochs: int = 4,
        lr: float = 0.08,
        consensus_pull: float = 0.2,
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
        self.consensus_pull = consensus_pull
        self.batch_size = batch_size

    def fit(self, graph: HeteroGraph) -> Embeddings:
        rng = self._rng()
        views = separate_views(graph)
        view_emb = {
            v.edge_type: self._init_matrix(v.num_nodes, rng) for v in views
        }
        trainers = {
            v.edge_type: SkipGramTrainer(view_emb[v.edge_type], rng=rng)
            for v in views
        }

        consensus = np.zeros((graph.num_nodes, self.dim))
        counts = np.zeros(graph.num_nodes)
        for view in views:
            for node in view.graph.nodes:
                counts[graph.index_of(node)] += 1

        def consensus_step(loop, epoch) -> dict[str, float]:
            # consensus = equal-weight average of view embeddings
            consensus[:] = 0.0
            for view in views:
                matrix = view_emb[view.edge_type]
                for node in view.graph.nodes:
                    consensus[graph.index_of(node)] += matrix[
                        view.graph.index_of(node)
                    ]
            nonzero = counts > 0
            consensus[nonzero] /= counts[nonzero, None]
            # pull every view embedding toward the consensus
            shift = 0.0
            for view in views:
                matrix = view_emb[view.edge_type]
                for node in view.graph.nodes:
                    i = view.graph.index_of(node)
                    g = graph.index_of(node)
                    delta = self.consensus_pull * (consensus[g] - matrix[i])
                    matrix[i] += delta
                    shift += float(np.abs(delta).sum())
            return {"shift": shift}

        phases: list[Phase] = [
            SkipGramPhase(
                f"view:{view.edge_type}",
                self._walk_pipeline(view, UniformPolicy(), rng),
                trainers[view.edge_type],
                lr=self.lr,
            )
            for view in views
        ]
        phases.append(CallablePhase("consensus", consensus_step))
        self._run_loop(phases, self.epochs)
        return self._as_dict(graph, consensus)

"""Common interface of all embedding methods (TransN and baselines)."""

from __future__ import annotations

from abc import ABC, abstractmethod
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.engine import (
    NULL_REGISTRY,
    NULL_TRACER,
    Callback,
    LoopResult,
    MetricsRegistry,
    NumericalHealthGuard,
    Phase,
    RunReport,
    StreamingCorpusPipeline,
    Tracer,
    TrainingLoop,
)
from repro.graph.heterograph import HeteroGraph, NodeId
from repro.graph.views import View
from repro.walks import LockstepWalker, WalkPolicy, stream_corpus
from repro.walks.corpus import WalkCorpus

Embeddings = dict[NodeId, np.ndarray]


def edge_triples(
    graph: HeteroGraph,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(heads, tails, relations)``: the index columns of ``graph``'s
    edges, in edge order; relation ``r`` is ``sorted(graph.edge_types)[r]``
    (what the knowledge-graph baselines index their relation rows by)."""
    table = graph.edge_table()
    rank = {name: r for r, name in enumerate(sorted(table.type_names))}
    remap = np.array([rank[name] for name in table.type_names], dtype=np.int64)
    return table.ends[:, 0], table.ends[:, 1], remap[table.type_codes]


class EmbeddingMethod(ABC):
    """A network-embedding method: ``fit(graph) -> {node: vector}``.

    Subclasses must set :attr:`name` and implement :meth:`fit`; the
    returned mapping must contain *every* node of the input graph (methods
    that cannot embed some nodes — e.g. Metapath2Vec for off-path types —
    return zero vectors for them, which is what running the original code
    and filling gaps would give the downstream classifier).

    Every trained method runs its epochs through :meth:`_run_loop`, so
    each honours :attr:`callbacks` — engine hooks attached before
    ``fit`` — and records the engine's :class:`~repro.engine.LoopResult`
    (loss history, per-phase timings) in :attr:`last_run_`.
    """

    name: str = "unnamed"

    def __init__(
        self,
        dim: int = 32,
        seed: int = 0,
        report: str | Path | None = None,
        trace_memory: bool = False,
    ) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.seed = seed
        self.callbacks: list[Callback] = []
        self.last_run_: LoopResult | None = None
        self.metrics: MetricsRegistry = NULL_REGISTRY
        self.tracer: Tracer = NULL_TRACER
        self.report_path: Path | None = None
        if report is not None:
            self.enable_report(report, trace_memory=trace_memory)

    @abstractmethod
    def fit(self, graph: HeteroGraph) -> Embeddings:
        """Train on ``graph`` and return an embedding per node."""

    def enable_report(
        self, path: str | Path, trace_memory: bool = False
    ) -> None:
        """Collect metrics + spans during :meth:`fit` and write a
        versioned JSON run report (see docs/observability.md) to ``path``
        when it finishes."""
        self.report_path = Path(path)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(trace_memory=trace_memory)

    def _run_loop(self, phases: list[Phase], num_epochs: int) -> LoopResult:
        """Run an engine loop with this method's callbacks attached, then
        write the run report if :meth:`enable_report` was called."""
        if self.metrics.enabled:
            for phase in phases:
                trainer = getattr(phase, "trainer", None)
                if trainer is not None and hasattr(trainer, "metrics"):
                    trainer.metrics = self.metrics
                    trainer.metric_prefix = f"{phase.name}/"
        loop = TrainingLoop(
            phases,
            callbacks=self.callbacks,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        try:
            self.last_run_ = loop.run(num_epochs)
        finally:
            if self.report_path is not None:
                try:
                    RunReport(
                        self.metrics,
                        self.tracer,
                        metadata={
                            "model": self.name.lower(),
                            "dim": self.dim,
                            "seed": self.seed,
                        },
                    ).write(self.report_path)
                finally:
                    self.tracer.close()
        return self.last_run_

    def attach_health_guard(self, policy: str = "raise") -> None:
        """Watch this method's training for NaN/Inf and loss explosions.

        Baselines have no snapshot protocol, so only the stateless
        policies apply here: ``"raise"`` (fail fast with a diagnostic)
        and ``"skip"`` (log and continue).  ``"rollback"`` needs
        checkpointable model state and is only available on TransN.
        """
        if policy == "rollback":
            raise ValueError(
                f"policy 'rollback' needs checkpointable model state, "
                f"which {self.name} does not expose; use 'raise' or 'skip'"
            )
        self.callbacks.append(NumericalHealthGuard(policy=policy))

    # ------------------------------------------------------------------
    # helpers shared by subclasses
    # ------------------------------------------------------------------
    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def _init_matrix(
        self, num_rows: int, rng: np.random.Generator
    ) -> np.ndarray:
        """word2vec-style input initialization."""
        bound = 0.5 / self.dim
        return rng.uniform(-bound, bound, size=(num_rows, self.dim))

    def _walk_pipeline(
        self,
        view_or_graph: View | HeteroGraph,
        policy: WalkPolicy,
        rng: np.random.Generator,
        keep: Callable[[WalkCorpus], WalkCorpus] | None = None,
    ) -> StreamingCorpusPipeline:
        """SGNS batches over fresh ``policy`` walks, one block a draw.

        For the walk-based subclasses, which set ``walk_length``,
        ``walks_per_node``, ``window``, ``num_negatives`` and
        ``batch_size``.  Each epoch walks ``walks_per_node`` times from
        every admissible start; ``rng`` drives the walks, the shuffle and
        the negatives.  ``keep`` rewrites each block before its pairs are
        extracted.
        """
        walker = LockstepWalker(view_or_graph, policy, rng=rng)

        def sample_blocks() -> Iterator[WalkCorpus]:
            blocks = stream_corpus(
                view_or_graph,
                walker,
                length=self.walk_length,
                walks_per_node_override=self.walks_per_node,
                rng=rng,
            )
            return blocks if keep is None else map(keep, blocks)

        return StreamingCorpusPipeline(
            sample_blocks,
            num_nodes=walker.graph.num_nodes,
            window=self.window,
            num_negatives=self.num_negatives,
            batch_size=self.batch_size,
            rng=rng,
        )

    def _as_dict(
        self, graph: HeteroGraph, matrix: np.ndarray
    ) -> Embeddings:
        """Map a (num_nodes, dim) matrix in graph index order to a dict."""
        return {
            node: matrix[graph.index_of(node)].copy() for node in graph.nodes
        }


class RandomEmbedding(EmbeddingMethod):
    """Gaussian random embeddings — the sanity-check floor every trained
    method must beat (used by the integration tests)."""

    name = "Random"

    def fit(self, graph: HeteroGraph) -> Embeddings:
        rng = self._rng()
        matrix = rng.normal(size=(graph.num_nodes, self.dim))
        return self._as_dict(graph, matrix)

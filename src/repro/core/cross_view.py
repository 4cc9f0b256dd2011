"""The cross-view algorithm (Section III-B).

For every view-pair the trainer:

1. reduces the pair to its paired-subviews (Definition 5),
2. samples walks from each subview with the Section III-A walker,
3. filters each walk down to the pair's common nodes and re-chunks it to
   the fixed translator path length,
4. runs the two translation tasks T1/T2 (Equations 11-12) and the two
   reconstruction tasks R1/R2 (Equations 13-14) through the translators,
5. back-propagates into both translators *and* the common nodes'
   view-specific embeddings (the parameters Theta_cross of Algorithm 1),
   applying Adam updates to each.

Similarity loss: Equations 11-14 score translated-vs-target paths by the
row-wise inner product.  As recorded in DESIGN.md §2 we minimize
``1 - cosine`` of corresponding rows by default (the well-posed reading);
``normalize=False`` gives the literal unnormalized ``-<a, b>``.

Batching: the trainer gathers *all* chunks of a direction into
``(num_chunks, path_len, d)`` arrays and applies **one** translator Adam
step plus one aggregated :class:`RowAdam` update per direction per epoch
— the minibatch reading of Algorithm 1's per-path steps (DESIGN.md §2).
The paper's loop read literally, one step per chunk, is the test oracle
in ``tests/core/cross_view_oracle.py``.

A step runs the closed-form forward/backward of
:mod:`repro.core.translator_kernel`, never the autograd tape, and
processes its chunks in micro-batches sized from the memory budget
(:func:`repro.engine.pipeline.cross_view_chunks_for_budget`); without a
budget a direction is one micro-batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd import Tensor
from repro.autograd.functional import l2_normalize_rows
from repro.engine.observability import NULL_REGISTRY, MetricsRegistry
from repro.engine.pipeline import cross_view_chunks_for_budget
from repro.graph.heterograph import HeteroGraph
from repro.graph.views import View, ViewPair, paired_subviews
from repro.nn import Adam
from repro.nn.optim import (
    RowAdam,
    RowOptimizer,
    gradient_norm,
    make_row_optimizer,
    segment_sum,
)
from repro.walks import BiasedCorrelatedPolicy, LockstepWalker
from repro.walks.corpus import WalkCorpus, chunk_paths, filter_to_nodes

from repro.core.translator import make_translator
from repro.core.translator_kernel import (
    KernelLayer,
    direction_step,
    kernel_layers,
)


def _index_map(source: HeteroGraph, target: HeteroGraph) -> np.ndarray:
    """Dense source-index → target-index lookup (-1 where absent).

    Chunks are sampled in a subview's index space; one gather through
    this table re-bases them onto a view's embedding rows.
    """
    return target.indices_of(source.nodes)


def _merge_row_grads(
    merged: tuple[np.ndarray, np.ndarray] | None,
    rows: np.ndarray,
    grads: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold one micro-batch's per-occurrence row gradients into the
    running ``(unique_rows, sums)`` of a step.

    The running sums go first in the :func:`segment_sum` input, so every
    row's total adds its occurrences one after another in step order —
    bit-identical to summing the whole step at once.
    """
    rows = rows.reshape(-1)
    grads = grads.reshape(rows.size, -1)
    if merged is not None:
        rows = np.concatenate((merged[0], rows))
        grads = np.concatenate((merged[1], grads))
    unique, sums, _ = segment_sum(rows, grads)
    return unique, sums


def similarity_loss(
    prediction: Tensor, target: Tensor, normalize: bool = True
) -> Tensor:
    """Mean row-similarity loss between two (path_len, d) matrices.

    ``normalize=True``: mean over rows of ``1 - cos(pred_row, target_row)``
    (bounded, scale-free).  ``normalize=False``: mean over rows of
    ``-<pred_row, target_row>`` — the literal sign-fixed Equation 11.

    Also accepts ``(num_chunks, path_len, d)`` batches: rows normalize
    along the last axis and the mean runs over every row of every chunk,
    i.e. the mean over chunks of the per-chunk loss.
    """
    if prediction.shape != target.shape:
        raise ValueError(
            f"shape mismatch: {prediction.shape} vs {target.shape}"
        )
    if normalize:
        prediction = l2_normalize_rows(prediction)
        target = l2_normalize_rows(target)
        inner = (prediction * target).sum(axis=-1)
        return (1.0 - inner).mean()
    return -(prediction * target).sum(axis=-1).mean()


@dataclass
class CrossViewLosses:
    """Per-epoch loss bookkeeping of one view-pair."""

    translation: float = 0.0
    reconstruction: float = 0.0
    num_paths: int = 0

    @property
    def total(self) -> float:
        return self.translation + self.reconstruction


class CrossViewTrainer:
    """Dual-learning trainer of one view-pair eta_{i,j}."""

    def __init__(
        self,
        pair: ViewPair,
        embeddings_i: np.ndarray,
        embeddings_j: np.ndarray,
        rng: np.random.Generator,
        dim: int,
        cross_path_len: int = 6,
        num_encoders: int = 2,
        walk_length: int = 20,
        paths_per_epoch: int = 80,
        lr_cross: float = 0.01,
        lr_cross_embeddings: float | None = None,
        simple_translator: bool = False,
        use_translation_tasks: bool = True,
        use_reconstruction_tasks: bool = True,
        normalize_similarity: bool = True,
        policy_factory=None,
        budget_bytes: int | None = None,
    ) -> None:
        if not (use_translation_tasks or use_reconstruction_tasks):
            raise ValueError("at least one cross-view task must be enabled")
        self.pair = pair
        self.rng = rng
        self.dim = dim
        self.cross_path_len = cross_path_len
        self.walk_length = walk_length
        self.paths_per_epoch = paths_per_epoch
        self.use_translation = use_translation_tasks
        self.use_reconstruction = use_reconstruction_tasks
        self.normalize = normalize_similarity

        self.metrics: MetricsRegistry = NULL_REGISTRY
        self._metric_scope = ""  # set per direction while training

        self.sub_i, self.sub_j = paired_subviews(pair)
        # one fresh policy instance per subview (policies bind to one graph)
        if policy_factory is None:
            policy_factory = BiasedCorrelatedPolicy
        self._walker_i = LockstepWalker(self.sub_i, policy_factory(), rng=rng)
        self._walker_j = LockstepWalker(self.sub_j, policy_factory(), rng=rng)

        # translators live in the embedding dtype (float32 mode follows
        # the matrices); the RNG draws themselves are dtype-independent
        self.translator_ij = make_translator(
            cross_path_len, dim, num_encoders, simple_translator, rng=rng,
            dtype=embeddings_i.dtype,
        )
        self.translator_ji = make_translator(
            cross_path_len, dim, num_encoders, simple_translator, rng=rng,
            dtype=embeddings_i.dtype,
        )
        params = list(self.translator_ij.parameters()) + list(
            self.translator_ji.parameters()
        )
        self._translator_optim = Adam(params, lr=lr_cross)
        self._layers_ij = kernel_layers(self.translator_ij)
        self._layers_ji = kernel_layers(self.translator_ji)

        emb_lr = lr_cross_embeddings if lr_cross_embeddings is not None else lr_cross
        self._emb_i = embeddings_i
        self._emb_j = embeddings_j
        self._row_adam_i = make_row_optimizer("adam", embeddings_i, lr=emb_lr)
        self._row_adam_j = make_row_optimizer("adam", embeddings_j, lr=emb_lr)

        # common nodes that survived the subview reduction on both sides
        self._common = sorted(
            pair.common_nodes & self.sub_i.nodes & self.sub_j.nodes,
            key=str,
        )
        # walk-start indices (subview index space) and subview -> view
        # embedding-row lookups; filtered chunks only contain common
        # nodes, which exist on both sides, so the -1 slots of the maps
        # are never gathered.
        self._starts_i = self._start_indices(self.sub_i)
        self._starts_j = self._start_indices(self.sub_j)
        self._map_i_to_i = _index_map(self.sub_i.graph, pair.view_i.graph)
        self._map_i_to_j = _index_map(self.sub_i.graph, pair.view_j.graph)
        self._map_j_to_j = _index_map(self.sub_j.graph, pair.view_j.graph)
        self._map_j_to_i = _index_map(self.sub_j.graph, pair.view_i.graph)

        #: most distinct embedding rows one step touches per side: a
        #: direction's chunks come from ``paths_per_epoch`` walks of
        #: ``walk_length`` common nodes, so the step's row buffers are
        #: bounded by the sample, not by the graph
        self.step_rows = min(len(self._common), paths_per_epoch * walk_length)
        #: chunks per micro-batch of a step; ``None`` (no budget) runs a
        #: direction as one batch
        self.micro_batch_chunks = (
            None
            if budget_bytes is None
            else cross_view_chunks_for_budget(
                budget_bytes,
                cross_path_len,
                dim,
                num_encoders,
                simple=simple_translator,
                common_rows=self.step_rows,
                itemsize=embeddings_i.dtype.itemsize,
            )
        )

    def _start_indices(self, subview: View) -> np.ndarray:
        indices = subview.graph.indices_of(self._common)
        return indices[indices >= 0]

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def pair_label(self) -> str:
        """Stable metric namespace of this view-pair, ``<type_i>+<type_j>``."""
        return f"{self.pair.view_i.edge_type}+{self.pair.view_j.edge_type}"

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Route this pair's per-direction cross-view metrics (Eq. 11-14
        losses, chunk counts, translator gradient norms) into ``metrics``."""
        self.metrics = metrics

    # ------------------------------------------------------------------
    # checkpoint protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Theta_cross minus the shared embedding matrices: both
        translators' parameters, the translator Adam moments, and the
        RowAdam moments of the common-node embedding updates.  The view
        embedding matrices themselves are owned and saved by the model."""
        return {
            "translator_ij": self.translator_ij.state_dict(),
            "translator_ji": self.translator_ji.state_dict(),
            "translator_optim": self._translator_optim.state_dict(),
            "row_adam_i": self._row_adam_i.state_dict(),
            "row_adam_j": self._row_adam_j.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.translator_ij.load_state_dict(state["translator_ij"])
        self.translator_ji.load_state_dict(state["translator_ji"])
        self._translator_optim.load_state_dict(state["translator_optim"])
        self._row_adam_i.load_state_dict(state["row_adam_i"])
        self._row_adam_j.load_state_dict(state["row_adam_j"])

    def scale_learning_rates(self, factor: float) -> None:
        """Scale the translator and embedding learning rates together.

        Used by the numerical-health rollback policy: the cross-view
        phase has two coupled rates (translator Adam, common-node
        RowAdam), so "halve the phase's lr" scales both by the same
        factor to preserve their tuned ratio.
        """
        if factor <= 0:
            raise ValueError(f"lr scale factor must be positive, got {factor}")
        self._translator_optim.lr *= factor
        self._row_adam_i.lr *= factor
        self._row_adam_j.lr *= factor

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _sample_chunks(
        self,
        subview: View,
        walker,
        starts: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """T lockstep walks from common-node starts -> filter -> chunks.

        Returns a ``(num_chunks, cross_path_len)`` index matrix in the
        subview's index space.  ``rng`` overrides the trainer's own
        stream (the ``workers >= 1`` seed law passes a per-pair per-step
        generator).
        """
        if starts.size == 0:
            return np.empty((0, self.cross_path_len), dtype=np.int64)
        rng = self.rng if rng is None else rng
        picks = starts[rng.integers(starts.size, size=self.paths_per_epoch)]
        matrix, lengths = walker.walk_batch(picks, self.walk_length, rng=rng)
        corpus = WalkCorpus(matrix, lengths, self.walk_length, subview.graph)
        corpus = filter_to_nodes(corpus, self._common, min_length=2)
        return chunk_paths(corpus, self.cross_path_len)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def _train_step(
        self,
        chunks: np.ndarray,
        src_map: np.ndarray,
        tgt_map: np.ndarray,
        source_emb: np.ndarray,
        target_emb: np.ndarray,
        source_adam: RowOptimizer,
        target_adam: RowOptimizer,
        forward: tuple[KernelLayer, ...],
        backward: tuple[KernelLayer, ...],
    ) -> tuple[float, float]:
        """One optimizer step over a ``(num_chunks, path_len)`` chunk matrix.

        The chunks run through :func:`direction_step` in micro-batches of
        at most :attr:`micro_batch_chunks`; translator gradients add up in
        the parameters' ``.grad`` and row gradients in one
        :func:`segment_sum`-merged buffer per side (bounded by the unique
        rows, not the chunk count).  Then one translator Adam step and one
        RowAdam update per side.  Every micro-batch gathers its rows
        before any update, so the step is the gradient of the whole
        matrix's Eq. 11-14 losses, whatever the micro-batch size.
        ``forward`` translates source->target, ``backward``
        target->source (the reconstruction task).  Returns (translation
        loss, reconstruction loss), each a mean over every path row.
        """
        num_chunks = chunks.shape[0]
        micro = self.micro_batch_chunks or num_chunks
        scale = 1.0 / chunks.size
        t_sum = r_sum = 0.0
        src_grads = tgt_grads = None
        self._translator_optim.zero_grad()
        for start in range(0, num_chunks, micro):
            block = chunks[start:start + micro]
            # ndarray.take: the rows fancy indexing gathers, faster
            src_rows = src_map.take(block)
            tgt_rows = tgt_map.take(block) if self.use_translation else None
            t, r, d_src, d_tgt = direction_step(
                forward,
                backward,
                source_emb.take(src_rows, axis=0),
                None
                if tgt_rows is None
                else target_emb.take(tgt_rows, axis=0),
                normalize=self.normalize,
                reconstruction=self.use_reconstruction,
                scale=scale,
            )
            t_sum += t
            r_sum += r
            src_grads = _merge_row_grads(src_grads, src_rows, d_src)
            if d_tgt is not None:
                tgt_grads = _merge_row_grads(tgt_grads, tgt_rows, d_tgt)
        if self.metrics.enabled:
            self.metrics.observe(
                f"cross_view/{self.pair_label}/{self._metric_scope}"
                "grad_norm/translators",
                gradient_norm(
                    param.grad
                    for param in self._translator_optim.parameters
                ),
            )
        self._translator_optim.step()
        source_adam.update(*src_grads)
        if tgt_grads is not None:
            target_adam.update(*tgt_grads)
        return t_sum * scale, r_sum * scale

    def _train_direction(
        self,
        chunks: np.ndarray,
        *step_args,
    ) -> tuple[float, float, int]:
        """Train one direction on its whole ``(num_chunks, path_len)`` matrix.

        One :meth:`_train_step` over every chunk: its Eq. 11-14 losses
        are means over chunks, with one translator Adam step and one
        aggregated RowAdam update per side.  Returns summed (translation,
        reconstruction) losses and the number of chunks processed, for
        the caller's per-path averaging.
        """
        num_chunks = chunks.shape[0]
        if num_chunks == 0:
            return 0.0, 0.0, 0
        t, r = self._train_step(chunks, *step_args)
        return t * num_chunks, r * num_chunks, num_chunks

    def train_epoch(
        self, rng: np.random.Generator | None = None
    ) -> CrossViewLosses:
        """Lines 9-12 of Algorithm 1 for this view-pair.

        ``rng`` replaces the trainer's shared stream for this epoch's
        sampling: the ``workers >= 1`` seed law gives every pair its own
        generator per step (:func:`repro.engine.parallel.pair_rng`).
        """
        losses = CrossViewLosses()
        chunks_i = self._sample_chunks(
            self.sub_i, self._walker_i, self._starts_i, rng=rng
        )
        chunks_j = self._sample_chunks(
            self.sub_j, self._walker_j, self._starts_j, rng=rng
        )
        type_i = self.pair.view_i.edge_type
        type_j = self.pair.view_j.edge_type
        directions = (
            (
                f"{type_i}->{type_j}",
                chunks_i,
                self._map_i_to_i,
                self._map_i_to_j,
                self._emb_i,
                self._emb_j,
                self._row_adam_i,
                self._row_adam_j,
                self._layers_ij,
                self._layers_ji,
            ),
            (
                f"{type_j}->{type_i}",
                chunks_j,
                self._map_j_to_j,
                self._map_j_to_i,
                self._emb_j,
                self._emb_i,
                self._row_adam_j,
                self._row_adam_i,
                self._layers_ji,
                self._layers_ij,
            ),
        )
        for label, *direction in directions:
            self._metric_scope = f"{label}/"
            try:
                t, r, n = self._train_direction(*direction)
            finally:
                self._metric_scope = ""
            losses.translation += t
            losses.reconstruction += r
            losses.num_paths += n
            if self.metrics.enabled:
                scope = f"cross_view/{self.pair_label}/{label}"
                self.metrics.counter(f"{scope}/chunks", n)
                if n:
                    self.metrics.observe(f"{scope}/translation", t / n)
                    self.metrics.observe(f"{scope}/reconstruction", r / n)
        if losses.num_paths:
            losses.translation /= losses.num_paths
            losses.reconstruction /= losses.num_paths
        return losses

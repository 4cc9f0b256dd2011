"""The TransN model: Algorithm 1 end to end.

Usage:
    >>> from repro.core import TransN, TransNConfig
    >>> from repro.datasets import two_view_toy
    >>> graph, _ = two_view_toy()
    >>> model = TransN(graph, TransNConfig(num_iterations=1))
    >>> history = model.fit()
    >>> emb = model.embedding("i0")
    >>> emb.shape
    (32,)
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.engine import (
    Callback,
    Checkpointer,
    CheckpointManager,
    LoopResult,
    MetricsRegistry,
    NumericalHealthGuard,
    Phase,
    RunReport,
    Tracer,
    TrainingLoop,
)
from repro.engine import faults
from repro.engine.parallel import ParallelRuntime, pair_rng
from repro.graph.heterograph import HeteroGraph, NodeId
from repro.graph.views import build_view_pairs, separate_views
from repro.nn.optim import check_lr
from repro.walks import WalkPolicy, make_policy

from repro.core.config import TransNConfig
from repro.core.cross_view import CrossViewTrainer
from repro.core.single_view import SingleViewTrainer

SINGLE_VIEW_PHASE = "single_view"
CROSS_VIEW_PHASE = "cross_view"

# config fields that may differ between a checkpoint and the model
# resuming from it: they steer the training *run* (how long, how it is
# snapshotted/guarded) rather than the trajectory-defining hyper-parameters.
# ``stream_corpus`` has one legal value; checkpoints of the removed dense
# path hold False, and its serial draws were the one-block stream's.
_RESUME_EXEMPT_CONFIG_FIELDS = frozenset(
    {"num_iterations", "checkpoint_every", "health_policy", "stream_corpus"}
)


class _SingleViewPhase(Phase):
    """Algorithm 1 lines 3-8 as an engine phase.

    The learning rate lives on the phase (like
    :class:`~repro.engine.loop.SkipGramPhase`) so the health guard's
    rollback halving can adjust it between epochs.
    """

    def __init__(self, model: "TransN") -> None:
        super().__init__(SINGLE_VIEW_PHASE)
        self._model = model
        self.lr = model.config.lr_single

    def run(self, loop: TrainingLoop, epoch: int) -> dict[str, float]:
        return self._model._single_view_step(self.lr)


class _CrossViewPhase(Phase):
    """Algorithm 1 lines 9-12 as an engine phase.

    The cross-view step involves three coupled learning rates per trainer
    (translator Adam plus the two common-node RowAdam rates), tuned as a
    ratio.  The phase exposes a single scalar ``lr`` — the translator rate
    — and setting it rescales *all* rates of every cross trainer by the
    same factor, preserving the tuned ratio.
    """

    def __init__(self, model: "TransN") -> None:
        super().__init__(CROSS_VIEW_PHASE)
        self._model = model
        self._lr = model.config.lr_cross

    @property
    def lr(self) -> float:
        return self._lr

    @lr.setter
    def lr(self, value: float) -> None:
        factor = check_lr(value) / self._lr
        for trainer in self._model.cross_trainers:
            trainer.scale_learning_rates(factor)
        self._lr = value

    def _set_lr_silently(self, value: float) -> None:
        """Record ``value`` without touching the trainers — used when a
        checkpoint restore has already set the optimizer rates directly."""
        self._lr = value

    def run(self, loop: TrainingLoop, epoch: int) -> dict[str, float]:
        return self._model._cross_view_step()


@dataclass
class TrainingHistory:
    """Loss trajectories recorded by :meth:`TransN.fit`."""

    single_view: list[float] = field(default_factory=list)
    translation: list[float] = field(default_factory=list)
    reconstruction: list[float] = field(default_factory=list)

    @property
    def num_iterations(self) -> int:
        return len(self.single_view)


class TransN:
    """Heterogeneous network embedding by translating node embeddings.

    The constructor performs step 1 of Algorithm 1 (view and view-pair
    generation) and allocates one view-specific embedding matrix per view;
    :meth:`fit` runs the K alternating single-view / cross-view
    iterations; the final embedding of a node is the average of its
    view-specific embeddings (Section III-C).
    """

    def __init__(self, graph: HeteroGraph, config: TransNConfig | None = None) -> None:
        if graph.num_edges == 0:
            raise ValueError("TransN needs a graph with at least one edge")
        self.graph = graph
        self.config = config or TransNConfig()
        self.rng = np.random.default_rng(self.config.seed)

        self.views = separate_views(graph)
        self.view_pairs = build_view_pairs(self.views) if self.config.use_cross_view else []

        cfg = self.config
        # word2vec-style init: small uniform noise.  Crucially, a node's
        # view-specific embeddings start IDENTICAL across views (drawn once
        # per node): each view's skip-gram then deforms a shared origin
        # instead of an independent random space, so the final averaging of
        # view-specific embeddings (Section III-C) combines roughly aligned
        # spaces — the cross-view translation keeps them aligned during
        # training.  The paper does not specify initialization; independent
        # per-view inits measurably hurt the averaged embedding.
        bound = 0.5 / cfg.dim
        # always draw in float64 (RNG consumption is dtype-independent),
        # then cast: float32 mode changes storage, never the draw stream
        node_init = self.rng.uniform(
            -bound, bound, size=(graph.num_nodes, cfg.dim)
        ).astype(cfg.resolved_dtype, copy=False)
        self.view_embeddings: dict[str, np.ndarray] = {
            view.edge_type: node_init[graph.indices_of(view.graph.nodes)]
            for view in self.views
        }

        # workers >= 1 follows the sharded seed law (repro.engine.parallel)
        self._parallel = (
            ParallelRuntime(cfg.workers) if cfg.workers > 0 else None
        )
        self._cross_steps = 0  # cross-view step clock (parallel rng key)

        self.single_trainers = [
            SingleViewTrainer(
                view,
                self.view_embeddings[view.edge_type],
                rng=self.rng,
                walk_length=cfg.walk_length,
                walk_floor=cfg.walk_floor,
                walk_cap=cfg.walk_cap,
                num_negatives=cfg.num_negatives,
                batch_size=cfg.batch_size,
                policy=self._view_policy(),
                parallel=self._parallel,
                seed=cfg.seed,
                view_code=view_code,
                corpus_budget_bytes=cfg.corpus_budget_bytes,
                spill_path=(
                    Path(cfg.spill_dir) / f"view{view_code}.spill"
                    if cfg.spill_dir is not None
                    else None
                ),
                on_spill_error=cfg.on_spill_error,
            )
            for view_code, view in enumerate(self.views)
        ]

        self.cross_trainers = [
            CrossViewTrainer(
                pair,
                self.view_embeddings[pair.view_i.edge_type],
                self.view_embeddings[pair.view_j.edge_type],
                rng=self.rng,
                dim=cfg.dim,
                cross_path_len=cfg.cross_path_len,
                num_encoders=cfg.num_encoders,
                walk_length=cfg.walk_length,
                paths_per_epoch=cfg.cross_paths_per_pair,
                lr_cross=cfg.lr_cross,
                lr_cross_embeddings=cfg.lr_cross_embeddings,
                policy_factory=self._view_policy,
                simple_translator=cfg.simple_translator,
                use_translation_tasks=cfg.use_translation_tasks,
                use_reconstruction_tasks=cfg.use_reconstruction_tasks,
                normalize_similarity=cfg.normalize_similarity,
                budget_bytes=cfg.corpus_budget_bytes,
            )
            for pair in self.view_pairs
        ]

        # phases are created once (not per fit call) so learning-rate
        # adjustments made by callbacks — the health guard's rollback
        # halving — survive repeated fit() calls and are part of the
        # checkpointed state
        self._phases: list[Phase] = [_SingleViewPhase(self)]
        if self.cross_trainers:
            self._phases.append(_CrossViewPhase(self))

        self.history = TrainingHistory()
        self.last_run: LoopResult | None = None
        self.timings: dict[str, float] = {}
        self._fitted = False

    # ------------------------------------------------------------------
    def _view_policy(self) -> WalkPolicy:
        """A fresh walk policy per view/subview from the config knobs.

        Policies bind to exactly one graph, so every trainer gets its own
        instance.  The metapath policy derives its cycle from each view's
        node types at bind time.
        """
        cfg = self.config
        return make_policy(cfg.walk_policy, p=cfg.walk_p, q=cfg.walk_q)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def _single_view_step(self, lr: float) -> dict[str, float]:
        """Lines 3-8 of Algorithm 1: one skip-gram pass per view."""
        losses = [
            trainer.train_epoch(lr=lr)
            for trainer in self.single_trainers
        ]
        value = float(np.mean(losses))
        self.history.single_view.append(value)
        return {"loss": value}

    def _cross_view_step(self) -> dict[str, float]:
        """Lines 9-12 of Algorithm 1: dual learning over every view-pair.

        With a runtime (``workers >= 1``) each pair draws from its own
        ``pair_rng(seed, pair_index, step)`` stream and the pairs run in
        :func:`~repro.engine.parallel.conflict_waves` order; with
        ``workers=0`` every pair shares the model RNG in pair order.
        """
        if self._parallel is not None and self.cross_trainers:
            rngs = [
                pair_rng(self.config.seed, k, self._cross_steps)
                for k in range(len(self.cross_trainers))
            ]
            epoch_losses = self._parallel.train_pairs(
                self.cross_trainers, rngs
            )
        else:
            epoch_losses = [
                trainer.train_epoch() for trainer in self.cross_trainers
            ]
        self._cross_steps += 1
        trained = [e for e in epoch_losses if e.num_paths > 0]
        if not trained:
            return {}
        translation = float(np.mean([e.translation for e in trained]))
        reconstruction = float(np.mean([e.reconstruction for e in trained]))
        self.history.translation.append(translation)
        self.history.reconstruction.append(reconstruction)
        return {"translation": translation, "reconstruction": reconstruction}

    # ------------------------------------------------------------------
    # checkpoint protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of everything :meth:`fit` mutates — restoring it and
        re-running from the same epoch reproduces an uninterrupted run
        bit for bit.

        Covers the shared RNG stream, the view-specific embedding
        matrices (saved once here; the single- and cross-view trainers
        share them by reference and exclude them from their own states),
        every trainer's optimizer moments and auxiliary matrices, the
        phase learning rates, and the loss history.
        """
        return {
            "config": asdict(self.config),
            "rng": copy.deepcopy(self.rng.bit_generator.state),
            "view_embeddings": {
                edge_type: matrix.copy()
                for edge_type, matrix in self.view_embeddings.items()
            },
            "single_view": {
                trainer.view.edge_type: trainer.state_dict()
                for trainer in self.single_trainers
            },
            "cross_view": {
                "|".join(trainer.pair.key): trainer.state_dict()
                for trainer in self.cross_trainers
            },
            "phase_lrs": {
                phase.name: float(phase.lr) for phase in self._phases
            },
            "cross_steps": self._cross_steps,
            "history": {
                "single_view": list(self.history.single_view),
                "translation": list(self.history.translation),
                "reconstruction": list(self.history.reconstruction),
            },
            "fitted": self._fitted,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        The snapshot's config must match this model's on every
        trajectory-defining field (dimensions, rates, walk policy, seed,
        ablation switches); run-control fields (``num_iterations``,
        ``checkpoint_every``, ``health_policy``) may differ — resuming
        with more iterations or a different guard policy is the point of
        checkpointing.
        """
        ours, theirs = asdict(self.config), state["config"]
        mismatched = sorted(
            name
            for name in ours
            if name not in _RESUME_EXEMPT_CONFIG_FIELDS
            and theirs.get(name, ours[name]) != ours[name]
        )
        if mismatched:
            detail = ", ".join(
                f"{name}: checkpoint={theirs[name]!r} model={ours[name]!r}"
                for name in mismatched
            )
            raise ValueError(
                f"checkpoint config does not match the model ({detail}); "
                "resume with the configuration the run was started with"
            )

        saved_views = state["view_embeddings"]
        if set(saved_views) != set(self.view_embeddings):
            raise ValueError(
                f"checkpoint views {sorted(saved_views)} != model views "
                f"{sorted(self.view_embeddings)}"
            )
        for edge_type, matrix in self.view_embeddings.items():
            saved = saved_views[edge_type]
            if saved.shape != matrix.shape:
                raise ValueError(
                    f"view {edge_type!r}: checkpoint shape {saved.shape} "
                    f"!= model shape {matrix.shape}"
                )
            # in place: the trainers hold references to these matrices
            matrix[:] = saved

        for trainer in self.single_trainers:
            trainer.load_state_dict(state["single_view"][trainer.view.edge_type])
        for trainer in self.cross_trainers:
            trainer.load_state_dict(state["cross_view"]["|".join(trainer.pair.key)])

        # all components share this generator by reference, so restoring
        # its state in place resumes every consumer's stream at once
        self.rng.bit_generator.state = copy.deepcopy(state["rng"])

        for phase in self._phases:
            saved_lr = state["phase_lrs"][phase.name]
            if isinstance(phase, _CrossViewPhase):
                # the trainer optimizer rates were just restored directly;
                # only the phase's record needs updating
                phase._set_lr_silently(saved_lr)
            else:
                phase.lr = saved_lr

        # pre-parallel checkpoints lack the clock; 0 matches their serial
        # path, which never reads it
        self._cross_steps = int(state.get("cross_steps", 0))

        history = state["history"]
        self.history.single_view[:] = history["single_view"]
        self.history.translation[:] = history["translation"]
        self.history.reconstruction[:] = history["reconstruction"]
        self._fitted = bool(state["fitted"])

    @staticmethod
    def _as_manager(
        checkpoint: "CheckpointManager | str | Path | None",
    ) -> CheckpointManager | None:
        if checkpoint is None or isinstance(checkpoint, CheckpointManager):
            return checkpoint
        return CheckpointManager(Path(checkpoint))

    def fit(
        self,
        num_iterations: int | None = None,
        callbacks: list[Callback] | tuple[Callback, ...] = (),
        checkpoint: "CheckpointManager | str | Path | None" = None,
        resume: bool = False,
        report: "str | Path | None" = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        trace_memory: bool = False,
    ) -> TrainingHistory:
        """Run Algorithm 1 for K iterations; returns the loss history.

        The alternating loop runs as a :class:`repro.engine.TrainingLoop`
        with a ``single_view`` phase and (when view-pairs exist) a
        ``cross_view`` phase, so per-iteration losses and per-phase
        wall-clock timings are observable through engine ``callbacks``
        (e.g. :class:`repro.engine.ProgressReporter`); cumulative timings
        land in :attr:`timings` and the full result in :attr:`last_run`.

        Fault tolerance (infrastructure around Algorithm 1, see
        docs/fault_tolerance.md):

        - ``checkpoint``: a directory (or ready
          :class:`repro.engine.CheckpointManager`) to snapshot into every
          ``config.checkpoint_every`` iterations and at the end of the
          run, atomically and with integrity checks.
        - ``resume=True``: load the newest valid checkpoint from
          ``checkpoint`` and continue from the iteration after it —
          bit-identical to a run that was never interrupted.  A missing
          or empty checkpoint directory falls back to a fresh start.
        - ``config.health_policy``: when set, a
          :class:`repro.engine.NumericalHealthGuard` with that policy
          watches every iteration's losses and parameters.

        Observability (see docs/observability.md):

        - ``report``: path of a versioned JSON run report to write when
          the run finishes — per-phase loss series and timings, per-view
          single-view losses, per-direction translation/reconstruction
          losses (Eq. 11-14), gradient norms, negative-sampling stats,
          and the run → epoch → phase span tree.
        - ``metrics`` / ``tracer``: supply your own registry/tracer
          instead of the ones ``report`` would create (also enables
          collection without writing a file).
        - ``trace_memory``: include ``tracemalloc`` peaks in the spans
          (costs roughly 2x on allocation-heavy code; off by default).

        With none of these set the observability layer is the no-op
        :data:`repro.engine.NULL_REGISTRY` path and costs nothing.

        Calling :meth:`fit` again continues training from the current
        state (useful for convergence studies).
        """
        iterations = (
            num_iterations
            if num_iterations is not None
            else self.config.num_iterations
        )
        manager = self._as_manager(checkpoint)
        if resume and manager is None:
            raise ValueError(
                "resume=True needs a checkpoint directory or manager"
            )

        # an armed fault injector (--chaos / a chaos test) forces metrics
        # on: its faults/* incidents must reach the run report
        chaos = faults.get_active()
        observing = (
            report is not None or metrics is not None or chaos is not None
        )
        if observing and metrics is None:
            metrics = MetricsRegistry()
        owns_tracer = observing and tracer is None
        if owns_tracer:
            tracer = Tracer(trace_memory=trace_memory)
        if observing:
            for trainer in self.single_trainers:
                trainer.bind_metrics(metrics)
            for trainer in self.cross_trainers:
                trainer.bind_metrics(metrics)
            if self._parallel is not None:
                self._parallel.bind_metrics(metrics)
            if chaos is not None:
                chaos.bind_metrics(metrics)

        engine_callbacks: list[Callback] = []
        if self.config.health_policy is not None:
            engine_callbacks.append(
                NumericalHealthGuard(
                    policy=self.config.health_policy, state_provider=self
                )
            )

        start_epoch = 0
        loop_state: dict | None = None
        if resume:
            loaded = manager.load_latest()
            if loaded is not None:
                self.load_state_dict(loaded.state["model"])
                loop_state = loaded.state["loop"]
                start_epoch = int(loop_state["epochs_completed"])
                if start_epoch > iterations:
                    raise ValueError(
                        f"checkpoint already covers {start_epoch} iterations "
                        f"but only {iterations} were requested; raise "
                        "num_iterations to continue the run"
                    )

        if manager is not None:
            # the guard sits before the checkpointer so a poisoned epoch is
            # rolled back before it can be persisted
            engine_callbacks.append(
                Checkpointer(manager, self, every=self.config.checkpoint_every)
            )

        loop = TrainingLoop(
            self._phases,
            callbacks=(*engine_callbacks, *callbacks),
            metrics=metrics,
            tracer=tracer,
        )
        if loop_state is not None:
            loop.load_state_dict(loop_state)
        try:
            self.last_run = loop.run(iterations, start_epoch=start_epoch)
        finally:
            if owns_tracer:
                tracer.close()
        # the restored loop state carries the pre-interruption totals; count
        # only the seconds this call actually spent
        restored = dict(loop_state["timings"]) if loop_state else {}
        for name, seconds in self.last_run.timings.items():
            new_seconds = seconds - restored.get(name, 0.0)
            self.timings[name] = self.timings.get(name, 0.0) + new_seconds
        self._fitted = True
        if report is not None:
            RunReport(
                metrics,
                tracer,
                metadata={
                    "model": "transn",
                    "config": asdict(self.config),
                    "graph": {
                        "num_nodes": self.graph.num_nodes,
                        "num_edges": self.graph.num_edges,
                        "num_views": len(self.views),
                        "num_view_pairs": len(self.view_pairs),
                    },
                    "epochs_run": self.last_run.epochs_run,
                },
            ).write(report)
        return self.history

    # ------------------------------------------------------------------
    # embeddings
    # ------------------------------------------------------------------
    def view_specific_embedding(self, node: NodeId, edge_type: str) -> np.ndarray:
        """The embedding of ``node`` inside the view of ``edge_type``."""
        view = next(v for v in self.views if v.edge_type == edge_type)
        if not view.graph.has_node(node):
            raise KeyError(f"node {node!r} does not appear in view {edge_type!r}")
        return self.view_embeddings[edge_type][view.graph.index_of(node)].copy()

    def embedding(self, node: NodeId) -> np.ndarray:
        """Final embedding of ``node``.

        With ``view_weighting="uniform"`` (the paper, Section III-C) this
        is the plain average of the node's view-specific embeddings; with
        ``"degree"`` (extension) each view is weighted by the node's
        degree inside it, down-weighting views where the node is
        peripheral.

        Nodes isolated in the training graph (possible after edge removal
        in link prediction) get the zero vector.
        """
        if not self.graph.has_node(node):
            raise KeyError(f"unknown node {node!r}")
        vectors = []
        weights = []
        for view in self.views:
            if view.graph.has_node(node):
                matrix = self.view_embeddings[view.edge_type]
                vectors.append(matrix[view.graph.index_of(node)])
                if self.config.view_weighting == "degree":
                    weights.append(float(view.graph.degree(node)))
                else:
                    weights.append(1.0)
        dtype = self.config.resolved_dtype
        if not vectors:
            return np.zeros(self.config.dim, dtype=dtype)
        weight_total = sum(weights)
        if weight_total <= 0:
            # np.average/np.mean upcast through their float64 weights
            return np.mean(vectors, axis=0).astype(dtype, copy=False)
        return np.average(vectors, axis=0, weights=weights).astype(
            dtype, copy=False
        )

    def embeddings(self) -> dict[NodeId, np.ndarray]:
        """Final embeddings for every node of the input graph."""
        return {node: self.embedding(node) for node in self.graph.nodes}

    def embedding_matrix(self, nodes: list[NodeId] | None = None) -> np.ndarray:
        """Embeddings stacked into an (n, d) matrix, rows following
        ``nodes`` (default: ``graph.nodes`` order)."""
        nodes = list(nodes) if nodes is not None else list(self.graph.nodes)
        return np.vstack([self.embedding(node) for node in nodes])

    def fit_transform(self) -> dict[NodeId, np.ndarray]:
        """``fit()`` followed by :meth:`embeddings`."""
        self.fit()
        return self.embeddings()

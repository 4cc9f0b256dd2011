"""TransN hyper-parameters and ablation switches."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.walks.policies import POLICY_NAMES


@dataclass(frozen=True)
class TransNConfig:
    """Everything Algorithm 1 needs, plus the Table V ablation switches.

    Scale note: the paper runs d=128, walk length 80, walks/node in
    [10, 32], H=6 encoders.  The defaults here are scaled down (see
    DESIGN.md §5) so the full benchmark sweep finishes on a laptop; every
    benchmark prints both settings.

    Attributes:
        dim: embedding dimensionality d.
        walk_length: nodes per sampled walk (paper: 80).
        walk_floor / walk_cap: the per-node walk-count policy
            ``max(min(degree, cap), floor)`` (paper: 10 / 32).
        num_iterations: outer iterations K of Algorithm 1.
        lr_single: SGD learning rate of the skip-gram updates.
        lr_cross: Adam learning rate of the translator parameters.
        lr_cross_embeddings: Adam learning rate of the common-node
            embedding rows updated by the cross-view algorithm (Theta_cross
            includes both; a higher embedding rate strengthens the
            cross-view alignment of view spaces, which the final averaging
            of Section III-C depends on).  The default is tuned for the
            batched one-step-per-direction regime, where common nodes
            receive one aggregated RowAdam step per direction per epoch
            instead of one per chunk (DESIGN.md §2).
        num_negatives: negative samples per skip-gram pair.
        num_encoders: encoders H per translator (paper: 6).
        cross_path_len: fixed path length fed to translators after
            common-node filtering (chunks; see
            :func:`repro.walks.corpus.chunk_paths`).
        cross_paths_per_pair: pairs of paths T sampled per view-pair per
            iteration.
        batch_size: skip-gram minibatch size.

        walk_policy: the per-view walk strategy (``docs/walk_policies.md``):
            "biased" (the paper's Eqs. 6-7, default), "uniform" (the
            simple-walk ablation), "node2vec" or "metapath".
        walk_p / walk_q: node2vec return/in-out parameters (node2vec
            policy only).

        use_cross_view: Table V "TransN-Without-Cross-View" when False.
        simple_translator: Table V "TransN-With-Simple-Translator" when
            True (a single feed-forward layer per translator).
        use_translation_tasks: Table V "TransN-Without-Translation-Tasks"
            when False.
        use_reconstruction_tasks: Table V
            "TransN-Without-Reconstruction-Tasks" when False.
        normalize_similarity: cosine-normalized similarity losses (the
            well-posed reading of Eqs. 11-14; see DESIGN.md §2).  False
            gives the literal unnormalized inner product, kept for the
            design-ablation bench.
        view_weighting: how a node's view-specific embeddings combine
            into its final embedding.  "uniform" is the paper's equal
            average (Section III-C); "degree" — an extension beyond the
            paper — weights each view by the node's degree in it, so a
            view where the node is peripheral contributes less.
        checkpoint_every: snapshot period (in outer iterations) used by
            :meth:`repro.core.TransN.fit` when a checkpoint directory is
            given.  Training infrastructure, not part of Algorithm 1.
        health_policy: when set, :meth:`repro.core.TransN.fit` attaches a
            :class:`repro.engine.NumericalHealthGuard` with this policy
            ("raise", "rollback", or "skip"); ``None`` disables the
            guard.  Training infrastructure, not part of Algorithm 1.
        workers: the shard count of the ``workers >= 1`` seed law (0 =
            every draw comes off the model RNG).  Any ``workers >= 1``
            draws each corpus block as ``workers`` shards seeded by
            :class:`repro.engine.ParallelRuntime` and each cross-view
            pair epoch from its own stream; everything runs in one
            process.  Results are deterministic for a fixed worker count
            but follow a different random stream than ``workers=0``
            (``docs/parallelism.md``).  Training infrastructure, not
            part of Algorithm 1.
        stream_corpus: must be True.  Every corpus draw is a stream of
            walk blocks consumed as they are sampled
            (``docs/performance.md``); the field stays so existing
            configurations that set it keep constructing.
        corpus_budget_mb: hard peak-memory budget (MiB) for the corpus
            data path and the cross-view step.  Walk-block
            sizes are derived from it
            (:func:`repro.engine.block_walks_for_budget`) and the
            pipeline raises if a block would exceed it; each cross-view
            direction runs its chunks in micro-batches sized from it
            (:func:`repro.engine.pipeline.cross_view_chunks_for_budget`),
            accumulating gradients into one optimizer step.  A budget
            too small for one walk or one chunk raises ``ValueError`` at
            :class:`~repro.core.TransN` construction; the cross-view
            minimum grows with ``cross_paths_per_pair × walk_length``
            (the rows one step can touch), not with the graph.  Budgeted runs are
            deterministic per budget; without one, a corpus draw is one
            block and a direction one batch.
        spill_dir: directory for on-disk corpus spill files.  The first
            corpus draw of each view is appended block-by-block to
            ``<spill_dir>/view<code>.spill``; later draws mmap-replay
            the file instead of re-walking the graph.
        on_spill_error: "degrade" (default) survives a corrupt,
            truncated, or unwritable spill file — the incident lands in
            the run report (``spill/degraded``), replay is disabled for
            the run, and the recorded draw is regenerated from seeds
            captured at record time (``docs/fault_tolerance.md``);
            "raise" propagates the error instead.
        dtype: "float64" (default; the determinism-golden layout) or
            "float32" — halves embedding, translator, and Adam-moment
            memory at a documented loss tolerance.
        seed: RNG seed for all randomness in the model.
    """

    dim: int = 32
    walk_length: int = 20
    walk_floor: int = 3
    walk_cap: int = 8
    num_iterations: int = 6
    lr_single: float = 0.08
    lr_cross: float = 0.01
    lr_cross_embeddings: float = 0.05
    num_negatives: int = 5
    num_encoders: int = 2
    cross_path_len: int = 6
    cross_paths_per_pair: int = 80
    batch_size: int = 256

    walk_policy: str = "biased"
    walk_p: float = 1.0
    walk_q: float = 1.0

    use_cross_view: bool = True
    simple_translator: bool = False
    use_translation_tasks: bool = True
    use_reconstruction_tasks: bool = True
    normalize_similarity: bool = True
    view_weighting: str = "uniform"

    checkpoint_every: int = 1
    health_policy: str | None = None
    workers: int = 0

    stream_corpus: bool = True
    corpus_budget_mb: float | None = None
    spill_dir: str | None = None
    on_spill_error: str = "degrade"
    dtype: str = "float64"

    seed: int = 0

    def __post_init__(self) -> None:
        # every constraint names the offending field and its value so a
        # bad sweep/CLI configuration fails at construction, not epochs in
        def require(condition: bool, field_name: str, rule: str) -> None:
            if not condition:
                raise ValueError(
                    f"TransNConfig.{field_name} {rule}, "
                    f"got {getattr(self, field_name)!r}"
                )

        require(self.dim >= 1, "dim", "must be >= 1")
        require(self.walk_length >= 2, "walk_length", "must be >= 2")
        require(self.walk_floor >= 1, "walk_floor", "must be >= 1")
        require(
            self.walk_cap >= self.walk_floor,
            "walk_cap",
            f"must be >= walk_floor ({self.walk_floor})",
        )
        require(self.num_iterations >= 1, "num_iterations", "must be >= 1")
        for name in ("lr_single", "lr_cross", "lr_cross_embeddings"):
            rate = getattr(self, name)
            require(
                math.isfinite(rate) and rate > 0, name, "must be finite and > 0"
            )
        require(self.num_negatives >= 1, "num_negatives", "must be >= 1")
        require(self.num_encoders >= 1, "num_encoders", "must be >= 1")
        require(self.cross_path_len >= 2, "cross_path_len", "must be >= 2")
        require(
            self.cross_paths_per_pair >= 1,
            "cross_paths_per_pair",
            "must be >= 1",
        )
        require(self.batch_size >= 1, "batch_size", "must be >= 1")
        require(self.checkpoint_every >= 1, "checkpoint_every", "must be >= 1")
        require(self.workers >= 0, "workers", "must be >= 0")
        require(
            self.stream_corpus is True,
            "stream_corpus",
            "must be True (every corpus is streamed)",
        )
        if self.dtype not in ("float32", "float64"):
            raise ValueError(
                f"unknown dtype {self.dtype!r}; "
                "expected 'float32' or 'float64'"
            )
        if self.corpus_budget_mb is not None:
            require(
                self.corpus_budget_mb > 0,
                "corpus_budget_mb",
                "must be > 0",
            )
        if self.on_spill_error not in ("degrade", "raise"):
            raise ValueError(
                f"unknown on_spill_error {self.on_spill_error!r}; "
                "expected 'degrade' or 'raise'"
            )
        if self.walk_policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown walk_policy {self.walk_policy!r}; "
                f"choose from {POLICY_NAMES}"
            )
        require(self.walk_p > 0, "walk_p", "must be > 0")
        require(self.walk_q > 0, "walk_q", "must be > 0")
        if self.view_weighting not in ("uniform", "degree"):
            raise ValueError(
                f"unknown view_weighting {self.view_weighting!r}; "
                "expected 'uniform' or 'degree'"
            )
        if self.health_policy not in (None, "raise", "rollback", "skip"):
            raise ValueError(
                f"unknown health_policy {self.health_policy!r}; "
                "expected None, 'raise', 'rollback', or 'skip'"
            )
        if not (self.use_translation_tasks or self.use_reconstruction_tasks):
            if self.use_cross_view:
                raise ValueError(
                    "cross-view training needs at least one of the "
                    "translation/reconstruction tasks enabled"
                )

    @property
    def resolved_dtype(self):
        """The numpy dtype every trainable array is allocated in."""
        import numpy as np

        return np.dtype(self.dtype)

    @property
    def corpus_budget_bytes(self) -> int | None:
        """``corpus_budget_mb`` in bytes (``None`` when unset)."""
        if self.corpus_budget_mb is None:
            return None
        return int(self.corpus_budget_mb * 1024 * 1024)

    # ------------------------------------------------------------------
    # Table V presets
    # ------------------------------------------------------------------
    def without_cross_view(self) -> "TransNConfig":
        return replace(self, use_cross_view=False)

    def with_simple_walk(self) -> "TransNConfig":
        return replace(self, walk_policy="uniform")

    def with_simple_translator(self) -> "TransNConfig":
        return replace(self, simple_translator=True)

    def without_translation_tasks(self) -> "TransNConfig":
        return replace(self, use_translation_tasks=False)

    def without_reconstruction_tasks(self) -> "TransNConfig":
        return replace(self, use_reconstruction_tasks=False)

    @staticmethod
    def paper_scale() -> "TransNConfig":
        """The parameters of Section IV-A3, as published."""
        return TransNConfig(
            dim=128,
            walk_length=80,
            walk_floor=10,
            walk_cap=32,
            num_encoders=6,
            lr_single=0.025,
        )

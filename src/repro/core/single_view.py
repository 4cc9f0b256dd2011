"""The single-view algorithm (Section III-A).

Per view: sample biased correlated random walks, extract context pairs
under the Definition-6 window (1 on homo-views, 2 on heter-views), and
run skip-gram-with-negative-sampling SGD steps on the view-specific
embedding matrix.  Batching and negative sampling go through the shared
:class:`repro.engine.StreamingCorpusPipeline`.
"""

from __future__ import annotations

import copy
from pathlib import Path
from typing import Iterator

from repro.engine import StreamingCorpusPipeline
from repro.engine.observability import NULL_REGISTRY, MetricsRegistry
from repro.engine.parallel import ParallelRuntime, single_view_seed
from repro.engine.pipeline import block_walks_for_budget
from repro.graph.views import View
from repro.skipgram import SkipGramTrainer, window_for_view
from repro.walks import (
    BiasedCorrelatedPolicy,
    LockstepWalker,
    WalkPolicy,
    build_corpus,  # noqa: F401 - perfbench/ledger.py patches this name
)
from repro.walks.corpus import (
    WalkCorpus,
    corpus_index_dtype,
    stream_corpus as stream_walk_corpus,
)
from repro.walks.spill import SpillFormatError, SpillReader, SpillWriter

import numpy as np


class SingleViewTrainer:
    """Owns one view's walks, batch pipeline, and SGNS updates.

    Args:
        view: the view to train on.
        embeddings: the view-specific embedding matrix, shape
            (view.num_nodes, dim), indexed by ``view.graph.index_of``;
            shared with the cross-view trainer and updated in place.
        policy: an explicit :class:`repro.walks.WalkPolicy` instance for
            this view (the pluggable strategy layer); ``None`` selects
            the paper's biased-correlated walk.
        walk_length / walk_floor / walk_cap: corpus parameters.
        num_negatives: negatives per positive pair.
        batch_size: SGD minibatch size.
        rng: the model's random source.
        optimizer: row optimizer of the SGNS matrices (``"sgd"`` is the
            paper-faithful word2vec update; ``"adam"`` is the engine
            extension).
        parallel: a :class:`repro.engine.ParallelRuntime` to build
            corpora on (``None`` draws every walk from ``rng``, the
            determinism-golden path).
        seed / view_code: key the deterministic per-draw seed stream of
            the parallel path (``single_view_seed(seed, view_code, t)``);
            unused when ``parallel`` is ``None``.
        corpus_budget_bytes: hard peak-memory budget for the corpus data
            path; sizes blocks via
            :func:`repro.engine.block_walks_for_budget`.  Without it, a
            corpus draw is one block.
        spill_path: corpus spill file.  When the file exists it is
            mmap-replayed instead of walking the view; otherwise the
            next draw's blocks are recorded to it (atomically — a
            half-written draw leaves no file).
        on_spill_error: ``"degrade"`` (default) survives a corrupt,
            truncated, or unwritable spill — the incident is recorded
            (``spill/degraded`` counter + event), the spill is disabled
            for the rest of the run, and each epoch regenerates the
            recorded draw from state captured at record time (parallel:
            the draw's seed sequence, so the walks are bit-identical to
            the lost file; serial: the pre-draw RNG state restored into
            an isolated generator, exact for single-block draws).
            ``"raise"`` propagates the error instead.
    """

    def __init__(
        self,
        view: View,
        embeddings: np.ndarray,
        rng: np.random.Generator,
        walk_length: int = 20,
        walk_floor: int = 3,
        walk_cap: int = 8,
        num_negatives: int = 5,
        batch_size: int = 256,
        optimizer: str = "sgd",
        policy: WalkPolicy | None = None,
        parallel: ParallelRuntime | None = None,
        seed: int = 0,
        view_code: int = 0,
        corpus_budget_bytes: int | None = None,
        spill_path: str | Path | None = None,
        on_spill_error: str = "degrade",
    ) -> None:
        if on_spill_error not in ("degrade", "raise"):
            raise ValueError(
                f"on_spill_error must be 'degrade' or 'raise', "
                f"got {on_spill_error!r}"
            )
        if embeddings.shape[0] != view.num_nodes:
            raise ValueError(
                f"embedding rows ({embeddings.shape[0]}) != view nodes "
                f"({view.num_nodes})"
            )
        self.view = view
        self.rng = rng
        self.walk_length = walk_length
        self.walk_floor = walk_floor
        self.walk_cap = walk_cap
        self.num_negatives = num_negatives
        self.batch_size = batch_size
        self.window = window_for_view(view)
        self.policy = policy if policy is not None else BiasedCorrelatedPolicy()
        self.walker = LockstepWalker(view, self.policy, rng=rng)
        self.trainer = SkipGramTrainer(embeddings, rng=rng, optimizer=optimizer)
        self.metrics: MetricsRegistry = NULL_REGISTRY
        self._last_corpus: WalkCorpus | None = None
        self.parallel = parallel
        self.seed = seed
        self.view_code = view_code
        self._draws = 0  # monotonic corpus-draw clock, checkpointed
        self.corpus_budget_bytes = corpus_budget_bytes
        self.spill_path = Path(spill_path) if spill_path is not None else None
        self.on_spill_error = on_spill_error
        self._spill_disabled = False
        #: regeneration state captured at record time (mode + seed or
        #: RNG state); lets a degraded run re-derive the lost draw
        self._spill_recording: dict | None = None
        # compact int32 blocks halve a budgeted block and a spill file;
        # unbudgeted draws keep int64 indices: with int32 ones the first
        # single-view epoch of a process ran about 25% slower (measured
        # on perfbench's fit-sgns graph)
        self._index_dtype = (
            corpus_index_dtype(view.num_nodes)
            if corpus_budget_bytes is not None or spill_path is not None
            else np.dtype(np.int64)
        )
        self._block_walks = (
            None
            if corpus_budget_bytes is None
            else block_walks_for_budget(
                corpus_budget_bytes,
                walk_length,
                self.window,
                num_negatives,
                batch_size,
                itemsize=self._index_dtype.itemsize,
            )
        )
        self.pipeline = StreamingCorpusPipeline(
            sample_blocks=self.sample_blocks,
            num_nodes=view.num_nodes,
            window=self.window,
            num_negatives=num_negatives,
            batch_size=batch_size,
            rng=rng,
            budget_bytes=corpus_budget_bytes,
            noise_dtype=embeddings.dtype,
        )

    # ------------------------------------------------------------------
    # corpus draws
    # ------------------------------------------------------------------
    def sample_blocks(self) -> Iterator[WalkCorpus]:
        """One corpus draw as a lazy stream of walk blocks.

        Serial (``parallel=None``): blocks come off the shared trainer
        RNG.  With a runtime, blocks derive from the per-draw seed
        stream (``docs/parallelism.md``).  Without a budget a draw is
        one block.  The newest block is kept so :meth:`evaluate_loss`
        can score monitoring pairs without resampling the whole view.

        With a :attr:`spill_path`, an existing file is CRC-verified and
        mmap-replayed (no walking, no RNG consumption); otherwise this
        draw is recorded to it while streaming through.  Under
        ``on_spill_error="degrade"`` a corrupt or unwritable spill never
        aborts the run — see :meth:`_regenerate_blocks`.
        """
        if self._spill_disabled:
            return self._track_last(self._regenerate_blocks())
        if self.spill_path is not None and self.spill_path.exists():
            reader = self._open_replay()
            if reader is None:  # degraded: _spill_incident already logged
                return self._track_last(self._regenerate_blocks())
            return self._track_last(self._replay_blocks(reader))
        recording = self.spill_path is not None
        if self.parallel is None:
            if recording:
                # captured *before* any draw: restoring this state into an
                # isolated generator re-derives the recorded walks without
                # consuming self.rng (replay consumes nothing either)
                self._spill_recording = {
                    "mode": "serial",
                    "state": copy.deepcopy(self.rng.bit_generator.state),
                }
            blocks = self._serial_blocks(self.walker, self.rng)
        else:
            seed_seq = single_view_seed(self.seed, self.view_code, self._draws)
            self._draws += 1
            if recording:
                self._spill_recording = {
                    "mode": "parallel",
                    "seed_seq": seed_seq,
                }
            blocks = self._parallel_blocks(seed_seq)
        if recording:
            blocks = self._record_blocks(blocks)
        return self._track_last(blocks)

    def _serial_blocks(
        self, walker: LockstepWalker, rng: np.random.Generator
    ) -> Iterator[WalkCorpus]:
        return stream_walk_corpus(
            self.view,
            walker,
            length=self.walk_length,
            floor=self.walk_floor,
            cap=self.walk_cap,
            rng=rng,
            block_walks=self._block_walks,
            index_dtype=self._index_dtype,
        )

    def _parallel_blocks(
        self, seed_seq: np.random.SeedSequence
    ) -> Iterator[WalkCorpus]:
        return self.parallel.stream_corpus(
            self.view,
            self.policy,
            length=self.walk_length,
            block_walks=self._block_walks,
            floor=self.walk_floor,
            cap=self.walk_cap,
            seed_seq=seed_seq,
            index_dtype=self._index_dtype,
            label=f"single_view/{self.view.edge_type}",
        )

    def _spill_incident(self, stage: str, error: BaseException) -> None:
        """Record a spill failure and disable the spill for this run.

        Under ``on_spill_error="raise"`` the error propagates instead;
        under ``"degrade"`` every later draw goes through
        :meth:`_regenerate_blocks`.
        """
        if self.on_spill_error == "raise":
            raise error
        self._spill_disabled = True
        self.metrics.incident(
            "spill/degraded",
            "spill unusable; replay disabled, regenerating the draw",
            view=str(self.view.edge_type),
            stage=stage,
            path=str(self.spill_path),
            error=repr(error),
        )

    def _open_replay(self) -> SpillReader | None:
        """Open the spill and CRC-scan every block before replaying.

        Verifying upfront means corruption is found before a single walk
        reaches training (a mid-epoch discovery would force an epoch
        restart); the scan is one sequential CRC pass over the file.
        Returns ``None`` after degrading on any format/IO error.
        """
        reader = None
        try:
            reader = SpillReader(self.spill_path)
            reader.verify()
            return reader
        except (OSError, SpillFormatError) as error:
            if reader is not None:
                reader.close()
            self._spill_incident("replay", error)
            return None

    def _regenerate_blocks(self) -> Iterator[WalkCorpus]:
        """Stand-in for a lost replay: re-derive the recorded draw.

        Parallel mode replays the recorded draw's seed sequence — block
        content is a pure function of it, so the stream is bit-identical
        to the lost file and the whole run matches its fault-free twin.
        Serial mode restores the captured pre-draw RNG state into an
        isolated generator: exact for draws that fit one block (the
        pipeline draws negatives from the shared RNG *between* blocks of
        larger draws, which an isolated replay cannot see).  If nothing
        was captured (the spill predates this process), a fresh draw
        keeps training alive at the cost of determinism vs the recording
        run.
        """
        recording = self._spill_recording
        if recording is None:
            if self.parallel is None:
                yield from self._serial_blocks(self.walker, self.rng)
            else:
                seed_seq = single_view_seed(
                    self.seed, self.view_code, self._draws
                )
                self._draws += 1
                yield from self._parallel_blocks(seed_seq)
            return
        if recording["mode"] == "parallel":
            yield from self._parallel_blocks(recording["seed_seq"])
            return
        bitgen = type(self.rng.bit_generator)()
        bitgen.state = copy.deepcopy(recording["state"])
        regen_rng = np.random.Generator(bitgen)
        walker = LockstepWalker(self.view, self.policy, rng=regen_rng)
        yield from self._serial_blocks(walker, regen_rng)

    def _track_last(self, blocks) -> Iterator[WalkCorpus]:
        """Remember the newest block for :meth:`evaluate_loss`."""
        for block in blocks:
            self._last_corpus = block
            yield block

    def _record_blocks(self, blocks) -> Iterator[WalkCorpus]:
        """Tee blocks into the spill file; finalize only on exhaustion.

        An interrupted draw aborts the temp file (also via the writer's
        GC hook when the generator is dropped mid-stream), so a partial
        recording is never replayed.  An ``OSError`` while writing (disk
        full, say) degrades under ``on_spill_error="degrade"``: recording
        stops, the incident is logged, and the draw keeps streaming to
        training untouched — the walks themselves never depended on the
        disk.
        """
        writer = SpillWriter(
            self.spill_path, self.walk_length, self._index_dtype
        )
        try:
            for block in blocks:
                if writer is not None:
                    try:
                        writer.append(block.matrix, block.lengths)
                    except OSError as error:
                        writer.abort()
                        writer = None
                        self._spill_incident("record", error)
                yield block
            if writer is not None:
                try:
                    writer.finalize()
                except OSError as error:
                    writer.abort()
                    writer = None
                    self._spill_incident("record", error)
        except BaseException:
            if writer is not None:
                writer.abort()
            raise

    def _replay_blocks(self, reader: SpillReader) -> Iterator[WalkCorpus]:
        """Stream the spilled corpus back through the kernel page cache."""
        with reader:
            yield from reader.corpora(self.view.graph)

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Route this view's metrics (and the inner SGNS trainer's
        per-batch gradient/negative-sampling stats) into ``metrics``,
        namespaced by the view's edge type."""
        self.metrics = metrics
        self.trainer.metrics = metrics
        self.trainer.metric_prefix = f"single_view/{self.view.edge_type}/"
        self.pipeline.metrics = metrics
        self.pipeline.metric_prefix = f"single_view/{self.view.edge_type}/"

    def train_epoch(self, lr: float) -> float:
        """One pass (lines 4-7 of Algorithm 1): returns the mean SGNS loss."""
        total, batches, pairs = 0.0, 0, 0
        for batch in self.pipeline.epoch():
            total += self.trainer.train_batch(
                batch.centers, batch.contexts, batch.negatives, lr=lr
            )
            batches += 1
            pairs += batch.centers.size
        mean = total / batches if batches else 0.0
        if self.metrics.enabled:
            label = self.view.edge_type
            self.metrics.observe(f"single_view/{label}/loss", mean)
            self.metrics.counter(f"single_view/{label}/batches", batches)
            self.metrics.counter(f"single_view/{label}/pairs", pairs)
        return mean

    # ------------------------------------------------------------------
    # checkpoint protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything this trainer mutates during training: the SGNS
        context matrix + optimizer moments, and the pipeline's noise
        counts.  The view-specific embedding matrix is excluded —
        the model owns it (it is shared with the cross-view trainer) and
        snapshots it once.  The cached monitoring corpus is transient and
        deliberately not saved."""
        return {
            "skipgram": self.trainer.state_dict(),
            "pipeline": self.pipeline.state_dict(),
            "corpus_draws": self._draws,
        }

    def load_state_dict(self, state: dict) -> None:
        self.trainer.load_state_dict(state["skipgram"])
        self.pipeline.load_state_dict(state["pipeline"])
        # a "walk_scale" key (older checkpoints) is ignored: it is 1, the
        # counts this trainer draws, for every policy that still exists
        # pre-parallel checkpoints lack the draw clock; 0 matches their
        # serial path, which never reads it
        self._draws = int(state.get("corpus_draws", 0))
        self._last_corpus = None

    def _monitoring_corpus(self, num_pairs: int) -> WalkCorpus:
        """A corpus to draw monitoring pairs from — the last training
        epoch's corpus when one exists, otherwise a bounded fresh draw.

        The bounded draw samples just enough walks from random start nodes
        to cover ``num_pairs`` context pairs, instead of resampling the
        entire view under the degree-based count policy (which on large
        views costs as much as a training epoch's sampling).
        """
        if self._last_corpus is not None:
            return self._last_corpus
        num_walks = max(4, -(-num_pairs // self.walk_length))
        starts = self.rng.integers(
            self.view.num_nodes, size=num_walks
        ).astype(np.int64)
        matrix, lengths = self.walker.walk_batch(starts, self.walk_length)
        return WalkCorpus(matrix, lengths, self.walk_length, self.view.graph)

    def evaluate_loss(self, num_pairs: int = 512) -> float:
        """Monitoring loss on a sample of pairs (no updates)."""
        corpus = self._monitoring_corpus(num_pairs)
        centers, contexts = self.pipeline.pairs(corpus)
        if centers.size == 0:
            return 0.0
        take = min(num_pairs, centers.size)
        pick = self.rng.choice(centers.size, size=take, replace=False)
        noise = self.pipeline.noise(corpus)
        negatives = noise.sample(self.rng, size=take * self.num_negatives)
        return self.trainer.loss_batch(
            centers[pick],
            contexts[pick],
            negatives.reshape(take, self.num_negatives),
        )

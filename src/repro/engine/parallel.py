"""The ``workers >= 1`` seed law: sharded corpus draws and per-pair
cross-view streams.

Algorithm 1 is a sequential loop over view trainers and view-pair
trainers.  ``workers=0`` runs it on the model RNG and never constructs a
:class:`ParallelRuntime`.  ``workers=N >= 1`` keeps the same loop but
draws every random number from a :class:`numpy.random.SeedSequence`
keyed on ``(seed, phase tag, view/pair id, draw index)``:

* a corpus draw cuts its start nodes into blocks (one block without a
  budget); block ``b`` splits into ``N`` contiguous shards and derives
  ``N + 1`` children by spawn key ``spawn_key + (b, k)``.  Shard ``k``
  is walked with child ``k`` (an empty shard still reserves it) and the
  last child shuffles the block;
* each view-pair's cross-view epoch draws from
  :func:`pair_rng` ``(seed, pair index, step)``, and the pairs run in
  :func:`conflict_waves` order.

Everything runs in the calling process; ``N`` only picks the shard
count, so a fixed ``N`` (and block size) reproduces exactly
(``docs/parallelism.md``).
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.engine.observability import MetricsRegistry, NullRegistry
from repro.graph.csr import csr_adjacency
from repro.graph.heterograph import HeteroGraph
from repro.graph.views import View
from repro.walks.batched import LockstepWalker
from repro.walks.corpus import WalkCorpus, walk_start_nodes
from repro.walks.policies import WalkPolicy, _resolve_graph

#: SeedSequence phase tags — keep single-view and cross-view streams
#: disjoint even when a view code and a pair index collide numerically.
SINGLE_VIEW_TAG = 1
CROSS_VIEW_TAG = 2


def single_view_seed(
    seed: int, view_code: int, draw: int
) -> np.random.SeedSequence:
    """The root seed of one view's ``draw``-th corpus build."""
    return np.random.SeedSequence((seed, SINGLE_VIEW_TAG, view_code, draw))


def pair_rng(seed: int, pair_index: int, step: int) -> np.random.Generator:
    """The generator driving one view-pair's ``step``-th cross-view epoch."""
    return np.random.default_rng(
        np.random.SeedSequence((seed, CROSS_VIEW_TAG, pair_index, step))
    )


def conflict_waves(keys: Sequence[tuple[Any, Any]]) -> list[list[int]]:
    """Greedily color pair keys into waves of view-disjoint pairs.

    ``keys[i]`` is the ``(edge_type_i, edge_type_j)`` key of pair ``i``.
    Returns index waves in first-fit order — deterministic for a fixed
    key list, and every wave's pairs touch pairwise-disjoint views.
    :meth:`ParallelRuntime.train_pairs` runs pairs in this order, which
    differs from key order whenever a later pair fits an earlier wave.
    """
    waves: list[tuple[list[int], set]] = []
    for index, (a, b) in enumerate(keys):
        for members, used in waves:
            if a not in used and b not in used:
                members.append(index)
                used.update((a, b))
                break
        else:
            waves.append(([index], {a, b}))
    return [members for members, _ in waves]


class ParallelRuntime:
    """Runs the ``workers >= 1`` seed law for one model fit.

    Args:
        workers: the shard count of every corpus block.
        metrics: registry for the corpus-build and wave instrumentation.
    """

    def __init__(
        self, workers: int, metrics: MetricsRegistry | None = None
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.bind_metrics(metrics if metrics is not None else NullRegistry())

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Point the runtime's instrumentation at a live registry."""
        self._metrics = metrics
        self._metrics.gauge("parallel/workers", self.workers)

    # -- corpus generation ---------------------------------------------
    def build_corpus(
        self,
        view_or_graph: View | HeteroGraph,
        policy: WalkPolicy,
        *,
        length: int,
        floor: int = 10,
        cap: int = 32,
        walks_per_node_override: int | None = None,
        seed_seq: np.random.SeedSequence,
        label: str = "corpus",
    ) -> WalkCorpus:
        """The one-block case of :meth:`stream_corpus`: the whole corpus,
        sharded and shuffled once."""
        blocks = self.stream_corpus(
            view_or_graph,
            policy,
            length=length,
            floor=floor,
            cap=cap,
            walks_per_node_override=walks_per_node_override,
            seed_seq=seed_seq,
            label=label,
        )
        corpus = next(blocks, None)
        if corpus is not None:
            return corpus
        return WalkCorpus(
            np.empty((0, length), dtype=np.int64),
            np.empty(0, dtype=np.int64),
            length,
            _resolve_graph(view_or_graph)[0],
        )

    def stream_corpus(
        self,
        view_or_graph: View | HeteroGraph,
        policy: WalkPolicy,
        *,
        length: int,
        block_walks: int | None = None,
        floor: int = 10,
        cap: int = 32,
        walks_per_node_override: int | None = None,
        seed_seq: np.random.SeedSequence,
        index_dtype: np.dtype | None = None,
        label: str = "corpus",
    ) -> Iterator[WalkCorpus]:
        """Lazily yield the corpus as blocks of at most ``block_walks``.

        Starts follow the serial law (:func:`walk_start_nodes`) and are
        cut into consecutive blocks (``None``: one block), so only one
        block's walks are ever resident.  Block ``b`` spawns
        ``workers + 1`` children with ``spawn_key + (b, k)``: shard ``k``
        of the block's ``workers`` contiguous shards consumes child ``k``
        (even when the shard is empty) and the last child shuffles the
        block.  The stream therefore depends only on
        ``(seed_seq, block_walks, workers)``.

        ``index_dtype`` casts each block's matrix (int32 compact mode)
        before it is yielded.
        """
        if length < 2:
            raise ValueError(f"walk length must be >= 2, got {length}")
        if block_walks is not None and block_walks < 1:
            raise ValueError(
                f"block_walks must be >= 1, got {block_walks}"
            )
        walker = LockstepWalker(view_or_graph, policy)
        starts = walk_start_nodes(
            csr_adjacency(walker.graph).degrees,
            policy=walker.policy,
            floor=floor,
            cap=cap,
            walks_per_node_override=walks_per_node_override,
        )
        self._metrics.counter("parallel/corpus_builds")
        self._metrics.observe(f"parallel/{label}/walks", starts.size)
        step = starts.size if block_walks is None else block_walks
        for b, begin in enumerate(range(0, starts.size, max(step, 1))):
            block_starts = starts[begin : begin + step]
            # stateless spawn: SeedSequence.spawn() advances an internal
            # child counter, so reusing a seed_seq would silently change
            # the draw — derive children by spawn_key instead
            children = [
                np.random.SeedSequence(
                    entropy=seed_seq.entropy,
                    spawn_key=seed_seq.spawn_key + (b, k),
                )
                for k in range(self.workers + 1)
            ]
            parts = [
                walker.walk_batch(
                    shard, length, rng=np.random.default_rng(children[k])
                )
                for k, shard in enumerate(
                    np.array_split(block_starts, self.workers)
                )
                if shard.size
            ]
            matrix = np.concatenate([m for m, _ in parts])
            lengths = np.concatenate([ln for _, ln in parts])
            order = np.random.default_rng(children[-1]).permutation(
                matrix.shape[0]
            )
            matrix = matrix[order]
            if index_dtype is not None:
                matrix = matrix.astype(index_dtype, copy=False)
            yield WalkCorpus(matrix, lengths[order], length, walker.graph)

    # -- cross-view pairs ----------------------------------------------
    def train_pairs(
        self,
        trainers: Sequence[Any],
        rngs: Sequence[np.random.Generator],
    ) -> list[Any]:
        """Run every pair trainer's epoch in :func:`conflict_waves` order.

        ``rngs[i]`` drives trainer ``i`` (one stream per pair per step —
        see :func:`pair_rng`).  Returns each ``train_epoch`` result in
        trainer order.
        """
        if len(trainers) != len(rngs):
            raise ValueError(
                f"{len(trainers)} trainers but {len(rngs)} rngs"
            )
        results: list[Any] = [None] * len(trainers)
        waves = conflict_waves([t.pair.key for t in trainers])
        for wave in waves:
            for i in wave:
                results[i] = trainers[i].train_epoch(rng=rngs[i])
        self._metrics.gauge("parallel/cross_view/waves", len(waves))
        return results

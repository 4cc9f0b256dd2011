"""Index-space walk corpora shared by TransN and the walk-based baselines.

A :class:`WalkCorpus` is a dense ``(num_walks, length)`` int64 matrix of
node *indices* plus a per-walk length array — the exact representation the
lockstep engines in :mod:`repro.walks.batched` emit.  Every corpus
operation downstream of walk sampling (pair extraction, noise counts,
cross-view filtering, re-chunking) is an array transformation of that
matrix, so the walk → skip-gram-batch pipeline never leaves NumPy.

Slots past a walk's end hold :data:`~repro.walks.batched.PAD` (``-1``);
``lengths[i]`` is the number of real nodes of walk ``i``.  Scalar walkers
(:class:`~repro.walks.walker.ReferenceWalker`) produce node-ID lists;
:meth:`WalkCorpus.from_paths` packs those into the same matrix form.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from repro.graph.csr import csr_adjacency
from repro.graph.heterograph import HeteroGraph, NodeId
from repro.graph.views import View
from repro.walks.batched import PAD, LockstepWalker
from repro.walks.policies import WalkPolicy
from repro.walks.policy import walk_counts


class Walker(Protocol):
    """A scalar walker: ``walk(start, length) -> list[NodeId]``."""

    def walk(self, start: NodeId, length: int) -> list[NodeId]: ...


class BatchedWalker(Protocol):
    """A lockstep walker: ``walk_batch(starts, length) -> (matrix, lengths)``."""

    def walk_batch(
        self, starts: np.ndarray, length: int
    ) -> tuple[np.ndarray, np.ndarray]: ...


class WalkCorpus:
    """A bag of sampled paths over one graph/view, in index space.

    Attributes:
        matrix: ``(num_walks, length)`` node-index matrix, ``-1`` past
            each walk's end.  The index dtype is ``int64`` by default;
            ``int32`` matrices (the streaming/spill compact mode for
            graphs with fewer than ``2**31`` nodes) pass through
            unchanged, halving corpus bytes.
        lengths: ``(num_walks,)`` int64 real length per walk.
        length: the requested walk length (walks may be shorter if they
            got stuck on a neighbour-less node).
        graph: the graph whose index space the matrix lives in; optional
            (``None`` leaves ID translation unavailable but every array
            operation intact).
    """

    def __init__(
        self,
        matrix: np.ndarray,
        lengths: np.ndarray,
        length: int,
        graph: HeteroGraph | None = None,
    ) -> None:
        matrix = np.asarray(matrix)
        if matrix.dtype not in (np.int32, np.int64):
            matrix = matrix.astype(np.int64)
        self.matrix = matrix
        self.lengths = np.asarray(lengths, dtype=np.int64)
        if self.matrix.ndim != 2:
            raise ValueError(
                f"corpus matrix must be 2-D, got shape {self.matrix.shape}"
            )
        if self.lengths.shape != (self.matrix.shape[0],):
            raise ValueError(
                f"lengths shape {self.lengths.shape} does not match "
                f"{self.matrix.shape[0]} walks"
            )
        self.length = length
        self.graph = graph

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_paths(
        cls,
        paths: Sequence[Sequence],
        length: int,
        graph: HeteroGraph | None = None,
    ) -> "WalkCorpus":
        """Pack variable-length paths into the dense matrix form.

        With ``graph``, paths are node-ID sequences mapped through
        ``graph.index_of``; without, they must already be integer indices.
        """
        width = max((len(p) for p in paths), default=0)
        width = max(width, length)
        matrix = np.full((len(paths), width), PAD, dtype=np.int64)
        lengths = np.zeros(len(paths), dtype=np.int64)
        for i, path in enumerate(paths):
            row = (
                [graph.index_of(n) for n in path]
                if graph is not None
                else list(path)
            )
            matrix[i, : len(row)] = row
            lengths[i] = len(row)
        return cls(matrix, lengths, length, graph)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.matrix.shape[0])

    def __iter__(self) -> Iterator[np.ndarray]:
        """Iterate trimmed index rows (one 1-D array per walk)."""
        for i in range(self.matrix.shape[0]):
            yield self.matrix[i, : self.lengths[i]]

    def paths(self) -> list[list[NodeId]]:
        """The walks as node-ID lists (requires ``graph``)."""
        if self.graph is None:
            raise ValueError("corpus has no graph to translate indices with")
        node_at = self.graph.node_at
        return [[node_at(int(i)) for i in row] for row in self]

    def frequency_counts(self, num_nodes: int) -> np.ndarray:
        """Occurrence count per node index — the skip-gram noise counts.

        One ``np.unique`` over the (valid part of the) index matrix.
        Counts accumulate in the corpus index dtype (int64, or int32 for
        compact corpora) rather than float64 — the values are identical
        once the noise distribution casts them, and an int32 corpus keeps
        its count array at half the bytes too.
        """
        counts = np.zeros(num_nodes, dtype=self.matrix.dtype)
        flat = self.matrix[self.matrix != PAD]
        if flat.size:
            present, present_counts = np.unique(flat, return_counts=True)
            counts[present] = present_counts
        return counts

    def node_frequencies(self) -> dict[NodeId, int]:
        """Occurrence counts keyed by node ID (index when no graph)."""
        flat = self.matrix[self.matrix != PAD]
        present, present_counts = np.unique(flat, return_counts=True)
        if self.graph is None:
            return {
                int(i): int(c) for i, c in zip(present, present_counts)
            }
        node_at = self.graph.node_at
        return {
            node_at(int(i)): int(c) for i, c in zip(present, present_counts)
        }


def extract_index_pairs(
    corpus: WalkCorpus, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """All Definition-6 (center, context) index pairs of ``corpus``.

    Vectorized over the whole matrix: for each offset ``d`` in
    ``1..window`` the pairs ``(n_k, n_{k+d})`` and ``(n_{k+d}, n_k)`` of
    every walk are two strided slices; masking by walk length drops the
    padding.  Pair multiset equals the scalar per-walk window scan; the
    ordering is offset-major instead of walk-major (corpora are shuffled,
    so SGD sees the same mix).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    matrix, lengths = corpus.matrix, corpus.lengths
    width = matrix.shape[1]
    centers: list[np.ndarray] = []
    contexts: list[np.ndarray] = []
    for d in range(1, window + 1):
        if matrix.shape[0] == 0 or d >= width:
            break
        left = matrix[:, : width - d]
        right = matrix[:, d:]
        valid = (np.arange(width - d)[None, :] + d) < lengths[:, None]
        a, b = left[valid], right[valid]
        centers.append(a)
        contexts.append(b)
        centers.append(b)
        contexts.append(a)
    if not centers:
        empty = np.empty(0, dtype=matrix.dtype)
        return empty, empty.copy()
    return np.concatenate(centers), np.concatenate(contexts)


def walk_start_nodes(
    degrees: np.ndarray,
    policy: WalkPolicy | None = None,
    floor: int = 10,
    cap: int = 32,
    walks_per_node_override: int | None = None,
    count_scale: float = 1.0,
) -> np.ndarray:
    """The start-index law of every corpus draw, standalone.

    Given a view's per-node degree array this applies, in order: the
    degree-based count policy (or a fixed override), isolated-node
    zeroing, the balancer's ``count_scale`` (keeping >= 1 walk where any
    was due), and the policy's start restriction — and repeats each node
    index by its final count.  The ``workers >= 1`` corpus builder shares
    this function with the serial path so both build byte-identical
    start arrays before sharding.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    num_nodes = degrees.size
    if walks_per_node_override is not None:
        counts = np.full(num_nodes, walks_per_node_override, dtype=np.int64)
    else:
        counts = walk_counts(degrees, floor=floor, cap=cap)
    counts = np.where(degrees > 0, counts, 0)  # isolated nodes start nothing
    if count_scale != 1.0:
        if count_scale <= 0:
            raise ValueError(f"count_scale must be > 0, got {count_scale}")
        counts = np.where(
            counts > 0,
            np.maximum(np.rint(counts * count_scale).astype(np.int64), 1),
            0,
        )
    if policy is not None:
        allowed = policy.start_indices()
        if allowed is not None:
            mask = np.zeros(num_nodes, dtype=bool)
            mask[allowed] = True
            counts = np.where(mask, counts, 0)
    return np.repeat(np.arange(num_nodes, dtype=np.int64), counts)


def build_corpus(
    view_or_graph: View | HeteroGraph,
    walker: Walker | BatchedWalker | WalkPolicy,
    length: int,
    floor: int = 10,
    cap: int = 32,
    walks_per_node_override: int | None = None,
    rng: np.random.Generator | None = None,
    count_scale: float = 1.0,
) -> WalkCorpus:
    """Sample walks from every node under the degree-based count policy.

    The one-block case of :func:`stream_corpus`: the whole corpus is one
    walker call over every start, then one shuffle.  Arguments are those
    of :func:`stream_corpus`; an empty start law gives an empty corpus.
    """
    blocks = stream_corpus(
        view_or_graph,
        walker,
        length,
        floor=floor,
        cap=cap,
        walks_per_node_override=walks_per_node_override,
        rng=rng,
        count_scale=count_scale,
    )
    corpus = next(blocks, None)
    if corpus is not None:
        return corpus
    graph = view_or_graph.graph if isinstance(view_or_graph, View) else view_or_graph
    return WalkCorpus(
        np.empty((0, length), dtype=np.int64),
        np.empty(0, dtype=np.int64),
        length,
        graph,
    )


def corpus_index_dtype(num_nodes: int) -> np.dtype:
    """The compact index dtype for a graph of ``num_nodes`` nodes.

    ``int32`` whenever every index (and the ``-1`` pad) fits, which
    halves corpus bytes both in memory and in spill files; ``int64``
    only for graphs beyond ``2**31 - 1`` nodes.
    """
    return np.dtype(np.int32 if num_nodes < 2**31 else np.int64)


def stream_corpus(
    view_or_graph: View | HeteroGraph,
    walker: Walker | BatchedWalker | WalkPolicy,
    length: int,
    floor: int = 10,
    cap: int = 32,
    walks_per_node_override: int | None = None,
    rng: np.random.Generator | None = None,
    count_scale: float = 1.0,
    block_walks: int | None = None,
    index_dtype: np.dtype | None = None,
) -> Iterator[WalkCorpus]:
    """Sample the corpus as a lazy stream of walk blocks.

    Start indices follow :func:`walk_start_nodes`, computed once up
    front; the walks are then sampled in blocks of at most
    ``block_walks`` starts, each block shuffled independently and
    yielded as its own :class:`WalkCorpus`.  Peak memory is proportional
    to the block, not the corpus.  With a lockstep walker (anything
    exposing ``walk_batch``) a block is one batched call; a bare
    :class:`WalkPolicy` is wrapped in a fresh
    :class:`~repro.walks.batched.LockstepWalker` drawing from ``rng``;
    scalar walkers fall back to one ``walk()`` call per start.

    RNG contract: each block consumes the walker's draws and then one
    ``rng.permutation(block size)``, in block order.  A stream is
    deterministic for a fixed ``(rng state, block_walks)``; different
    block sizes interleave walker draws differently, so they are
    different — equally valid — samples of the same Eq. 6-7 walk law.

    Blocks are consumed lazily: pull them in order, and do not interleave
    other draws from ``rng`` mid-stream.

    Args:
        view_or_graph: where to walk.
        walker: a walker already bound to the same view/graph, or a
            :class:`WalkPolicy` to execute on the lockstep engine.
        length: nodes per walk.
        floor, cap: the walk-count policy bounds (paper: 10 and 32).
        walks_per_node_override: fixed count per node; used by baselines
            such as DeepWalk that ignore degree.
        rng: shuffles each block so SGD sees mixed nodes; also drives the
            walks themselves when ``walker`` is a bare policy.
        count_scale: multiplier on every node's walk count (>= 1 walk is
            kept where any was due) — the :class:`RelationBalancer`'s
            knob for growing or shrinking one view's training share.
        block_walks: maximum walks per yielded block (``None``: the whole
            corpus is one block; :func:`build_corpus` is that case).
        index_dtype: cast block matrices to this dtype
            (:func:`corpus_index_dtype` gives the compact choice); the
            cast changes bytes, never index values.
    """
    if length < 2:
        raise ValueError(f"walk length must be >= 2, got {length}")
    if block_walks is not None and block_walks < 1:
        raise ValueError(f"block_walks must be >= 1, got {block_walks}")
    graph = view_or_graph.graph if isinstance(view_or_graph, View) else view_or_graph
    rng = rng or np.random.default_rng()
    if isinstance(walker, WalkPolicy):
        walker = LockstepWalker(view_or_graph, walker, rng=rng)
    starts = walk_start_nodes(
        csr_adjacency(graph).degrees,
        policy=getattr(walker, "policy", None),
        floor=floor,
        cap=cap,
        walks_per_node_override=walks_per_node_override,
        count_scale=count_scale,
    )
    total = starts.size
    step = total if block_walks is None else min(block_walks, max(total, 1))
    for begin in range(0, total, max(step, 1)):
        shard = starts[begin : begin + step]
        if hasattr(walker, "walk_batch"):
            matrix, lengths = walker.walk_batch(shard, length)
        else:
            node_at = graph.node_at
            paths = [walker.walk(node_at(int(i)), length) for i in shard]
            packed = WalkCorpus.from_paths(paths, length, graph)
            matrix, lengths = packed.matrix, packed.lengths
        order = rng.permutation(matrix.shape[0])
        matrix, lengths = matrix[order], lengths[order]
        if index_dtype is not None:
            matrix = matrix.astype(index_dtype, copy=False)
        yield WalkCorpus(matrix, lengths, length, graph)


def filter_to_nodes(
    corpus: WalkCorpus,
    keep: Iterable[NodeId],
    min_length: int = 2,
) -> WalkCorpus:
    """Drop every node not in ``keep`` from every path.

    This is the cross-view preprocessing step: walks over paired-subviews
    are filtered down to the common nodes of the view-pair.  Paths that end
    up shorter than ``min_length`` are discarded.

    Vectorized as a stable compaction: a boolean keep-matrix is gathered
    from a node mask, surviving entries are slid left with one stable
    ``argsort`` per corpus, and the freed tail is re-padded.
    """
    matrix, lengths = corpus.matrix, corpus.lengths
    if corpus.graph is not None:
        graph = corpus.graph
        # one vectorized pass: unknown nodes land on -1 and are dropped
        keep_idx = graph.indices_of(keep)
        keep_idx = keep_idx[keep_idx >= 0]
        num_nodes = graph.num_nodes
    else:
        keep_idx = np.asarray(
            keep if isinstance(keep, np.ndarray) else list(keep),
            dtype=np.int64,
        )
        upper = int(matrix.max(initial=-1))
        if keep_idx.size:
            upper = max(upper, int(keep_idx.max()))
        num_nodes = upper + 1
    mask = np.zeros(max(num_nodes, 1), dtype=bool)
    mask[keep_idx] = True
    kept = np.zeros(matrix.shape, dtype=bool)
    valid = matrix != PAD
    kept[valid] = mask[matrix[valid]]
    new_lengths = kept.sum(axis=1)
    rows = new_lengths >= min_length
    order = np.argsort(~kept[rows], axis=1, kind="stable")
    compact = np.take_along_axis(matrix[rows], order, axis=1)
    new_lengths = new_lengths[rows]
    width = matrix.shape[1]
    compact[np.arange(width)[None, :] >= new_lengths[:, None]] = PAD
    return WalkCorpus(compact, new_lengths, corpus.length, corpus.graph)


def chunk_paths(corpus: WalkCorpus, chunk_length: int) -> np.ndarray:
    """Cut each path into non-overlapping chunks of exactly ``chunk_length``.

    The translators' feed-forward layers have a (path_len x path_len)
    weight (Equation 9) and therefore need fixed-length inputs; filtered
    cross-view paths have variable length, so we re-chunk them.  Remainders
    shorter than ``chunk_length`` are dropped.

    Returns:
        ``(num_chunks, chunk_length)`` int64 index matrix (no padding —
        every chunk is full by construction).
    """
    if chunk_length < 2:
        raise ValueError(f"chunk length must be >= 2, got {chunk_length}")
    counts = corpus.lengths // chunk_length
    total = int(counts.sum())
    if total == 0:
        return np.empty((0, chunk_length), dtype=np.int64)
    row = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total, dtype=np.int64) - first
    cols = (within * chunk_length)[:, None] + np.arange(
        chunk_length, dtype=np.int64
    )[None, :]
    return corpus.matrix[row[:, None], cols]

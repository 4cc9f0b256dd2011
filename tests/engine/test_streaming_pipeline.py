"""StreamingCorpusPipeline: one-block equivalence, budget law, noise freeze."""

import numpy as np
import pytest

from repro.datasets.fixtures import two_view_toy
from repro.engine.pipeline import (
    StreamingCorpusPipeline,
    block_walks_for_budget,
    cross_view_chunks_for_budget,
    cross_view_step_bytes,
    pairs_per_walk,
)
from repro.graph.csr import csr_adjacency
from repro.graph.views import separate_views
from repro.skipgram import NoiseDistribution
from repro.walks import LockstepWalker, stream_corpus
from repro.walks.corpus import (
    WalkCorpus,
    extract_index_pairs,
    walk_start_nodes,
)
from repro.walks.policies import make_policy


def _view():
    graph, _ = two_view_toy()
    return separate_views(graph)[0]


def _dense_reference(view, seed, epochs):
    """Batches of the materialize-the-corpus path, written out by hand.

    Per epoch: every start walked in one lockstep call, one shuffle, all
    Definition-6 pairs, then negatives per batch from a noise table
    built once from the first corpus.
    """
    rng = np.random.default_rng(seed)
    walker = LockstepWalker(view, make_policy("biased"), rng=rng)
    starts = walk_start_nodes(
        csr_adjacency(view.graph).degrees, walker.policy, floor=2, cap=3
    )
    noise = None
    for _ in range(epochs):
        matrix, lengths = walker.walk_batch(starts, 8)
        order = rng.permutation(matrix.shape[0])
        corpus = WalkCorpus(matrix[order], lengths[order], 8, view.graph)
        centers, contexts = extract_index_pairs(corpus, 1)
        if noise is None:
            noise = NoiseDistribution(
                corpus.frequency_counts(view.num_nodes), view.num_nodes
            )
        batches = []
        for start in range(0, centers.size, 16):
            end = min(start + 16, centers.size)
            negatives = noise.sample(rng, size=(end - start) * 3)
            batches.append(
                (
                    centers[start:end],
                    contexts[start:end],
                    negatives.reshape(end - start, 3),
                )
            )
        yield batches


def _streaming(view, seed, block_walks=None, **kw):
    rng = np.random.default_rng(seed)
    walker = LockstepWalker(view, make_policy("biased"), rng=rng)
    return StreamingCorpusPipeline(
        sample_blocks=lambda: stream_corpus(
            view, walker, length=8, floor=2, cap=3, rng=rng,
            block_walks=block_walks,
        ),
        num_nodes=view.num_nodes,
        window=1,
        num_negatives=3,
        batch_size=16,
        rng=rng,
        **kw,
    )


def _batches(pipeline):
    return [
        (b.centers.copy(), b.contexts.copy(), b.negatives.copy())
        for b in pipeline.epoch()
    ]


class TestDenseEquivalence:
    def test_single_block_batches_bit_identical_across_epochs(self):
        view = _view()
        streaming = _streaming(view, 7)
        for dense in _dense_reference(view, 7, epochs=3):
            for (c1, x1, n1), (c2, x2, n2) in zip(
                dense, _batches(streaming), strict=True
            ):
                assert np.array_equal(c1, c2)
                assert np.array_equal(x1, x2)
                assert np.array_equal(n1, n2)

    def test_multi_block_stream_deterministic(self):
        view = _view()
        first = _batches(_streaming(view, 11, block_walks=4))
        second = _batches(_streaming(view, 11, block_walks=4))
        for (c1, x1, n1), (c2, x2, n2) in zip(first, second, strict=True):
            assert np.array_equal(c1, c2)
            assert np.array_equal(x1, x2)
            assert np.array_equal(n1, n2)


class TestBudget:
    def test_peak_block_bytes_within_budget(self):
        view = _view()
        budget = 64 * 1024
        walks = block_walks_for_budget(
            budget, length=8, window=1, num_negatives=3, batch_size=16
        )
        pipeline = _streaming(
            view, 3, block_walks=walks, budget_bytes=budget
        )
        assert sum(1 for _ in pipeline.epoch()) > 0
        assert 0 < pipeline.peak_block_bytes <= budget

    def test_over_budget_block_raises(self):
        view = _view()
        # blocks deliberately oversized for a tiny budget
        pipeline = _streaming(view, 3, budget_bytes=1024)
        with pytest.raises(MemoryError, match="budget"):
            list(pipeline.epoch())

    def test_budget_too_small_for_one_walk(self):
        with pytest.raises(ValueError, match="cannot hold one walk"):
            block_walks_for_budget(
                64, length=20, window=2, num_negatives=5, batch_size=1
            )

    def test_budget_scales_with_itemsize(self):
        wide = block_walks_for_budget(
            1 << 20, length=20, window=2, num_negatives=5, batch_size=128,
            itemsize=8,
        )
        narrow = block_walks_for_budget(
            1 << 20, length=20, window=2, num_negatives=5, batch_size=128,
            itemsize=4,
        )
        assert narrow > wide

    def test_pairs_per_walk_matches_extraction_bound(self):
        # window truncated by walk length
        assert pairs_per_walk(8, 1) == 2 * 7
        assert pairs_per_walk(8, 2) == 2 * (7 + 6)
        assert pairs_per_walk(2, 5) == 2 * 1


# fit-stream's cross-view shape: path_len 6, d=32, 2 encoders, float32,
# at most 360 common nodes a pair on its 684-node AMiner graph
_FIT_STREAM = dict(
    path_len=6, dim=32, num_encoders=2, common_rows=360, itemsize=4
)


class TestCrossViewBudget:
    def test_monotone_in_budget(self):
        budgets = [2**k for k in range(19, 31)]
        chunks = [
            cross_view_chunks_for_budget(b, **_FIT_STREAM) for b in budgets
        ]
        assert chunks == sorted(chunks)
        assert chunks[-1] > chunks[0]

    def test_below_minimum_raises_naming_it(self):
        minimum = cross_view_step_bytes(1, **_FIT_STREAM)
        assert cross_view_chunks_for_budget(minimum, **_FIT_STREAM) == 1
        with pytest.raises(ValueError, match=f"needs {minimum} bytes"):
            cross_view_chunks_for_budget(minimum - 1, **_FIT_STREAM)

    def test_accepts_fit_stream_budget(self):
        chunks = cross_view_chunks_for_budget(1 << 20, **_FIT_STREAM)
        assert chunks >= 32
        assert cross_view_step_bytes(chunks, **_FIT_STREAM) <= 1 << 20

    def test_chunks_fill_the_budget(self):
        budget = 8 << 20
        chunks = cross_view_chunks_for_budget(budget, **_FIT_STREAM)
        assert cross_view_step_bytes(chunks, **_FIT_STREAM) <= budget
        assert cross_view_step_bytes(chunks + 1, **_FIT_STREAM) > budget

    def test_shape_terms(self):
        base = cross_view_chunks_for_budget(8 << 20, **_FIT_STREAM)
        for change in (
            {"itemsize": 8},
            {"num_encoders": 6},
            {"dim": 128},
            {"common_rows": 3000},
        ):
            assert (
                cross_view_chunks_for_budget(
                    8 << 20, **{**_FIT_STREAM, **change}
                )
                < base
            ), change
        simple = cross_view_chunks_for_budget(
            8 << 20, **{**_FIT_STREAM, "simple": True}
        )
        assert simple > base

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            cross_view_chunks_for_budget(0, **_FIT_STREAM)


class TestNoiseSchedule:
    def test_noise_frozen_after_first_epoch(self):
        view = _view()
        pipeline = _streaming(view, 5, block_walks=4)
        list(pipeline.epoch())
        frozen_counts = pipeline._counts.copy()
        assert frozen_counts.sum() > 0
        list(pipeline.epoch())
        assert np.array_equal(pipeline._counts, frozen_counts)

    def test_state_roundtrip_restores_table(self):
        view = _view()
        pipeline = _streaming(view, 5, block_walks=4)
        list(pipeline.epoch())
        state = pipeline.state_dict()
        restored = _streaming(view, 5, block_walks=4)
        restored.load_state_dict(state)
        assert restored._frozen
        rng = np.random.default_rng(0)
        a = pipeline._table().sample(rng, size=64)
        rng = np.random.default_rng(0)
        b = restored._table().sample(rng, size=64)
        assert np.array_equal(a, b)

    def test_accepts_dense_pipeline_state(self):
        """Checkpoints of the removed dense pipeline hold only the first
        corpus's counts (no freeze flag); they load frozen, with the
        table those counts build."""
        view = _view()
        corpus = next(_streaming(view, 7).sample_blocks())
        counts = NoiseDistribution(
            corpus.frequency_counts(view.num_nodes), view.num_nodes
        ).counts.copy()
        streaming = _streaming(view, 7)
        streaming.load_state_dict({"noise_counts": counts})
        assert streaming._frozen
        expected = NoiseDistribution(counts, view.num_nodes)
        a = expected.sample(np.random.default_rng(0), size=256)
        b = streaming._table().sample(np.random.default_rng(0), size=256)
        assert np.array_equal(a, b)
        list(streaming.epoch())  # a frozen table takes no more counts
        assert np.array_equal(streaming._counts, counts)

    def test_accepts_dense_pipeline_state_before_first_epoch(self):
        streaming = _streaming(_view(), 7)
        streaming.load_state_dict({"noise_counts": None})
        assert not streaming._frozen
        list(streaming.epoch())
        assert streaming._frozen

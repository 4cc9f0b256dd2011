"""Tests for index-space corpus building, filtering and chunking."""

import numpy as np
import pytest

from repro.graph import HeteroGraph, separate_views
from repro.walks import (
    BiasedCorrelatedPolicy,
    LockstepWalker,
    UniformPolicy,
    UniformWalker,
    build_corpus,
)
from repro.walks.corpus import (
    WalkCorpus,
    chunk_paths,
    extract_index_pairs,
    filter_to_nodes,
)


def _id_corpus(paths, length, graph=None):
    return WalkCorpus.from_paths(paths, length, graph)


class TestWalkCorpus:
    def test_from_paths_padding_and_lengths(self):
        corpus = _id_corpus([[1, 2, 3], [4, 5]], 4)
        assert corpus.matrix.shape == (2, 4)
        np.testing.assert_array_equal(corpus.lengths, [3, 2])
        np.testing.assert_array_equal(corpus.matrix[0], [1, 2, 3, -1])
        np.testing.assert_array_equal(corpus.matrix[1], [4, 5, -1, -1])

    def test_iteration_trims_padding(self):
        corpus = _id_corpus([[1, 2, 3], [4, 5]], 4)
        rows = [walk.tolist() for walk in corpus]
        assert rows == [[1, 2, 3], [4, 5]]

    def test_paths_roundtrip_through_graph(self, triangle):
        corpus = WalkCorpus.from_paths([["x", "y"], ["z", "x", "y"]], 3, triangle)
        assert corpus.paths() == [["x", "y"], ["z", "x", "y"]]

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            WalkCorpus(np.zeros(3, dtype=np.int64), np.zeros(3), 3)
        with pytest.raises(ValueError, match="lengths"):
            WalkCorpus(np.zeros((2, 3), dtype=np.int64), np.zeros(3), 3)

    def test_node_frequencies(self):
        corpus = _id_corpus([[0, 1, 0], [1, 2]], 3)
        assert corpus.node_frequencies() == {0: 2, 1: 2, 2: 1}

    def test_node_frequencies_with_graph(self, triangle):
        corpus = WalkCorpus.from_paths([["x", "y", "x"], ["y", "z"]], 3, triangle)
        assert corpus.node_frequencies() == {"x": 2, "y": 2, "z": 1}

    def test_frequency_counts_ignore_padding(self):
        corpus = _id_corpus([[0, 1], [1]], 4)
        np.testing.assert_array_equal(
            corpus.frequency_counts(3), [1.0, 2.0, 0.0]
        )


class TestBuildCorpus:
    def test_respects_policy(self, academic, rng):
        view = separate_views(academic)[1]  # authorship
        walker = LockstepWalker(view, UniformPolicy(), rng=rng)
        corpus = build_corpus(view, walker, length=5, floor=2, cap=4, rng=rng)
        # every view node has degree in [1, 5]; counts in [2, 4]
        assert 2 * view.num_nodes <= len(corpus) <= 4 * view.num_nodes
        assert corpus.length == 5

    def test_override_count(self, academic, rng):
        view = separate_views(academic)[1]
        walker = LockstepWalker(view, UniformPolicy(), rng=rng)
        corpus = build_corpus(
            view, walker, length=4, walks_per_node_override=3, rng=rng
        )
        assert len(corpus) == 3 * view.num_nodes

    def test_scalar_walker_fallback(self, academic, rng):
        """Scalar walkers (no walk_batch) still feed the same corpus form."""
        view = separate_views(academic)[1]
        walker = UniformWalker(view, rng=rng)
        corpus = build_corpus(
            view, walker, length=4, walks_per_node_override=2, rng=rng
        )
        assert len(corpus) == 2 * view.num_nodes
        assert corpus.matrix.shape == (len(corpus), 4)
        assert (corpus.lengths == 4).all()

    def test_isolated_nodes_skipped(self, rng):
        g = HeteroGraph.from_edges(
            [("a", "b", "e", 1.0)], {"a": "t", "b": "t", "iso": "t"}
        )
        walker = LockstepWalker(g, UniformPolicy(), rng=rng)
        corpus = build_corpus(g, walker, length=3, walks_per_node_override=2, rng=rng)
        iso = g.index_of("iso")
        assert not (corpus.matrix == iso).any()

    def test_walks_follow_edges(self, academic, rng):
        view = separate_views(academic)[1]
        walker = LockstepWalker(view, BiasedCorrelatedPolicy(), rng=rng)
        corpus = build_corpus(view, walker, length=6, floor=2, cap=2, rng=rng)
        graph = view.graph
        for walk in corpus.paths():
            for a, b in zip(walk, walk[1:]):
                assert graph.has_edge(a, b)

    def test_empty_start_law_gives_empty_corpus(self, academic, rng):
        view = separate_views(academic)[1]
        walker = LockstepWalker(view, UniformPolicy(), rng=rng)
        corpus = build_corpus(
            view, walker, length=4, walks_per_node_override=0, rng=rng
        )
        assert len(corpus) == 0
        assert corpus.matrix.shape == (0, 4)
        assert corpus.graph is view.graph

    def test_length_validation(self, academic, rng):
        view = separate_views(academic)[0]
        walker = LockstepWalker(view, UniformPolicy(), rng=rng)
        with pytest.raises(ValueError):
            build_corpus(view, walker, length=1, rng=rng)


class TestExtractIndexPairs:
    def test_window_one(self):
        corpus = _id_corpus([[0, 1, 2]], 3)
        centers, contexts = extract_index_pairs(corpus, 1)
        got = sorted(zip(centers.tolist(), contexts.tolist()))
        assert got == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_matches_scalar_scan(self):
        from repro.skipgram import extract_pairs

        paths = [[0, 1, 2, 3, 1], [4, 2, 0]]
        corpus = _id_corpus(paths, 5)
        for window in (1, 2, 3):
            centers, contexts = extract_index_pairs(corpus, window)
            expected = []
            for path in paths:
                expected.extend(extract_pairs(path, window))
            assert sorted(zip(centers.tolist(), contexts.tolist())) == sorted(
                expected
            )

    def test_padding_never_paired(self):
        corpus = _id_corpus([[0, 1], [2]], 4)
        centers, contexts = extract_index_pairs(corpus, 3)
        assert (centers >= 0).all() and (contexts >= 0).all()
        assert sorted(zip(centers.tolist(), contexts.tolist())) == [
            (0, 1),
            (1, 0),
        ]

    def test_empty_corpus(self):
        centers, contexts = extract_index_pairs(_id_corpus([], 0), 2)
        assert centers.size == 0 and contexts.size == 0

    def test_window_validation(self):
        with pytest.raises(ValueError):
            extract_index_pairs(_id_corpus([[0, 1]], 2), 0)


class TestFilterToNodes:
    def test_removes_non_kept(self):
        g = HeteroGraph.from_edges(
            [("a", "x", "e", 1.0), ("x", "b", "e", 1.0), ("b", "y", "e", 1.0),
             ("y", "c", "e", 1.0)],
            {n: "t" for n in "axbyc"},
        )
        corpus = WalkCorpus.from_paths([["a", "x", "b", "y", "c"]], 5, g)
        out = filter_to_nodes(corpus, {"a", "b", "c"})
        assert out.paths() == [["a", "b", "c"]]
        np.testing.assert_array_equal(out.matrix[0, 3:], [-1, -1])

    def test_drops_short_paths(self):
        corpus = _id_corpus([[0, 1], [1, 2, 3]], 3)
        out = filter_to_nodes(corpus, {0}, min_length=2)
        assert len(out) == 0
        assert out.matrix.shape == (0, 3)

    def test_min_length_kept(self):
        corpus = _id_corpus([[0, 1, 2]], 3)
        out = filter_to_nodes(corpus, {0, 1}, min_length=2)
        assert [w.tolist() for w in out] == [[0, 1]]

    def test_keep_set_outside_corpus(self):
        corpus = _id_corpus([[0, 1]], 2)
        out = filter_to_nodes(corpus, {7}, min_length=1)
        assert len(out) == 0

    def test_empty_corpus(self):
        out = filter_to_nodes(_id_corpus([], 3), {1, 2})
        assert len(out) == 0


class TestChunkPaths:
    def test_exact_chunks(self):
        corpus = _id_corpus([[1, 2, 3, 4, 5, 6]], 6)
        chunks = chunk_paths(corpus, 3)
        assert chunks.tolist() == [[1, 2, 3], [4, 5, 6]]

    def test_remainder_dropped(self):
        corpus = _id_corpus([[1, 2, 3, 4, 5]], 5)
        chunks = chunk_paths(corpus, 3)
        assert chunks.tolist() == [[1, 2, 3]]

    def test_padding_not_chunked(self):
        """A walk shorter than the matrix width never leaks -1 slots."""
        corpus = _id_corpus([[1, 2, 3, 4], [5, 6]], 6)
        chunks = chunk_paths(corpus, 2)
        assert (chunks >= 0).all()
        assert chunks.tolist() == [[1, 2], [3, 4], [5, 6]]

    def test_too_short_path_yields_nothing(self):
        corpus = _id_corpus([[1, 2]], 2)
        assert chunk_paths(corpus, 3).shape == (0, 3)

    def test_invalid_chunk_length(self):
        with pytest.raises(ValueError):
            chunk_paths(_id_corpus([[1, 2]], 2), 1)

    def test_all_chunks_uniform_length(self, academic, rng):
        view = separate_views(academic)[1]
        walker = LockstepWalker(view, BiasedCorrelatedPolicy(), rng=rng)
        corpus = build_corpus(view, walker, length=9, floor=2, cap=2, rng=rng)
        chunks = chunk_paths(corpus, 4)
        assert chunks.shape[1] == 4
        assert (chunks >= 0).all()

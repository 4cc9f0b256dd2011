"""Tests for scalar metapath walks (ReferenceWalker + MetapathPolicy)."""

import pytest

from repro.walks import MetapathPolicy, ReferenceWalker


def metapath_walker(graph, metapath, rng=None):
    return ReferenceWalker(graph, MetapathPolicy(metapath), rng=rng)


class TestValidation:
    def test_too_short(self, academic, rng):
        with pytest.raises(ValueError):
            metapath_walker(academic, ["author"], rng=rng)

    def test_not_cyclic(self, academic, rng):
        with pytest.raises(ValueError, match="cyclic"):
            metapath_walker(academic, ["author", "paper"], rng=rng)

    def test_unknown_type(self, academic, rng):
        with pytest.raises(ValueError, match="unknown node types"):
            metapath_walker(academic, ["alien", "paper", "alien"], rng=rng)

    def test_off_path_start_type(self, academic, rng):
        walker = metapath_walker(
            academic, ["author", "paper", "author"], rng=rng
        )
        with pytest.raises(ValueError, match="never visits"):
            walker.walk("U1", 5)

    def test_on_path_start_enters_mid_cycle(self, academic, rng):
        """A paper start on the author-paper cycle aligns to the paper
        position instead of erroring (cross-view walks start anywhere)."""
        walker = metapath_walker(
            academic, ["author", "paper", "author"], rng=rng
        )
        walk = walker.walk("P1", 4)
        types = [academic.node_type(node) for node in walk]
        assert types == ["paper", "author", "paper", "author"]


class TestWalks:
    def test_type_sequence_follows_pattern(self, academic, rng):
        walker = metapath_walker(
            academic, ["author", "paper", "author"], rng=rng
        )
        walk = walker.walk("A1", 9)
        expected_types = ["author", "paper"] * 5
        for node, expected in zip(walk, expected_types):
            assert academic.node_type(node) == expected

    def test_longer_pattern(self, academic, rng):
        walker = metapath_walker(
            academic,
            ["author", "paper", "paper", "author", "author"],
            rng=rng,
        )
        walk = walker.walk("A1", 8)
        pattern = ["author", "paper", "paper", "author"]
        for k, node in enumerate(walk):
            assert academic.node_type(node) == pattern[k % 4]

    def test_stops_when_no_typed_neighbor(self, academic, rng):
        # university nodes have no paper neighbours
        walker = metapath_walker(
            academic, ["university", "paper", "university"], rng=rng
        )
        walk = walker.walk("U1", 6)
        assert walk == ["U1"]

    def test_start_nodes(self, academic, rng):
        walker = metapath_walker(
            academic, ["paper", "author", "paper"], rng=rng
        )
        starts = walker.policy.start_indices()
        assert sorted(academic.node_at(int(i)) for i in starts) == ["P1", "P2"]

    def test_edges_exist(self, academic, rng):
        walker = metapath_walker(
            academic, ["author", "paper", "author"], rng=rng
        )
        walk = walker.walk("A2", 7)
        for u, v in zip(walk, walk[1:]):
            assert academic.has_edge(u, v)

"""Tests for scalar node2vec p/q walks (ReferenceWalker + Node2VecPolicy)."""

import numpy as np
import pytest

from repro.graph import HeteroGraph
from repro.walks import Node2VecPolicy, ReferenceWalker


def node2vec_walker(graph, p=1.0, q=1.0, rng=None):
    return ReferenceWalker(graph, Node2VecPolicy(p=p, q=q), rng=rng)


@pytest.fixture
def path_graph():
    """A path a-b-c plus a triangle edge a-c for distance-1 checks."""
    g = HeteroGraph()
    for n in ("a", "b", "c", "d"):
        g.add_node(n, "t")
    g.add_edge("a", "b", "e")
    g.add_edge("b", "c", "e")
    g.add_edge("c", "d", "e")
    return g


class TestValidation:
    def test_positive_p_q(self, path_graph):
        with pytest.raises(ValueError):
            node2vec_walker(path_graph, p=0.0)
        with pytest.raises(ValueError):
            node2vec_walker(path_graph, q=-1.0)


class TestWalks:
    def test_walk_validity(self, path_graph, rng):
        walker = node2vec_walker(path_graph, rng=rng)
        walk = walker.walk("a", 10)
        for u, v in zip(walk, walk[1:]):
            assert path_graph.has_edge(u, v)

    def test_length_one(self, path_graph, rng):
        assert node2vec_walker(path_graph, rng=rng).walk("a", 1) == ["a"]

    def test_isolated_start(self, rng):
        g = HeteroGraph()
        g.add_node("iso", "t")
        g.add_node("a", "t")
        g.add_node("b", "t")
        g.add_edge("a", "b", "e")
        walker = node2vec_walker(g, rng=rng)
        assert walker.walk("iso", 5) == ["iso"]

    def test_low_p_returns_often(self, path_graph):
        """p << 1 makes the walk bounce back to the previous node."""
        rng = np.random.default_rng(3)
        walker = node2vec_walker(path_graph, p=0.01, q=1.0, rng=rng)
        returns = 0
        trials = 3000
        for _ in range(trials):
            walk = walker.walk("a", 3)
            if len(walk) == 3 and walk[2] == walk[0]:
                returns += 1
        assert returns / trials > 0.8

    def test_high_p_explores(self, path_graph):
        """p >> 1 discourages immediate returns."""
        rng = np.random.default_rng(3)
        walker = node2vec_walker(path_graph, p=100.0, q=1.0, rng=rng)
        returns = 0
        trials = 3000
        for _ in range(trials):
            walk = walker.walk("a", 3)
            # from b, candidates are a (return, w/p) and c (explore, w/q)
            if len(walk) == 3 and walk[2] == walk[0]:
                returns += 1
        assert returns / trials < 0.1

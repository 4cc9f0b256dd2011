"""Tests for the deterministic fixture graphs."""

from collections import Counter

import numpy as np
import pytest

from repro.datasets import (
    book_rating_view,
    degree_skewed_graph,
    tiny_academic,
    two_view_toy,
    type_imbalanced_graph,
)
from repro.graph import separate_views
from tests.graph.oracle import edge_rows
from repro.graph.csr import csr_adjacency


class TestTinyAcademic:
    def test_matches_figure_2a(self):
        g = tiny_academic()
        assert g.num_nodes == 9
        assert g.num_edges == 11
        assert g.node_types == {"author", "paper", "university"}
        assert g.edge_types == {"citation", "authorship", "affiliation"}

    def test_a1_a3_contradiction(self):
        """A1 and A3 share a university but never co-author (Fig. 2c)."""
        g = tiny_academic()
        assert g.has_edge("A1", "U1")
        assert g.has_edge("A3", "U1")
        assert not g.has_edge("A1", "A3")


class TestBookRatingView:
    def test_matches_figure_4(self):
        g = book_rating_view()
        assert g.num_nodes == 6
        assert g.num_edges == 6
        assert g.edge_weight("R1", "B2") == 2.0
        assert g.edge_weight("R2", "B2") == 5.0
        assert g.edge_weight("R3", "B2") == 1.0

    def test_is_single_heter_view(self):
        views = separate_views(book_rating_view())
        assert len(views) == 1
        assert views[0].is_heter


class TestTwoViewToy:
    def test_structure(self):
        g, labels = two_view_toy()
        assert g.edge_types == {"AA", "AB"}
        assert set(labels.values()) == {0, 1}
        views = separate_views(g)
        kinds = {v.edge_type: v.is_heter for v in views}
        assert kinds == {"AA": False, "AB": True}

    def test_community_balance(self):
        _, labels = two_view_toy(num_per_side=12)
        counts = [list(labels.values()).count(c) for c in (0, 1)]
        assert counts == [6, 6]

    def test_validation(self):
        with pytest.raises(ValueError):
            two_view_toy(num_per_side=3)
        with pytest.raises(ValueError):
            two_view_toy(num_per_side=5)


class TestDegreeSkewedGraph:
    def test_shape_and_labels(self):
        graph, labels = degree_skewed_graph(num_items=24, seed=0)
        assert graph.edge_types == {"II", "IT"}
        assert set(labels.values()) == {0, 1}
        assert len(labels) == 24

    def test_exponent_controls_skew(self):
        def top_share(exponent):
            graph, _ = degree_skewed_graph(num_items=40, exponent=exponent, seed=1)
            degrees = np.sort(csr_adjacency(graph).degrees)[::-1]
            return degrees[:5].sum() / degrees.sum()

        assert top_share(3.5) > top_share(1.5)

    def test_deterministic_per_seed(self):
        a, _ = degree_skewed_graph(seed=4)
        b, _ = degree_skewed_graph(seed=4)
        assert [(e.u, e.v, e.edge_type) for e in edge_rows(a)] == [
            (e.u, e.v, e.edge_type) for e in edge_rows(b)
        ]

    def test_no_isolated_items(self):
        graph, _ = degree_skewed_graph(seed=2)
        assert (csr_adjacency(graph).degrees > 0).all()

    def test_validation(self):
        with pytest.raises(ValueError, match="num_items"):
            degree_skewed_graph(num_items=7)
        with pytest.raises(ValueError, match="exponent"):
            degree_skewed_graph(exponent=1.0)


class TestTypeImbalancedGraph:
    def test_shares_control_edge_split(self):
        graph, _ = type_imbalanced_graph(shares=(0.8, 0.15, 0.05), seed=1)
        counts = Counter(e.edge_type for e in edge_rows(graph))
        assert counts["II"] > counts["IT"] > counts["IC"]

    def test_three_views_all_nonempty(self):
        graph, labels = type_imbalanced_graph(seed=0)
        assert graph.edge_types == {"II", "IT", "IC"}
        assert set(labels.values()) == {0, 1}
        views = separate_views(graph)
        assert len(views) == 3
        assert all(view.num_nodes >= 2 for view in views)

    def test_balanced_shares_near_equal(self):
        graph, _ = type_imbalanced_graph(shares=(1, 1, 1), seed=1)
        counts = Counter(e.edge_type for e in edge_rows(graph))
        assert counts["II"] == counts["IT"]

    def test_validation(self):
        with pytest.raises(ValueError, match="num_items"):
            type_imbalanced_graph(num_items=6)
        with pytest.raises(ValueError, match="shares"):
            type_imbalanced_graph(shares=(1.0, 0.0, -1.0))

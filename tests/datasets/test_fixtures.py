"""Tests for the deterministic fixture graphs."""

import pytest

from repro.datasets import (
    book_rating_view,
    tiny_academic,
    two_view_toy,
)
from repro.graph import separate_views


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

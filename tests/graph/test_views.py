"""Tests for view separation, view-pairs and paired-subviews (Defs 2-5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    HeteroGraph,
    View,
    build_view_pairs,
    paired_subviews,
    separate_views,
)
from tests.graph.oracle import edge_rows


class TestSeparateViews:
    def test_one_view_per_edge_type(self, academic):
        views = separate_views(academic)
        assert [v.edge_type for v in views] == [
            "affiliation",
            "authorship",
            "citation",
        ]

    def test_edge_partition_property(self, academic):
        """Equation (1): edge sets are disjoint and cover E."""
        views = separate_views(academic)
        total = sum(v.num_edges for v in views)
        assert total == academic.num_edges
        for view in views:
            types = {e.edge_type for e in edge_rows(view.graph)}
            assert types == {view.edge_type}

    def test_no_isolated_nodes_in_any_view(self, academic):
        """The Figure 2(c) guarantee of edge-type separation."""
        for view in separate_views(academic):
            for node in view.graph.nodes:
                assert view.graph.degree(node) >= 1

    def test_homo_and_heter_classification(self, academic):
        views = {v.edge_type: v for v in separate_views(academic)}
        assert views["citation"].is_homo
        assert not views["citation"].is_heter
        assert views["authorship"].is_heter
        assert views["affiliation"].is_heter

    def test_node_types_inherited(self, academic):
        views = {v.edge_type: v for v in separate_views(academic)}
        assert views["authorship"].graph.node_types == {"author", "paper"}

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            separate_views(HeteroGraph())


class TestViewPairs:
    def test_pairs_share_nodes(self, academic):
        views = separate_views(academic)
        pairs = build_view_pairs(views)
        keys = {p.key for p in pairs}
        # affiliation & authorship share authors; authorship & citation
        # share papers; affiliation & citation share nothing
        assert keys == {
            ("affiliation", "authorship"),
            ("authorship", "citation"),
        }

    def test_common_nodes_correct(self, academic):
        views = separate_views(academic)
        pairs = {p.key: p for p in build_view_pairs(views)}
        assert pairs[("affiliation", "authorship")].common_nodes == {
            "A1",
            "A2",
            "A3",
            "A4",
            "A5",
        }
        assert pairs[("authorship", "citation")].common_nodes == {"P1", "P2"}

    def test_no_pair_without_overlap(self):
        g = HeteroGraph()
        g.add_edge("a", "b", "e1", u_type="t1", v_type="t1")
        g.add_edge("c", "d", "e2", u_type="t2", v_type="t2")
        views = separate_views(g)
        assert build_view_pairs(views) == []


class TestPairedSubviews:
    def test_subview_nodes_are_common_plus_neighbors(self, academic):
        views = separate_views(academic)
        pairs = {p.key: p for p in build_view_pairs(views)}
        sub_auth, sub_cit = paired_subviews(pairs[("authorship", "citation")])
        # common nodes {P1, P2}; in authorship view their neighbours are
        # all five authors; in citation view, each other
        assert sub_auth.nodes == {"P1", "P2", "A1", "A2", "A3", "A4", "A5"}
        assert sub_cit.nodes == {"P1", "P2"}

    def test_subview_keeps_edge_type(self, academic):
        views = separate_views(academic)
        pair = build_view_pairs(views)[0]
        sub_i, sub_j = paired_subviews(pair)
        assert sub_i.edge_type == pair.view_i.edge_type
        assert sub_j.edge_type == pair.view_j.edge_type

    def test_subview_is_subgraph(self, academic):
        views = separate_views(academic)
        for pair in build_view_pairs(views):
            for sub, parent in zip(
                paired_subviews(pair), (pair.view_i, pair.view_j)
            ):
                assert sub.nodes <= parent.nodes
                assert sub.num_edges <= parent.num_edges

    def test_view_node_set_built_once_per_view(self, academic, monkeypatch):
        """``View.nodes`` copies the node set on every access; evaluating
        it once per common node made the reduction quadratic."""
        calls = []
        real = View.nodes.fget

        def counted(view):
            calls.append(view.edge_type)
            return real(view)

        monkeypatch.setattr(View, "nodes", property(counted))
        for pair in build_view_pairs(separate_views(academic)):
            assert len(pair.common_nodes) > 1
            calls.clear()
            paired_subviews(pair)
            for view in (pair.view_i, pair.view_j):
                assert calls.count(view.edge_type) <= 1


@st.composite
def random_graph_inputs(draw):
    """``(edges, node_types)`` of a small random typed multigraph, with
    parallel edges and isolated nodes."""
    num_nodes = draw(st.integers(min_value=2, max_value=12))
    num_types = draw(st.integers(min_value=1, max_value=3))
    node_types = {
        f"n{i}": f"t{draw(st.integers(0, num_types - 1))}"
        for i in range(num_nodes)
    }
    weights = st.floats(min_value=0.1, max_value=10, allow_nan=False)
    num_edges = draw(st.integers(min_value=1, max_value=20))
    edges = []
    for _ in range(num_edges):
        u = draw(st.integers(0, num_nodes - 1))
        v = draw(st.integers(0, num_nodes - 1))
        if u == v:
            continue
        etype = f"e{draw(st.integers(0, 2))}"
        edges.append((f"n{u}", f"n{v}", etype, draw(weights)))
    if not edges:
        edges.append(("n0", "n1", "e0", 1.0))
    # parallel edges: a drawn pair again, either way round, any type
    for _ in range(draw(st.integers(0, 4))):
        u, v, _, _ = edges[draw(st.integers(0, len(edges) - 1))]
        if draw(st.booleans()):
            u, v = v, u
        edges.append((u, v, f"e{draw(st.integers(0, 2))}", draw(weights)))
    for k in range(draw(st.integers(0, 3))):
        node_types[f"iso{k}"] = f"t{draw(st.integers(0, num_types - 1))}"
    return edges, node_types


def random_hetero_graphs():
    """Small random typed multigraphs for property testing."""
    return random_graph_inputs().map(
        lambda inputs: HeteroGraph.from_edges(*inputs)
    )


class TestViewProperties:
    @given(random_hetero_graphs())
    @settings(max_examples=40, deadline=None)
    def test_equation_1_on_random_graphs(self, graph):
        """Views partition the edge multiset for arbitrary typed graphs."""
        views = separate_views(graph)
        assert sum(v.num_edges for v in views) == graph.num_edges
        seen_types = set()
        for view in views:
            assert view.edge_type not in seen_types
            seen_types.add(view.edge_type)
            for node in view.graph.nodes:
                assert view.graph.degree(node) >= 1

    @given(random_hetero_graphs())
    @settings(max_examples=40, deadline=None)
    def test_view_pairs_symmetric_overlap(self, graph):
        views = separate_views(graph)
        for pair in build_view_pairs(views):
            assert pair.common_nodes
            assert pair.common_nodes == (
                pair.view_i.nodes & pair.view_j.nodes
            )

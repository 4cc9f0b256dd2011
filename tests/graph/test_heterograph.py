"""Unit tests for the HeteroGraph substrate."""

import pytest

from repro.graph import HeteroGraph


class TestConstruction:
    def test_empty_graph(self):
        g = HeteroGraph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.node_types == frozenset()
        assert g.edge_types == frozenset()

    def test_add_node(self):
        g = HeteroGraph()
        g.add_node("a", "author")
        assert g.has_node("a")
        assert g.node_type("a") == "author"
        assert "a" in g
        assert len(g) == 1

    def test_add_node_idempotent(self):
        g = HeteroGraph()
        g.add_node("a", "author")
        g.add_node("a", "author")
        assert g.num_nodes == 1

    def test_retyping_node_rejected(self):
        g = HeteroGraph()
        g.add_node("a", "author")
        with pytest.raises(ValueError, match="cannot retype"):
            g.add_node("a", "paper")

    def test_add_edge_with_inline_types(self):
        g = HeteroGraph()
        g.add_edge("a", "p", "AP", weight=2.0, u_type="author", v_type="paper")
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert g.edge_weight("a", "p") == 2.0

    def test_add_edge_unknown_node_rejected(self):
        g = HeteroGraph()
        g.add_node("a", "author")
        with pytest.raises(ValueError, match="unknown node"):
            g.add_edge("a", "missing", "AP")

    def test_self_loop_rejected(self):
        g = HeteroGraph()
        g.add_node("a", "t")
        with pytest.raises(ValueError, match="self loop"):
            g.add_edge("a", "a", "e")

    def test_nonpositive_weight_rejected(self):
        g = HeteroGraph()
        g.add_node("a", "t")
        g.add_node("b", "t")
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                g.add_edge("a", "b", "e", weight=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        g = HeteroGraph()
        g.add_node("a", "t")
        g.add_node("b", "t")
        with pytest.raises(ValueError, match="finite and positive"):
            g.add_edge("a", "b", "e", weight=bad)
        assert g.num_edges == 0

    def test_from_edges(self):
        g = HeteroGraph.from_edges(
            [("a", "b", "e", 1.0), ("b", "c", "f", 2.0)],
            {"a": "t1", "b": "t1", "c": "t2", "isolated": "t2"},
        )
        assert g.num_nodes == 4
        assert g.num_edges == 2
        assert g.degree("isolated") == 0


class TestQueries:
    def test_degree_and_weighted_degree(self, triangle):
        assert triangle.degree("x") == 2
        assert triangle.weighted_degree("x") == pytest.approx(4.0)

    def test_neighbors(self, triangle):
        assert sorted(triangle.neighbors("x")) == ["y", "z"]

    def test_incident_triples(self, triangle):
        incident = dict(
            (nbr, (w, t)) for nbr, w, t in triangle.incident("y")
        )
        assert incident["x"] == (1.0, "e")
        assert incident["z"] == (2.0, "e")

    def test_index_round_trip(self, academic):
        for node in academic.nodes:
            assert academic.node_at(academic.index_of(node)) == node

    def test_index_of_unknown_raises(self, academic):
        with pytest.raises(KeyError):
            academic.index_of("nope")

    def test_node_type_unknown_raises(self, academic):
        with pytest.raises(KeyError):
            academic.node_type("nope")

    def test_has_edge(self, academic):
        assert academic.has_edge("A1", "P1")
        assert academic.has_edge("P1", "A1")
        assert not academic.has_edge("A1", "A3")

    def test_edge_weight_missing_raises(self, triangle):
        triangle.add_node("w", "t")
        with pytest.raises(KeyError):
            triangle.edge_weight("x", "w")

    def test_parallel_edges_sum_weight(self):
        g = HeteroGraph()
        g.add_node("a", "t")
        g.add_node("b", "t")
        g.add_edge("a", "b", "e", weight=1.0)
        g.add_edge("a", "b", "f", weight=2.5)
        assert g.edge_weight("a", "b") == pytest.approx(3.5)
        assert g.degree("a") == 2

    def test_types_collected(self, academic):
        assert academic.node_types == {"author", "paper", "university"}
        assert academic.edge_types == {"citation", "authorship", "affiliation"}

    def test_repr_mentions_counts(self, academic):
        text = repr(academic)
        assert "nodes=9" in text
        assert "edges=11" in text


def citation_mask(graph):
    table = graph.edge_table()
    return table.type_codes == table.type_names.index("citation")


class TestDerivedGraphs:
    def test_subgraph_of_edges(self, academic):
        sub = academic.subgraph_of_edge_mask(citation_mask(academic))
        assert sub.num_nodes == 2
        assert sub.num_edges == 1
        assert sub.node_types == {"paper"}

    def test_subgraph_of_nodes(self, academic):
        sub = academic.subgraph_of_nodes(["A1", "P1", "P2"])
        assert sub.num_nodes == 3
        # edges kept: A1-P1 (authorship), P1-P2 (citation)
        assert sub.num_edges == 2

    def test_without_edges_keeps_all_nodes(self, academic):
        reduced = academic.without_edges(citation_mask(academic))
        assert reduced.num_nodes == academic.num_nodes
        assert reduced.num_edges == academic.num_edges - 1
        assert not reduced.has_edge("P1", "P2")

    def test_to_networkx(self, academic):
        nxg = academic.to_networkx()
        assert nxg.number_of_nodes() == academic.num_nodes
        assert nxg.number_of_edges() == academic.num_edges
        assert nxg.nodes["A1"]["node_type"] == "author"

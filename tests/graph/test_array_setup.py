"""The array-backed graph set-up against the per-edge oracle.

Graphs, views, view-pairs, paired-subviews, CSR layouts and loaded files
built from the edge table must equal what the per-edge builders of
``tests/graph/oracle.py`` make from the same input: node order, edges,
incident lists, and the CSR arrays byte for byte.
"""

import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    HeteroGraph,
    build_view_pairs,
    csr_adjacency,
    load_graph,
    paired_subviews,
    save_graph,
    separate_views,
)
from tests.graph import oracle
from tests.graph.test_views import random_graph_inputs


def assert_same(graph: HeteroGraph, plain: oracle.PlainGraph) -> None:
    assert list(graph.nodes) == plain.nodes
    assert [graph.node_type(n) for n in graph.nodes] == [
        plain.node_type[n] for n in plain.nodes
    ]
    assert oracle.edge_rows(graph) == plain.edges
    assert graph.edge_types == {edge[2] for edge in plain.edges}
    for node in plain.nodes:
        assert graph.incident(node) == plain.adj[node]
        assert graph.degree(node) == len(plain.adj[node])
    ours = csr_adjacency(graph)
    for got, want in zip(
        (ours.indptr, ours.indices, ours.weights), oracle.csr(plain)
    ):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestAgainstOracle:
    @given(random_graph_inputs())
    @settings(max_examples=60, deadline=None)
    def test_graph(self, inputs):
        graph = HeteroGraph.from_edges(*inputs)
        assert_same(graph, oracle.PlainGraph.from_edges(*inputs))

    @given(random_graph_inputs())
    @settings(max_examples=60, deadline=None)
    def test_views_pairs_and_subviews(self, inputs):
        views = separate_views(HeteroGraph.from_edges(*inputs))
        plain_views = oracle.views(oracle.PlainGraph.from_edges(*inputs))
        assert [v.edge_type for v in views] == [t for t, _ in plain_views]
        for view, (_, plain) in zip(views, plain_views):
            assert_same(view.graph, plain)
        pairs = build_view_pairs(views)
        plain_pairs = oracle.view_pairs(plain_views)
        assert [(p.key, p.common_nodes) for p in pairs] == [
            ((plain_views[a][0], plain_views[b][0]), common)
            for a, b, common in plain_pairs
        ]
        for pair, (a, b, common) in zip(pairs, plain_pairs):
            sub_i, sub_j = paired_subviews(pair)
            assert_same(
                sub_i.graph, oracle.paired_subviews(plain_views[a][1], common)
            )
            assert_same(
                sub_j.graph, oracle.paired_subviews(plain_views[b][1], common)
            )

    @given(random_graph_inputs(), random_graph_inputs())
    @settings(max_examples=40, deadline=None)
    def test_growth_after_the_csr_was_cached(self, inputs, more):
        graph = HeteroGraph.from_edges(*inputs)
        plain = oracle.PlainGraph.from_edges(*inputs)
        before = csr_adjacency(graph)
        table = graph.edge_table()
        edges = oracle.edge_rows(graph)
        # the second draw's nodes come in typed on the fly, prefixed so
        # they cannot clash with the first draw's types
        for u, v, edge_type, weight in more[0]:
            graph.add_edge(
                f"x{u}",
                v,
                edge_type,
                weight,
                u_type="x" + more[1][u],
                v_type=inputs[1].get(v, more[1][v]),
            )
            plain.add_node(f"x{u}", "x" + more[1][u])
            plain.add_node(v, inputs[1].get(v, more[1][v]))
            plain.add_edge(f"x{u}", v, edge_type, weight)
        after = csr_adjacency(graph)
        assert after is not before
        assert_same(graph, plain)
        # what was handed out before the growth is unchanged
        assert oracle.edge_rows(graph)[: len(edges)] == edges
        assert table.ends.shape[0] == len(edges)
        assert before.indices.size == 2 * len(edges)

    @given(random_graph_inputs())
    @settings(max_examples=40, deadline=None)
    def test_pickle_round_trip(self, inputs):
        graph = HeteroGraph.from_edges(*inputs)
        csr_adjacency(graph)
        graph.incidence()
        copy = pickle.loads(pickle.dumps(graph))
        plain = oracle.PlainGraph.from_edges(*inputs)
        assert_same(copy, plain)
        u, v = plain.nodes[0], plain.nodes[1]
        copy.add_edge(u, v, "late", 2.0)
        plain.add_edge(u, v, "late", 2.0)
        assert_same(copy, plain)

    @given(random_graph_inputs())
    @settings(max_examples=40, deadline=None)
    def test_save_load_round_trip(self, inputs):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.tsv"
            save_graph(HeteroGraph.from_edges(*inputs), path)
            assert_same(load_graph(path), oracle.load(path))


_IDS = ["n0", "n1", "n2", "n3"]
_RECORDS = st.one_of(
    st.builds(
        "node\t{}\t{}".format,
        st.sampled_from(_IDS),
        st.sampled_from(["t0", "t0", "t0", "t1"]),
    ),
    st.builds(
        "edge\t{}\t{}\t{}\t{}".format,
        st.sampled_from(_IDS + ["zz"]),
        st.sampled_from(_IDS),
        st.sampled_from(["e0", "e1"]),
        st.sampled_from(
            ["1.0", "2.5", "0.125", "3", "1.0", "0", "-1", "nan", "inf", "x"]
        ),
    ),
    st.sampled_from(
        ["", "# comment", "node\tonly", "edge\tn0\tn1\te0", "vertex\tn0\tt0"]
    ),
)


class TestLoaderAgainstOracle:
    @given(st.lists(_RECORDS, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_first_bad_record_or_same_graph(self, records):
        """The bulk loader reports the record the record-by-record
        loader stops at, with the same message, or builds its graph."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.tsv"
            path.write_text("\n".join(records) + "\n")
            try:
                expected = oracle.load(path)
            except ValueError as error:
                with pytest.raises(ValueError) as raised:
                    load_graph(path)
                assert str(raised.value) == str(error)
            else:
                assert_same(load_graph(path), expected)


def test_edge_table_is_read_only(academic):
    table = academic.edge_table()
    for column in (table.ends, table.type_codes, table.weights):
        with pytest.raises(ValueError):
            column[...] = 0
    assert np.array_equal(
        table.weights, [e.weight for e in oracle.edge_rows(academic)]
    )

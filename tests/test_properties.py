"""Cross-cutting property-based tests on randomly generated typed graphs.

These tie the substrates together: whatever typed multigraph hypothesis
constructs, view separation must partition it, walkers must respect it,
serialization must round-trip it, and TransN must train on it without
blowing up.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TransN, TransNConfig
from repro.engine.observability import (
    MetricsRegistry,
    RunReport,
    Tracer,
    load_report,
)
from repro.graph import (
    HeteroGraph,
    load_graph,
    save_graph,
    separate_views,
)
from repro.walks import BiasedCorrelatedWalker, UniformWalker
from tests.graph.oracle import edge_rows

SMOKE_CONFIG = TransNConfig(
    dim=4,
    walk_length=6,
    walk_floor=1,
    walk_cap=2,
    num_iterations=1,
    cross_path_len=3,
    cross_paths_per_pair=4,
    num_encoders=1,
    batch_size=32,
)


@st.composite
def typed_graphs(draw):
    """Connected-ish random typed weighted multigraphs."""
    num_nodes = draw(st.integers(min_value=4, max_value=14))
    num_types = draw(st.integers(min_value=1, max_value=3))
    node_types = {
        f"n{i}": f"t{draw(st.integers(0, num_types - 1))}"
        for i in range(num_nodes)
    }
    edges = []
    # a spine so most nodes have edges
    for i in range(num_nodes - 1):
        etype = f"e{draw(st.integers(0, 1))}"
        weight = draw(st.floats(min_value=0.1, max_value=9.0, allow_nan=False))
        edges.append((f"n{i}", f"n{i + 1}", etype, weight))
    extra = draw(st.integers(min_value=0, max_value=12))
    for _ in range(extra):
        u = draw(st.integers(0, num_nodes - 1))
        v = draw(st.integers(0, num_nodes - 1))
        if u == v:
            continue
        etype = f"e{draw(st.integers(0, 2))}"
        weight = draw(st.floats(min_value=0.1, max_value=9.0, allow_nan=False))
        edges.append((f"n{u}", f"n{v}", etype, weight))
    return HeteroGraph.from_edges(edges, node_types)


class TestGraphProperties:
    @given(typed_graphs())
    @settings(max_examples=30, deadline=None)
    def test_serialization_round_trip(self, graph):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.tsv"
            self._round_trip(graph, path)

    @staticmethod
    def _round_trip(graph, path):
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded.num_nodes == graph.num_nodes
        assert loaded.num_edges == graph.num_edges
        for orig, new in zip(edge_rows(graph), edge_rows(loaded)):
            assert (str(orig.u), str(orig.v)) == (new.u, new.v)
            assert orig.weight == new.weight

    @given(typed_graphs())
    @settings(max_examples=30, deadline=None)
    def test_degree_sum_is_twice_edges(self, graph):
        total = sum(graph.degree(n) for n in graph.nodes)
        assert total == 2 * graph.num_edges


class TestWalkerProperties:
    @given(typed_graphs(), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_walks_stay_inside_their_view(self, graph, seed):
        rng = np.random.default_rng(seed)
        for view in separate_views(graph):
            walker = BiasedCorrelatedWalker(view, rng=rng)
            start = next(iter(view.graph.nodes))
            walk = walker.walk(start, 8)
            for node in walk:
                assert view.graph.has_node(node)
            for a, b in zip(walk, walk[1:]):
                assert view.graph.has_edge(a, b)

    @given(typed_graphs(), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_uniform_walks_valid(self, graph, seed):
        rng = np.random.default_rng(seed)
        walker = UniformWalker(graph, rng=rng)
        start = next(iter(graph.nodes))
        walk = walker.walk(start, 8)
        for a, b in zip(walk, walk[1:]):
            assert graph.has_edge(a, b)

    @given(typed_graphs())
    @settings(max_examples=20, deadline=None)
    def test_step_distribution_normalized(self, graph):
        rng = np.random.default_rng(0)
        for view in separate_views(graph):
            walker = BiasedCorrelatedWalker(view, rng=rng)
            for node in list(view.graph.nodes)[:3]:
                dist = walker.step_distribution(node, previous_weight=1.0)
                if dist:
                    assert abs(sum(dist.values()) - 1.0) < 1e-9
                    assert all(p >= 0 for p in dist.values())


_FINITE = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100
)
_NAMES = st.text(
    alphabet="abc/_", min_size=1, max_size=8
)


@st.composite
def metric_streams(draw):
    """name -> list of finite observations, over a tiny name alphabet."""
    return draw(
        st.dictionaries(
            _NAMES, st.lists(_FINITE, min_size=1, max_size=20), max_size=5
        )
    )


@st.composite
def span_trees(draw):
    """A random tree shape: each node is a (name, children) pair."""

    def node(children):
        return st.tuples(st.sampled_from(["run", "epoch", "phase"]), children)

    return draw(
        st.recursive(
            node(st.just([])),
            lambda inner: node(st.lists(inner, max_size=3)),
            max_leaves=10,
        )
    )


class TestObservabilityProperties:
    @given(metric_streams())
    @settings(max_examples=40, deadline=None)
    def test_report_round_trip_is_lossless(self, streams):
        """Finite metric values survive write -> load bit-exactly."""
        import tempfile
        from pathlib import Path

        registry = MetricsRegistry()
        for name, values in streams.items():
            for value in values:
                registry.observe(name, value)
            registry.counter(name, len(values))
            registry.gauge(name, values[-1])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.json"
            RunReport(registry, metadata={"model": "prop"}).write(path)
            document = load_report(path)
        assert document["metrics"] == registry.snapshot()
        for name, values in streams.items():
            entry = document["metrics"]["series"][name]
            assert entry["tail"] == values
            assert entry["count"] == len(values)
            assert entry["last"] == values[-1]

    @given(metric_streams(), st.integers(min_value=1, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_series_memory_is_bounded(self, streams, max_points):
        """Tails never exceed the cap; aggregates stay exact regardless."""
        registry = MetricsRegistry(max_series_points=max_points)
        for name, values in streams.items():
            for value in values:
                registry.observe(name, value)
        for name, values in streams.items():
            entry = registry.snapshot()["series"][name]
            assert len(entry["tail"]) <= max_points
            assert entry["tail"] == values[-max_points:]
            assert entry["tail_start"] == max(0, len(values) - max_points)
            assert entry["count"] == len(values)
            assert entry["min"] == min(values)
            assert entry["max"] == max(values)
            assert math.isclose(
                entry["total"], math.fsum(values), abs_tol=1e-9
            ) or entry["total"] == sum(values)

    @given(span_trees())
    @settings(max_examples=40, deadline=None)
    def test_span_trees_nest_correctly(self, shape):
        """The recorded tree mirrors the with-statement nesting exactly."""
        tracer = Tracer()

        def open_spans(node):
            name, children = node
            with tracer.span(name):
                for child in children:
                    open_spans(child)

        open_spans(shape)

        def check(entry, node):
            name, children = node
            assert entry["name"] == name
            assert entry["duration_s"] >= 0.0
            recorded = entry.get("children", [])
            assert len(recorded) == len(children)
            for sub_entry, sub_node in zip(recorded, children):
                check(sub_entry, sub_node)

        tree = tracer.to_dict()
        assert len(tree["spans"]) == 1
        check(tree["spans"][0], shape)


class TestTransNProperties:
    @given(typed_graphs(), st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_trains_on_arbitrary_typed_graphs(self, graph, seed):
        """TransN must handle whatever view structure hypothesis built:
        any mix of homo/heter views, any overlap pattern."""
        config = TransNConfig(**{**SMOKE_CONFIG.__dict__, "seed": seed})
        model = TransN(graph, config)
        model.fit()
        embeddings = model.embeddings()
        assert set(embeddings) == set(graph.nodes)
        for vector in embeddings.values():
            assert vector.shape == (config.dim,)
            assert np.isfinite(vector).all()

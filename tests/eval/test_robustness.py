"""Tests for the noise-robustness extension."""

import numpy as np
import pytest

from repro.baselines import RandomEmbedding
from repro.datasets import make_appstore
from repro.datasets.appstore import AppStoreConfig
from repro.eval.robustness import inject_noise_edges, run_noise_sweep
from repro.graph import HeteroGraph
from tests.graph.oracle import edge_rows


@pytest.fixture(scope="module")
def small_app():
    cfg = AppStoreConfig(num_applets=80, num_users=30, num_keywords=25, seed=3)
    return make_appstore(cfg)


class TestInjectNoiseEdges:
    def test_adds_expected_count(self, small_app):
        graph, _ = small_app
        baseline = len(edge_rows(graph, "AU"))
        noisy = inject_noise_edges(graph, "AU", fraction=0.5, seed=0)
        added = len(edge_rows(noisy, "AU")) - baseline
        assert added == round(0.5 * baseline)

    def test_original_untouched(self, small_app):
        graph, _ = small_app
        before = graph.num_edges
        inject_noise_edges(graph, "AU", fraction=1.0, seed=0)
        assert graph.num_edges == before

    def test_respects_end_node_types(self, small_app):
        graph, _ = small_app
        noisy = inject_noise_edges(graph, "AU", fraction=0.5, seed=0)
        for edge in edge_rows(noisy, "AU"):
            types = {noisy.node_type(edge.u), noisy.node_type(edge.v)}
            assert types == {"applet", "user"}

    def test_weights_in_existing_range(self, small_app):
        graph, _ = small_app
        weights = [e.weight for e in edge_rows(graph, "AU")]
        noisy = inject_noise_edges(graph, "AU", fraction=0.5, seed=0)
        for edge in edge_rows(noisy, "AU"):
            assert min(weights) <= edge.weight <= max(weights)

    def test_homo_edge_type(self):
        g = HeteroGraph()
        for k in range(6):
            g.add_node(f"n{k}", "t")
        for k in range(5):
            g.add_edge(f"n{k}", f"n{k+1}", "e")
        noisy = inject_noise_edges(g, "e", fraction=1.0, seed=0)
        assert noisy.num_edges == 10

    def test_unknown_edge_type(self, small_app):
        graph, _ = small_app
        with pytest.raises(ValueError):
            inject_noise_edges(graph, "ZZ", fraction=0.5)

    def test_negative_fraction(self, small_app):
        graph, _ = small_app
        with pytest.raises(ValueError):
            inject_noise_edges(graph, "AU", fraction=-0.1)


class TestRunNoiseSweep:
    def test_sweep_shape(self, small_app):
        graph, labels = small_app
        points = run_noise_sweep(
            lambda: RandomEmbedding(dim=8, seed=0),
            graph,
            labels,
            "AU",
            fractions=[0.0, 0.5],
            repeats=2,
        )
        assert [p.noise_fraction for p in points] == [0.0, 0.5]
        assert points[1].num_edges > points[0].num_edges
        for p in points:
            assert 0.0 <= p.macro_f1 <= 1.0

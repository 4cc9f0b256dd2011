"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.datasets import (
    AMinerConfig,
    AppStoreConfig,
    BlogConfig,
    make_aminer,
    make_app_daily,
    make_app_weekly,
    make_appstore,
    make_blog,
)
from repro.graph import separate_views
from tests.graph.oracle import edge_rows


class TestAMiner:
    def test_schema_matches_table_2(self):
        graph, labels = make_aminer()
        assert graph.node_types == {"author", "paper", "venue"}
        assert graph.edge_types == {"AA", "AP", "PP", "PV"}
        # labels cover exactly the papers
        assert set(labels) == set(graph.nodes_of_type("paper"))

    def test_unit_weights(self):
        graph, _ = make_aminer()
        assert all(e.weight == 1.0 for e in edge_rows(graph))

    def test_deterministic_given_seed(self):
        g1, l1 = make_aminer(AMinerConfig(seed=42))
        g2, l2 = make_aminer(AMinerConfig(seed=42))
        assert g1.num_edges == g2.num_edges
        assert l1 == l2
        assert [(e.u, e.v) for e in edge_rows(g1)] == [
            (e.u, e.v) for e in edge_rows(g2)
        ]

    def test_seeds_differ(self):
        g1, _ = make_aminer(AMinerConfig(seed=1))
        g2, _ = make_aminer(AMinerConfig(seed=2))
        assert [(e.u, e.v) for e in edge_rows(g1)] != [
            (e.u, e.v) for e in edge_rows(g2)
        ]

    def test_scalable(self):
        cfg = AMinerConfig(num_authors=60, num_papers=70, num_venues=8)
        graph, labels = make_aminer(cfg)
        assert len(graph.nodes_of_type("author")) == 60
        assert len(labels) == 70

    def test_validation(self):
        with pytest.raises(ValueError):
            make_aminer(AMinerConfig(num_topics=1))
        with pytest.raises(ValueError):
            make_aminer(AMinerConfig(num_venues=2, num_topics=4))

    def test_pv_heter_view_exists(self):
        graph, _ = make_aminer()
        views = {v.edge_type: v for v in separate_views(graph)}
        assert views["PV"].is_heter
        assert views["AA"].is_homo
        assert views["PP"].is_homo

    def test_labels_are_topics(self):
        _, labels = make_aminer(AMinerConfig(num_topics=3))
        assert set(labels.values()) <= {0, 1, 2}


class TestBlog:
    def test_schema_matches_table_2(self):
        graph, labels = make_blog()
        assert graph.node_types == {"user", "keyword"}
        assert graph.edge_types == {"UU", "UK", "KK"}
        assert set(labels) == set(graph.nodes_of_type("user"))

    def test_unit_weights(self):
        graph, _ = make_blog()
        assert all(e.weight == 1.0 for e in edge_rows(graph))

    def test_denser_than_appstore(self):
        """The paper: BLOG is far denser than the App-* networks."""
        from repro.graph import compute_statistics

        blog, _ = make_blog()
        app, _ = make_app_daily()
        blog_density = compute_statistics(blog, "b").density
        app_density = compute_statistics(app, "a").density
        assert blog_density > 3 * app_density

    def test_deterministic(self):
        g1, _ = make_blog(BlogConfig(seed=5))
        g2, _ = make_blog(BlogConfig(seed=5))
        assert [(e.u, e.v) for e in edge_rows(g1)] == [
            (e.u, e.v) for e in edge_rows(g2)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            make_blog(BlogConfig(num_interests=1))
        with pytest.raises(ValueError):
            make_blog(BlogConfig(num_keywords=4, num_interests=8))


class TestAppStore:
    def test_schema_matches_table_2(self):
        graph, labels = make_app_daily()
        assert graph.node_types == {"applet", "user", "keyword"}
        assert graph.edge_types == {"AU", "AK"}
        # only a fraction of applets is labelled (paper: 5,375 of ~150k)
        applets = graph.nodes_of_type("applet")
        assert 0 < len(labels) < len(applets)
        assert set(labels) <= set(applets)

    def test_weights_are_taste_levels(self):
        cfg = AppStoreConfig(taste_levels=5, weight_jitter=0.15)
        graph, _ = make_appstore(cfg)
        weights = np.array([e.weight for e in edge_rows(graph)])
        assert (weights > 0).all()
        assert weights.max() <= 5 + 1.0  # level cap plus jitter
        assert weights.std() > 0.5  # genuinely weighted

    def test_weekly_larger_than_daily(self):
        daily, _ = make_app_daily()
        weekly, _ = make_app_weekly()
        assert weekly.num_nodes > daily.num_nodes
        assert weekly.num_edges > daily.num_edges

    def test_labeled_nodes_have_edges(self):
        graph, labels = make_app_daily()
        assert all(graph.degree(n) > 0 for n in labels)

    def test_both_views_heter(self):
        graph, _ = make_app_daily()
        assert all(v.is_heter for v in separate_views(graph))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_appstore(AppStoreConfig(num_categories=1))
        with pytest.raises(ValueError):
            make_appstore(AppStoreConfig(labeled_fraction=0.0))
        with pytest.raises(ValueError):
            make_appstore(AppStoreConfig(taste_levels=1))

    def test_overrides_forwarded(self):
        graph, _ = make_app_daily(num_applets=50, num_users=20, num_keywords=15)
        assert len(graph.nodes_of_type("applet")) == 50

    def test_view_correlation_zero_decouples_ak(self):
        """With zero correlation the AK view ignores categories."""
        graph, labels = make_appstore(AppStoreConfig(view_correlation=0.0))
        assert graph.num_edges > 0

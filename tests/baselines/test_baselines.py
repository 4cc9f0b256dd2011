"""Tests for all baseline embedding methods.

Each baseline must: (1) return an embedding of the right dimension for
every node, (2) be deterministic given a seed, (3) beat random embeddings
at separating the planted communities of the two-view toy graph.
"""

import numpy as np
import pytest

from repro.baselines import (
    LINE,
    MVE,
    RGCN,
    DeepWalk,
    HIN2Vec,
    Metapath2Vec,
    Node2Vec,
    RandomEmbedding,
    SimplE,
)
from tests.graph.oracle import edge_rows

FAST_KW = dict(dim=8, seed=0)


def fast_methods():
    """One cheaply-configured instance per baseline."""
    return {
        "LINE": LINE(num_samples=40_000, lr=0.2, **FAST_KW),
        "DeepWalk": DeepWalk(
            walk_length=10, walks_per_node=4, epochs=12, lr=0.15, **FAST_KW
        ),
        "Node2Vec": Node2Vec(
            walk_length=10, walks_per_node=4, epochs=12, lr=0.15, **FAST_KW
        ),
        "Metapath2Vec": Metapath2Vec(
            ["item", "tag", "item"],
            walk_length=10,
            walks_per_node=4,
            epochs=12,
            lr=0.15,
            **FAST_KW,
        ),
        "HIN2VEC": HIN2Vec(
            walk_length=10, walks_per_node=3, epochs=8, lr=0.15, **FAST_KW
        ),
        "MVE": MVE(
            walk_length=10, walks_per_node=4, epochs=12, lr=0.15, **FAST_KW
        ),
        "R-GCN": RGCN(epochs=15, **FAST_KW),
        "SimplE": SimplE(epochs=15, **FAST_KW),
    }


@pytest.fixture(scope="module")
def toy():
    from repro.datasets import two_view_toy

    return two_view_toy(num_per_side=8)


def community_separation(embeddings, labels):
    """Mean same-community cosine minus mean cross-community cosine."""
    import itertools

    nodes = list(labels)
    same, diff = [], []
    for a, b in itertools.combinations(nodes, 2):
        va, vb = embeddings[a], embeddings[b]
        denom = np.linalg.norm(va) * np.linalg.norm(vb)
        if denom < 1e-12:
            continue
        cos = float(va @ vb / denom)
        (same if labels[a] == labels[b] else diff).append(cos)
    return np.mean(same) - np.mean(diff)


class TestCommonContract:
    @pytest.mark.parametrize("name", list(fast_methods()))
    def test_embeds_every_node(self, toy, name):
        graph, _ = toy
        emb = fast_methods()[name].fit(graph)
        assert set(emb) == set(graph.nodes)
        for vec in emb.values():
            assert vec.shape == (8,)
            assert np.isfinite(vec).all()

    @pytest.mark.parametrize("name", list(fast_methods()))
    def test_deterministic(self, toy, name):
        graph, _ = toy
        e1 = fast_methods()[name].fit(graph)
        e2 = fast_methods()[name].fit(graph)
        for node in e1:
            assert np.allclose(e1[node], e2[node]), name

    def test_invalid_dim_rejected(self):
        with pytest.raises(ValueError):
            DeepWalk(dim=0)

    def test_simple_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            SimplE(dim=7)

    @pytest.mark.parametrize("method", [HIN2Vec, SimplE])
    def test_non_positive_lr_rejected(self, method):
        with pytest.raises(ValueError, match="learning rate"):
            method(lr=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    @pytest.mark.parametrize("method", [HIN2Vec, SimplE, RGCN])
    def test_non_finite_lr_rejected(self, method, lr):
        with pytest.raises(ValueError, match="finite and positive"):
            method(lr=lr)


class TestQuality:
    """Every trained method must separate communities better than chance."""

    @pytest.mark.parametrize(
        "name", ["LINE", "DeepWalk", "Node2Vec", "MVE", "HIN2VEC"]
    )
    def test_beats_random_on_toy(self, toy, name):
        graph, labels = toy
        method = fast_methods()[name]
        trained = community_separation(method.fit(graph), labels)
        random = community_separation(
            RandomEmbedding(**FAST_KW).fit(graph), labels
        )
        assert trained > random + 0.05, (name, trained, random)


class TestRandomEmbedding:
    def test_shapes(self, toy):
        graph, _ = toy
        emb = RandomEmbedding(dim=4, seed=1).fit(graph)
        assert all(v.shape == (4,) for v in emb.values())


class TestMetapath2Vec:
    def test_off_path_types_get_zero(self, academic):
        method = Metapath2Vec(
            ["author", "paper", "author"],
            dim=8,
            walk_length=6,
            walks_per_node=2,
            epochs=1,
        )
        emb = method.fit(academic)
        for node in academic.nodes_of_type("university"):
            assert np.allclose(emb[node], 0.0)

    def test_missing_start_type_rejected(self, academic):
        method = Metapath2Vec(["author", "paper", "author"], dim=4)
        from repro.graph import HeteroGraph

        g = HeteroGraph()
        g.add_edge("p1", "p2", "PP", u_type="paper", v_type="paper")
        with pytest.raises(ValueError):
            method.fit(g)


class TestHIN2Vec:
    def test_relation_vocabulary_built(self, toy):
        graph, _ = toy
        method = HIN2Vec(dim=8, walk_length=6, walks_per_node=2, epochs=1, max_hops=2)
        method.fit(graph)
        assert len(method.relation_vocabulary) > 0
        for relation in method.relation_vocabulary:
            assert 1 <= len(relation) <= 2
            assert all(t in ("AA", "AB") for t in relation)

    def test_max_hops_validation(self):
        with pytest.raises(ValueError):
            HIN2Vec(max_hops=0)


class TestRGCN:
    def test_adjacency_normalized(self, academic):
        a = RGCN._normalized_adjacency(academic, "authorship")
        sums = a.sum(axis=1)
        nonzero = sums > 0
        assert np.allclose(sums[nonzero], 1.0)

    def test_ignores_weights(self, toy):
        """R-GCN consumes unit weights: scaling all weights is a no-op."""
        graph, _ = toy
        from repro.graph import HeteroGraph

        scaled = HeteroGraph()
        for node in graph.nodes:
            scaled.add_node(node, graph.node_type(node))
        for e in edge_rows(graph):
            scaled.add_edge(e.u, e.v, e.edge_type, e.weight * 10)
        e1 = RGCN(epochs=5, **FAST_KW).fit(graph)
        e2 = RGCN(epochs=5, **FAST_KW).fit(scaled)
        for node in e1:
            assert np.allclose(e1[node], e2[node])


class TestLINE:
    def test_needs_edges(self):
        from repro.graph import HeteroGraph

        g = HeteroGraph()
        g.add_node("a", "t")
        with pytest.raises(ValueError):
            LINE(**FAST_KW).fit(g)


# the three methods whose epochs are one CallablePhase each
_PHASE_OF = {"R-GCN": "rgcn", "SimplE": "simple", "HIN2VEC": "hin2vec"}


def _loop_method(name, **kw):
    args = dict(epochs=3, **FAST_KW, **kw)
    if name == "R-GCN":
        return RGCN(**args)
    if name == "SimplE":
        return SimplE(**args)
    return HIN2Vec(walk_length=6, walks_per_node=2, **args)


class TestEpochsRunThroughTheLoop:
    """R-GCN, SimplE and HIN2VEC train through the engine loop, so the
    callbacks, the health guard and the run report see their epochs."""

    @pytest.mark.parametrize("name", sorted(_PHASE_OF))
    def test_progress_reporter_prints_every_epoch(self, toy, name):
        from repro.engine import ProgressReporter

        graph, _ = toy
        lines = []
        method = _loop_method(name)
        method.callbacks.append(ProgressReporter(print_fn=lines.append))
        method.fit(graph)
        assert [line.split("]")[0] for line in lines] == [
            "[epoch 1/3",
            "[epoch 2/3",
            "[epoch 3/3",
        ]
        assert all(f"{_PHASE_OF[name]} loss=" in line for line in lines)

    @pytest.mark.parametrize("name", sorted(_PHASE_OF))
    def test_last_run_covers_every_epoch(self, toy, name):
        graph, _ = toy
        method = _loop_method(name)
        method.fit(graph)
        run = method.last_run_
        assert run.epochs_run == 3
        losses = run.series(_PHASE_OF[name])
        assert len(losses) == 3
        assert all(np.isfinite(losses)) and min(losses) > 0
        assert len(run.epoch_timings[_PHASE_OF[name]]) == 3

    @pytest.mark.parametrize("name", sorted(_PHASE_OF))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_health_guard_raises_on_nan_loss(self, toy, name):
        from repro.engine import NumericalHealthError

        graph, _ = toy
        # a finite learning rate so large that the first updates overflow
        # (a NaN one is rejected at construction)
        method = _loop_method(name, lr=1e300)
        method.attach_health_guard("raise")
        with pytest.raises(NumericalHealthError, match="non-finite"):
            method.fit(graph)

    @pytest.mark.parametrize("name", sorted(_PHASE_OF))
    def test_report_holds_phase_series_and_epoch_gauge(
        self, toy, name, tmp_path
    ):
        from repro.engine import load_report

        graph, _ = toy
        path = tmp_path / "run.json"
        _loop_method(name, report=path).fit(graph)
        document = load_report(path)
        phase = _PHASE_OF[name]
        series = document["metrics"]["series"]
        assert series[f"phase/{phase}/loss"]["count"] == 3
        assert series[f"phase/{phase}/seconds"]["count"] == 3
        assert document["metrics"]["gauges"]["loop/epochs_completed"] == 3
        run = document["trace"]["spans"][0]
        assert run["kind"] == "run"
        assert [e["kind"] for e in run["children"]] == ["epoch"] * 3
        assert run["children"][0]["children"][0]["name"] == phase

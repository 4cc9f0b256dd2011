"""Policy-layer tests: the pluggable strategy interface end to end.

Every policy's batched sampler is checked against its own exact
``slot_probs`` law with a chi-square goodness-of-fit bound — and because
the scalar :class:`ReferenceWalker` samples from that same ``slot_probs``,
batched/scalar equivalence holds *by construction*: there is exactly one
implementation of each transition formula to test.  The remaining tests
cover the policy registry, corpus integration
(``count_scale``, start restriction), and the BHIN2vec-style
:class:`RelationBalancer` loop callback.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from repro.core import TransN, TransNConfig
from repro.datasets import type_imbalanced_graph
from repro.engine import RelationBalancer
from repro.engine.observability import MetricsRegistry
from repro.graph import HeteroGraph, separate_views
from repro.walks import (
    POLICY_NAMES,
    BiasedCorrelatedPolicy,
    HetNode2VecPolicy,
    LockstepWalker,
    MetapathPolicy,
    Node2VecPolicy,
    ReferenceWalker,
    SpaceyMetapathPolicy,
    UniformPolicy,
    build_corpus,
    make_policy,
)

_TRIALS = 20_000


# ----------------------------------------------------------------------
# chi-square machinery
# ----------------------------------------------------------------------
def _node_law(policy, current, state=None, row=0):
    """Exact normalized next-*node* law from the policy's slot_probs."""
    csr = policy.csr
    if state is None:
        state = policy.init_state(np.array([current], dtype=np.int64))
    weights = np.asarray(policy.slot_probs(current, state, row), dtype=float)
    start, end = csr.indptr[current], csr.indptr[current + 1]
    neighbours = csr.indices[start:end]
    total = weights.sum()
    assert total > 0.0
    law: dict[int, float] = {}
    for slot, nbr in enumerate(neighbours):
        if weights[slot] > 0.0:
            law[int(nbr)] = law.get(int(nbr), 0.0) + weights[slot] / total
    return law


def _assert_chi_square(counts, law, trials):
    """Aggregate goodness-of-fit at the 99.9% quantile (seeded rng)."""
    assert set(counts) <= set(law)
    statistic = 0.0
    for node, p in law.items():
        expected = p * trials
        statistic += (counts.get(node, 0) - expected) ** 2 / expected
    bound = stats.chi2.isf(1e-3, df=max(len(law) - 1, 1))
    assert statistic < bound, f"chi2 {statistic:.1f} >= {bound:.1f}"


def _step_counts(walker, start, step, length, trials=_TRIALS):
    """Empirical node counts at walk position ``step`` from ``start``."""
    starts = np.full(trials, start, dtype=np.int64)
    matrix, lengths = walker.walk_batch(starts, length)
    took = matrix[lengths > step, step]
    values, counts = np.unique(took, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist())), int((lengths > step).sum())


def _advanced_state(policy, start, slot):
    """State of walk row 0 after taking ``slot`` out of ``start``."""
    state = policy.init_state(np.array([start], dtype=np.int64))
    policy.update_state(
        state,
        np.array([0], dtype=np.int64),
        np.array([start], dtype=np.int64),
        np.array([slot], dtype=np.int64),
    )
    return state


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def bipartite():
    """Weighted two-type graph where every node has degree >= 2."""
    g = HeteroGraph()
    for a in ("a0", "a1", "a2"):
        g.add_node(a, "A")
    for b in ("b0", "b1"):
        g.add_node(b, "B")
    g.add_edge("a0", "b0", "e", weight=4.0)
    g.add_edge("a0", "b1", "e", weight=1.0)
    g.add_edge("a1", "b0", "e", weight=2.0)
    g.add_edge("a1", "b1", "e", weight=3.0)
    g.add_edge("a2", "b0", "e", weight=1.0)
    g.add_edge("a2", "b1", "e", weight=5.0)
    return g


@pytest.fixture
def forced_path():
    """u's single edge forces the first step, isolating the second law."""
    g = HeteroGraph()
    g.add_node("u", "A")
    g.add_node("m", "B")
    g.add_node("v1", "A")
    g.add_node("v2", "A")
    g.add_node("n", "B")
    g.add_edge("u", "m", "e", weight=2.0)
    g.add_edge("m", "v1", "e", weight=1.0)
    g.add_edge("m", "v2", "e", weight=5.0)
    g.add_edge("m", "n", "e", weight=3.0)
    g.add_edge("n", "v1", "e", weight=1.0)
    return g


def _policy_factories(metapath=("A", "B", "A")):
    return {
        "uniform": lambda: UniformPolicy(),
        "biased": lambda: BiasedCorrelatedPolicy(),
        "node2vec": lambda: Node2VecPolicy(p=0.5, q=2.0),
        "het-node2vec": lambda: HetNode2VecPolicy(p=0.5, q=2.0, type_switch=3.0),
        "metapath": lambda: MetapathPolicy(list(metapath)),
        "spacey": lambda: SpaceyMetapathPolicy(list(metapath)),
    }


# ----------------------------------------------------------------------
# chi-square equivalence: every policy, batched sampler vs exact law
# ----------------------------------------------------------------------
class TestChiSquareFirstStep:
    """First-step distribution of every policy on the weighted bipartite."""

    @pytest.mark.parametrize("name", sorted(_policy_factories()))
    def test_first_step_matches_slot_probs(self, name, bipartite, rng):
        factories = _policy_factories()
        walker = LockstepWalker(bipartite, factories[name](), rng=rng)
        reference = factories[name]().bind(bipartite)
        start = bipartite.index_of("a0")
        counts, took = _step_counts(walker, start, step=1, length=2)
        assert took == _TRIALS
        _assert_chi_square(counts, _node_law(reference, start), _TRIALS)


class TestChiSquareSecondStep:
    """Stateful second-step laws, conditioned on a forced first step."""

    @pytest.mark.parametrize(
        "name", ["biased", "node2vec", "het-node2vec", "spacey"]
    )
    def test_second_step_matches_slot_probs(self, name, forced_path, rng):
        view = separate_views(forced_path)[0]
        factories = _policy_factories()
        walker = LockstepWalker(view, factories[name](), rng=rng)
        reference = factories[name]().bind(view)
        graph = view.graph
        u, m = graph.index_of("u"), graph.index_of("m")
        counts, took = _step_counts(walker, u, step=2, length=3)
        assert took == _TRIALS  # every m-neighbour has onward edges
        state = _advanced_state(reference, u, slot=0)  # u -> m is slot 0
        _assert_chi_square(counts, _node_law(reference, m, state), _TRIALS)

    def test_biased_second_step_is_correlated_on_heter_view(self, forced_path):
        view = separate_views(forced_path)[0]
        assert view.is_heter
        policy = BiasedCorrelatedPolicy().bind(view)
        assert policy.correlated


class TestScalarReference:
    """The scalar engine samples any policy from the same slot_probs."""

    def test_reference_walks_follow_edges(self, bipartite, rng):
        walker = ReferenceWalker(bipartite, Node2VecPolicy(p=0.5, q=2.0), rng=rng)
        for _ in range(50):
            walk = walker.walk("a0", 6)
            assert len(walk) == 6
            for a, b in zip(walk[:-1], walk[1:]):
                assert bipartite.has_edge(a, b)

    def test_reference_first_step_chi_square(self, bipartite, rng):
        trials = 4000
        walker = ReferenceWalker(bipartite, BiasedCorrelatedPolicy(), rng=rng)
        counts: dict[int, int] = {}
        for _ in range(trials):
            nxt = bipartite.index_of(walker.walk("a0", 2)[1])
            counts[nxt] = counts.get(nxt, 0) + 1
        law = _node_law(
            BiasedCorrelatedPolicy().bind(bipartite), bipartite.index_of("a0")
        )
        _assert_chi_square(counts, law, trials)


# ----------------------------------------------------------------------
# registry + binding contract
# ----------------------------------------------------------------------
class TestRegistry:
    def test_policy_names(self):
        assert POLICY_NAMES == (
            "biased",
            "het-node2vec",
            "metapath",
            "node2vec",
            "relation-balanced",
            "spacey",
            "uniform",
        )

    def test_make_policy_unknown(self):
        with pytest.raises(ValueError, match="unknown walk policy"):
            make_policy("teleport")

    def test_make_policy_kwargs(self):
        policy = make_policy("node2vec", p=0.5, q=2.0)
        assert isinstance(policy, Node2VecPolicy)
        assert (policy.p, policy.q) == (0.5, 2.0)

    def test_relation_balanced_walks_like_biased(self):
        assert isinstance(make_policy("relation-balanced"), BiasedCorrelatedPolicy)

    def test_rebind_rejected(self, bipartite, academic):
        policy = UniformPolicy().bind(bipartite)
        policy.bind(bipartite)  # idempotent
        with pytest.raises(RuntimeError, match="already bound"):
            policy.bind(academic)

    def test_unbound_csr_raises(self):
        with pytest.raises(RuntimeError, match="not bound"):
            UniformPolicy().csr

    def test_node2vec_validates_pq(self):
        with pytest.raises(ValueError, match="must be positive"):
            Node2VecPolicy(p=0.0, q=1.0)


# ----------------------------------------------------------------------
# het-node2vec: the type_switch knob
# ----------------------------------------------------------------------
class TestHetNode2Vec:
    def _mixed_graph(self):
        g = HeteroGraph()
        g.add_node("c", "A")
        g.add_node("same", "A")
        g.add_node("other", "B")
        g.add_edge("c", "same", "e", weight=1.0)
        g.add_edge("c", "other", "e", weight=1.0)
        g.add_edge("same", "other", "e", weight=1.0)
        return g

    def test_switch_boosts_cross_type(self):
        g = self._mixed_graph()
        c = g.index_of("c")
        neutral = _node_law(HetNode2VecPolicy(type_switch=1.0).bind(g), c)
        boosted = _node_law(HetNode2VecPolicy(type_switch=4.0).bind(g), c)
        other = g.index_of("other")
        assert neutral[other] == pytest.approx(0.5)
        assert boosted[other] == pytest.approx(4.0 / 5.0)

    def test_neutral_switch_matches_node2vec(self):
        g = self._mixed_graph()
        c = g.index_of("c")
        het = _node_law(
            HetNode2VecPolicy(p=0.5, q=2.0, type_switch=1.0).bind(g), c
        )
        plain = _node_law(Node2VecPolicy(p=0.5, q=2.0).bind(g), c)
        assert het == pytest.approx(plain)

    def test_validates_type_switch(self):
        with pytest.raises(ValueError, match="type_switch"):
            HetNode2VecPolicy(type_switch=0.0)


# ----------------------------------------------------------------------
# metapath + spacey
# ----------------------------------------------------------------------
class TestMetapathPolicy:
    def test_walks_follow_type_sequence(self, academic, rng):
        policy = MetapathPolicy(["author", "paper", "author"]).bind(academic)
        walker = LockstepWalker(academic, policy, rng=rng)
        starts = policy.start_indices()
        assert starts is not None and starts.size == 5  # the five authors
        matrix, lengths = walker.walk_batch(np.repeat(starts, 20), 7)
        cycle = ["author", "paper"]
        for row, n in zip(matrix, lengths):
            for pos in range(int(n)):
                node = academic.node_at(int(row[pos]))
                assert academic.node_type(node) == cycle[pos % 2]

    def test_off_path_start_type_rejected(self, academic):
        policy = MetapathPolicy(["paper", "author", "paper"]).bind(academic)
        with pytest.raises(ValueError, match="never visits"):
            policy.init_state(
                np.array([academic.index_of("U1")], dtype=np.int64)
            )

    def test_on_path_start_enters_mid_cycle(self, academic, rng):
        """An author start on the paper-author cycle aligns to position 1
        (the cross-view trainer launches walks from arbitrary nodes)."""
        policy = MetapathPolicy(["paper", "author", "paper"]).bind(academic)
        walker = LockstepWalker(academic, policy, rng=rng)
        start = academic.index_of("A1")
        matrix, lengths = walker.walk_batch(
            np.full(8, start, dtype=np.int64), 4
        )
        assert (lengths == 4).all()
        types = [
            academic.node_type(academic.node_at(int(v)))
            for v in matrix[0]
        ]
        assert types == ["author", "paper", "author", "paper"]

    def test_derives_cycle_per_view(self, book_view):
        view = separate_views(book_view)[0]
        policy = MetapathPolicy().bind(view)
        assert policy.start_indices() is not None

    def test_unknown_type_rejected_at_bind(self, academic):
        with pytest.raises(ValueError, match="unknown node type"):
            MetapathPolicy(["venue", "paper", "venue"]).bind(academic)


class TestSpaceyPolicy:
    def test_occupancy_reinforces_visited_types(self, forced_path):
        """A walk that has dwelt on type A tilts toward A-typed candidates.

        With occupancy (A=3, B=1) and reinforcement 1, A candidates get
        factor 4 and B candidates factor 2 over their raw edge weights.
        m's neighbours: u(A, w=2), v1(A, 1), v2(A, 5), n(B, 3).
        """
        view = separate_views(forced_path)[0]
        graph = view.graph
        policy = SpaceyMetapathPolicy(reinforcement=1.0).bind(view)
        state = {"occupancy": np.array([[3.0, 1.0]])}  # types sorted: A, B
        law = _node_law(policy, graph.index_of("m"), state)
        expected_n = 3.0 * 2.0 / ((2.0 + 1.0 + 5.0) * 4.0 + 3.0 * 2.0)
        assert law[graph.index_of("n")] == pytest.approx(expected_n)
        assert expected_n < 3.0 / 11.0  # shrunk vs. the raw weight share

    def test_zero_reinforcement_matches_edge_weights(self, forced_path):
        view = separate_views(forced_path)[0]
        graph = view.graph
        policy = SpaceyMetapathPolicy(reinforcement=0.0).bind(view)
        u, m = graph.index_of("u"), graph.index_of("m")
        state = _advanced_state(policy, u, slot=0)
        law = _node_law(policy, m, state)
        # m's incident weights: u=2, v1=1, v2=5, n=3 -> total 11
        assert law[graph.index_of("v2")] == pytest.approx(5.0 / 11.0)

    def test_fallback_keeps_walks_alive(self, rng):
        """A node with no metapath-admissible neighbour still advances."""
        g = HeteroGraph()
        g.add_node("a", "A")
        g.add_node("m", "B")
        g.add_node("n", "B")
        g.add_edge("a", "m", "e")
        g.add_edge("m", "n", "e")
        walker = LockstepWalker(
            g, SpaceyMetapathPolicy(["A", "B", "A"]), rng=rng
        )
        starts = np.full(64, g.index_of("n"), dtype=np.int64)
        # n's only neighbour is B-typed; admissible successor of B is A
        matrix, lengths = walker.walk_batch(starts, 4)
        assert (lengths == 4).all()
        assert (matrix[:, 1] == g.index_of("m")).all()


# ----------------------------------------------------------------------
# corpus integration
# ----------------------------------------------------------------------
class TestCorpusIntegration:
    def test_bare_policy_accepted(self, academic):
        corpus = build_corpus(
            academic,
            UniformPolicy(),
            length=5,
            rng=np.random.default_rng(0),
        )
        assert corpus.matrix.shape[1] == 5

    def test_count_scale_scales_walks(self, academic):
        base = build_corpus(
            academic, UniformPolicy(), length=5, rng=np.random.default_rng(0)
        )
        doubled = build_corpus(
            academic,
            UniformPolicy(),
            length=5,
            rng=np.random.default_rng(0),
            count_scale=2.0,
        )
        assert doubled.matrix.shape[0] == 2 * base.matrix.shape[0]

    def test_count_scale_floor_is_one_walk(self, academic):
        tiny = build_corpus(
            academic,
            UniformPolicy(),
            length=5,
            rng=np.random.default_rng(0),
            count_scale=1e-6,
        )
        # every positive-degree node still contributes at least one walk
        assert tiny.matrix.shape[0] == academic.num_nodes

    def test_start_restriction_applied(self, academic):
        corpus = build_corpus(
            academic,
            MetapathPolicy(["paper", "author", "paper"]),
            length=5,
            rng=np.random.default_rng(0),
        )
        papers = {academic.index_of("P1"), academic.index_of("P2")}
        assert set(corpus.matrix[:, 0].tolist()) <= papers


# ----------------------------------------------------------------------
# relation balancing
# ----------------------------------------------------------------------
class _FakeTrainer:
    def __init__(self, edge_type):
        self.view = SimpleNamespace(edge_type=edge_type)
        self.walk_scale = 1.0


class TestRelationBalancer:
    def _loop(self, metrics):
        return SimpleNamespace(metrics=metrics)

    def test_scales_follow_relative_loss(self):
        metrics = MetricsRegistry()
        metrics.observe("single_view/AA/loss", 2.0)
        metrics.observe("single_view/AB/loss", 1.0)
        lagging, leading = _FakeTrainer("AA"), _FakeTrainer("AB")
        RelationBalancer([lagging, leading]).on_epoch_end(
            self._loop(metrics), 0, {}
        )
        assert lagging.walk_scale == pytest.approx(2.0 / 1.5)
        assert leading.walk_scale == pytest.approx(1.0 / 1.5)
        assert metrics.gauges["balance/AA/walk_scale"] == lagging.walk_scale

    def test_clipped_to_bounds(self):
        metrics = MetricsRegistry()
        metrics.observe("single_view/AA/loss", 9.0)
        metrics.observe("single_view/AB/loss", 1.0)
        lagging, leading = _FakeTrainer("AA"), _FakeTrainer("AB")
        # raw ratios are 1.8 and 0.2; both land outside the bounds
        RelationBalancer(
            [lagging, leading], min_scale=0.5, max_scale=1.5
        ).on_epoch_end(self._loop(metrics), 0, {})
        assert lagging.walk_scale == 1.5
        assert leading.walk_scale == 0.5

    def test_single_view_is_noop(self):
        metrics = MetricsRegistry()
        metrics.observe("single_view/AA/loss", 2.0)
        only = _FakeTrainer("AA")
        RelationBalancer([only]).on_epoch_end(self._loop(metrics), 0, {})
        assert only.walk_scale == 1.0

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="strength"):
            RelationBalancer([], strength=-1.0)
        with pytest.raises(ValueError, match="min_scale"):
            RelationBalancer([], min_scale=0.0)

    def test_end_to_end_transn_balancing(self):
        graph, _ = type_imbalanced_graph(num_items=16, seed=3)
        config = TransNConfig(
            dim=8,
            seed=0,
            num_iterations=2,
            walk_policy="relation-balanced",
        )
        model = TransN(graph, config)
        model.fit()
        scales = [t.walk_scale for t in model.single_trainers]
        assert any(s != 1.0 for s in scales)
        assert all(0.25 <= s <= 4.0 for s in scales)

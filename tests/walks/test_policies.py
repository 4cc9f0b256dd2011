"""Policy-layer tests: the pluggable strategy interface end to end.

Every policy's batched sampler is checked against its own exact
``slot_probs`` law with a chi-square goodness-of-fit bound — and because
the scalar :class:`ReferenceWalker` samples from that same ``slot_probs``,
batched/scalar equivalence holds *by construction*: there is exactly one
implementation of each transition formula to test.  The remaining tests
cover the policy registry and corpus integration (start restriction).
"""

import numpy as np
import pytest
from scipy import stats

from repro.graph import HeteroGraph, separate_views
from repro.walks import (
    POLICY_NAMES,
    BiasedCorrelatedPolicy,
    LockstepWalker,
    MetapathPolicy,
    Node2VecPolicy,
    ReferenceWalker,
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
        "metapath": lambda: MetapathPolicy(list(metapath)),
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

    @pytest.mark.parametrize("name", ["biased", "node2vec"])
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
        assert POLICY_NAMES == ("biased", "metapath", "node2vec", "uniform")

    def test_make_policy_unknown(self):
        with pytest.raises(ValueError, match="unknown walk policy"):
            make_policy("teleport")

    def test_make_policy_kwargs(self):
        policy = make_policy("node2vec", p=0.5, q=2.0)
        assert isinstance(policy, Node2VecPolicy)
        assert (policy.p, policy.q) == (0.5, 2.0)

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
# metapath
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

    def test_start_restriction_applied(self, academic):
        corpus = build_corpus(
            academic,
            MetapathPolicy(["paper", "author", "paper"]),
            length=5,
            rng=np.random.default_rng(0),
        )
        papers = {academic.index_of("P1"), academic.index_of("P2")}
        assert set(corpus.matrix[:, 0].tolist()) <= papers

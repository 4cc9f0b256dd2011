"""Statistical-equivalence tests: lockstep engines vs. scalar walkers.

The batched walkers must sample the *same* Equation 6-7 distributions as
the scalar reference walkers; every test here compares a large batched
sample against the exact ``step_distribution()`` of the scalar
:class:`BiasedCorrelatedWalker` (or the uniform law) on graphs that
isolate one branch of Equation 4: pure pi_1, the correlated pi_1 * pi_2
branch, the Delta = 0 fallback, and stuck walks.
"""

import numpy as np
import pytest
from scipy import stats

from repro.graph import HeteroGraph, separate_views
from repro.walks import (
    BiasedCorrelatedPolicy,
    BiasedCorrelatedWalker,
    LockstepWalker,
    UniformPolicy,
)

_TRIALS = 20_000
_TOL = 0.02


def uniform_walker(view_or_graph, rng):
    return LockstepWalker(view_or_graph, UniformPolicy(), rng=rng)


def biased_walker(view_or_graph, rng, correlated=None):
    return LockstepWalker(
        view_or_graph, BiasedCorrelatedPolicy(correlated=correlated), rng=rng
    )


def _first_step_shares(walker, graph, start, trials=_TRIALS):
    """Empirical distribution of the second node over a big batch."""
    starts = np.full(trials, graph.index_of(start), dtype=np.int64)
    matrix, lengths = walker.walk_batch(starts, 2)
    assert (lengths == 2).all()
    values, counts = np.unique(matrix[:, 1], return_counts=True)
    return {
        graph.node_at(int(v)): c / trials for v, c in zip(values, counts)
    }


@pytest.fixture
def rating_view(book_view):
    """The Figure 4 book-rating view (weighted heter-view)."""
    return separate_views(book_view)[0]


class TestBatchedUniform:
    def test_ignores_weights(self, rng):
        g = HeteroGraph()
        for n in ("c", "h", "l"):
            g.add_node(n, "t")
        g.add_edge("c", "h", "e", weight=1000.0)
        g.add_edge("c", "l", "e", weight=0.001)
        walker = uniform_walker(g, rng=rng)
        shares = _first_step_shares(walker, g, "c")
        assert shares["h"] == pytest.approx(0.5, abs=_TOL)

    def test_walks_follow_edges(self, rating_view, rng):
        walker = uniform_walker(rating_view, rng=rng)
        graph = rating_view.graph
        starts = np.arange(graph.num_nodes, dtype=np.int64)
        matrix, lengths = walker.walk_batch(starts, 8)
        assert (lengths == 8).all()  # views have no isolated nodes
        for row, n in zip(matrix, lengths):
            for a, b in zip(row[: n - 1], row[1:n]):
                assert graph.has_edge(graph.node_at(int(a)), graph.node_at(int(b)))

    def test_stuck_walk_ends_early(self, rng):
        g = HeteroGraph()
        g.add_node("lonely", "t")
        g.add_node("a", "t")
        g.add_node("b", "t")
        g.add_edge("a", "b", "e")
        walker = uniform_walker(g, rng=rng)
        starts = np.array(
            [g.index_of("lonely"), g.index_of("a")], dtype=np.int64
        )
        matrix, lengths = walker.walk_batch(starts, 5)
        np.testing.assert_array_equal(lengths, [1, 5])
        np.testing.assert_array_equal(matrix[0, 1:], [-1, -1, -1, -1])
        assert (matrix[1] >= 0).all()


class TestBatchedBiasedPi1:
    """First steps (and homo-views) are pure Equation 6."""

    def test_first_step_matches_scalar_distribution(self, rating_view, rng):
        scalar = BiasedCorrelatedWalker(rating_view, rng=rng)
        batched = biased_walker(rating_view, rng=rng)
        expected = scalar.step_distribution("R1")
        shares = _first_step_shares(batched, rating_view.graph, "R1")
        for node, p in expected.items():
            assert shares.get(node, 0.0) == pytest.approx(p, abs=_TOL)

    def test_homo_view_every_step_is_pi1(self, triangle, rng):
        view = separate_views(triangle)[0]
        assert view.is_homo
        scalar = BiasedCorrelatedWalker(view, rng=rng)
        batched = biased_walker(view, rng=rng)
        assert not batched.policy.correlated
        graph = view.graph
        # condition on arriving at "y": second-step law must still be pi_1
        starts = np.full(_TRIALS, graph.index_of("x"), dtype=np.int64)
        matrix, _ = batched.walk_batch(starts, 3)
        via_y = matrix[matrix[:, 1] == graph.index_of("y")]
        values, counts = np.unique(via_y[:, 2], return_counts=True)
        shares = {
            graph.node_at(int(v)): c / via_y.shape[0]
            for v, c in zip(values, counts)
        }
        expected = scalar.step_distribution("y")
        for node, p in expected.items():
            assert shares.get(node, 0.0) == pytest.approx(p, abs=_TOL)


class TestBatchedCorrelatedPi2:
    """The pi_1 * pi_2 branch against the scalar exact distribution."""

    def _forced_first_step_graph(self):
        """u's only edge (weight 2) forces prev_weight = 2 at node m."""
        g = HeteroGraph()
        g.add_node("u", "A")
        g.add_node("m", "B")
        g.add_node("v1", "A")
        g.add_node("v2", "A")
        g.add_edge("u", "m", "e", weight=2.0)
        g.add_edge("m", "v1", "e", weight=1.0)
        g.add_edge("m", "v2", "e", weight=5.0)
        return separate_views(g)[0]

    def test_second_step_matches_scalar_distribution(self, rng):
        view = self._forced_first_step_graph()
        assert view.is_heter
        scalar = BiasedCorrelatedWalker(view, rng=rng)
        batched = biased_walker(view, rng=rng)
        assert batched.policy.correlated
        graph = view.graph
        starts = np.full(_TRIALS, graph.index_of("u"), dtype=np.int64)
        matrix, _ = batched.walk_batch(starts, 3)
        assert (matrix[:, 1] == graph.index_of("m")).all()
        values, counts = np.unique(matrix[:, 2], return_counts=True)
        shares = {
            graph.node_at(int(v)): c / _TRIALS
            for v, c in zip(values, counts)
        }
        expected = scalar.step_distribution("m", previous_weight=2.0)
        assert set(shares) <= set(expected)
        for node, p in expected.items():
            assert shares.get(node, 0.0) == pytest.approx(p, abs=_TOL)

    def test_delta_zero_falls_back_to_pi1(self, rng):
        """Equal incident weights (Delta = 0) -> pure Equation 6."""
        g = HeteroGraph()
        g.add_node("u", "A")
        g.add_node("x", "B")
        for n in ("a", "b"):
            g.add_node(n, "A")
        g.add_edge("u", "x", "e", weight=2.0)
        g.add_edge("x", "a", "e", weight=2.0)
        g.add_edge("x", "b", "e", weight=2.0)
        view = separate_views(g)[0]
        batched = biased_walker(view, rng=rng)
        graph = view.graph
        starts = np.full(_TRIALS, graph.index_of("u"), dtype=np.int64)
        matrix, _ = batched.walk_batch(starts, 3)
        assert (matrix[:, 1] == graph.index_of("x")).all()
        share_a = (matrix[:, 2] == graph.index_of("a")).mean()
        expected = BiasedCorrelatedWalker(view, rng=rng).step_distribution(
            "x", previous_weight=2.0
        )
        assert expected["a"] == pytest.approx(1.0 / 3.0)
        assert share_a == pytest.approx(expected["a"], abs=_TOL)

    def test_correlation_override(self, triangle, rng):
        walker = biased_walker(
            separate_views(triangle)[0], rng=rng, correlated=True
        )
        assert walker.policy.correlated

    def test_mixed_branches_long_walk_valid(self, rating_view, rng):
        """Long correlated walks stay on edges and keep full length."""
        batched = biased_walker(rating_view, rng=rng)
        graph = rating_view.graph
        starts = np.tile(np.arange(graph.num_nodes, dtype=np.int64), 50)
        matrix, lengths = batched.walk_batch(starts, 12)
        assert (lengths == 12).all()
        for row in matrix[:40]:
            for a, b in zip(row[:-1], row[1:]):
                assert graph.has_edge(graph.node_at(int(a)), graph.node_at(int(b)))

    def test_second_step_chi_square_bound(self, rng):
        """Goodness-of-fit bound on the Eq. 7 correlated-step branch.

        The per-node tolerance checks above can miss a systematic bias
        spread across the support; the chi-square statistic aggregates
        the whole distribution, so a subtly wrong pi_2 normalization or
        Delta sign fails here even when every marginal stays within
        ``_TOL``.  The rng fixture is seeded, so the draw — and the
        statistic — is deterministic; the 99.9% quantile guards against
        regressions, not sampling noise.
        """
        view = self._forced_first_step_graph()
        scalar = BiasedCorrelatedWalker(view, rng=rng)
        batched = biased_walker(view, rng=rng)
        graph = view.graph
        starts = np.full(_TRIALS, graph.index_of("u"), dtype=np.int64)
        matrix, _ = batched.walk_batch(starts, 3)
        expected = scalar.step_distribution("m", previous_weight=2.0)
        observed = np.array(
            [
                (matrix[:, 2] == graph.index_of(node)).sum()
                for node in expected
            ],
            dtype=float,
        )
        assert observed.sum() == _TRIALS  # the support is exactly {v1, v2}
        predicted = np.array(list(expected.values())) * _TRIALS
        statistic = ((observed - predicted) ** 2 / predicted).sum()
        bound = stats.chi2.isf(1e-3, df=len(expected) - 1)
        assert statistic < bound

    def test_first_step_chi_square_bound(self, rating_view, rng):
        """Same bound on the pure pi_1 branch over the Figure 4 view."""
        scalar = BiasedCorrelatedWalker(rating_view, rng=rng)
        batched = biased_walker(rating_view, rng=rng)
        graph = rating_view.graph
        starts = np.full(_TRIALS, graph.index_of("R1"), dtype=np.int64)
        matrix, _ = batched.walk_batch(starts, 2)
        expected = scalar.step_distribution("R1")
        observed = np.array(
            [
                (matrix[:, 1] == graph.index_of(node)).sum()
                for node in expected
            ],
            dtype=float,
        )
        assert observed.sum() == _TRIALS
        predicted = np.array(list(expected.values())) * _TRIALS
        statistic = ((observed - predicted) ** 2 / predicted).sum()
        assert statistic < stats.chi2.isf(1e-3, df=len(expected) - 1)

    def test_stuck_walk_keeps_prefix(self, rng):
        g = HeteroGraph()
        g.add_node("iso", "t")
        walker = biased_walker(g, rng=rng)
        matrix, lengths = walker.walk_batch(
            np.array([g.index_of("iso")], dtype=np.int64), 4
        )
        np.testing.assert_array_equal(lengths, [1])
        np.testing.assert_array_equal(matrix[0], [0, -1, -1, -1])

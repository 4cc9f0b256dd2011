"""Tests of the ``workers >= 1`` seed law: seed streams, wave order,
sharded corpus builds, and model fits.

The central claims under test:

* ``workers=N`` is deterministic for fixed ``N`` — repeated builds and
  full model fits reproduce bit-identically (the golden values live in
  ``tests/core/test_determinism.py``);
* the sharded sampler draws from the same walk law as the serial
  engine (chi-square goodness of fit against the policy's exact
  ``slot_probs``);
* cross-view pairs run in :func:`conflict_waves` order.
"""

import numpy as np
import pytest

from repro.datasets import two_view_toy
from repro.core import TransN, TransNConfig
from repro.engine.observability import MetricsRegistry
from repro.engine.parallel import (
    ParallelRuntime,
    conflict_waves,
    pair_rng,
    single_view_seed,
)
from repro.graph import separate_views
from repro.walks import BiasedCorrelatedPolicy, UniformPolicy, build_corpus
from tests.walks.test_policies import _assert_chi_square, _node_law

_CONFIG = dict(
    dim=8,
    walk_length=8,
    walk_floor=2,
    walk_cap=3,
    num_iterations=2,
    cross_path_len=3,
    cross_paths_per_pair=8,
    num_encoders=1,
    batch_size=64,
    seed=7,
)


@pytest.fixture(scope="module")
def toy_graph():
    graph, _ = two_view_toy()
    return graph


@pytest.fixture(scope="module")
def toy_view(toy_graph):
    return separate_views(toy_graph)[0]


@pytest.fixture(scope="module")
def runtime():
    """One two-worker runtime shared by the read-only corpus tests."""
    return ParallelRuntime(2)


def _fit(workers=0, **overrides):
    graph, _ = two_view_toy()
    model = TransN(graph, TransNConfig(**{**_CONFIG, **overrides}, workers=workers))
    model.fit()
    return model.embeddings()


# ----------------------------------------------------------------------
# seed streams & wave coloring
# ----------------------------------------------------------------------
class TestSeedStreams:
    def test_single_view_seed_keys_every_axis(self):
        base = single_view_seed(7, 0, 0).generate_state(4)
        for other in [(8, 0, 0), (7, 1, 0), (7, 0, 1)]:
            assert not np.array_equal(
                base, single_view_seed(*other).generate_state(4)
            )

    def test_pair_rng_streams_disjoint(self):
        draws = {
            key: pair_rng(7, *key).integers(1 << 30, size=4).tolist()
            for key in [(0, 0), (0, 1), (1, 0)]
        }
        assert len({tuple(v) for v in draws.values()}) == 3

    def test_phase_tags_separate_view_and_pair_streams(self):
        a = np.random.default_rng(single_view_seed(7, 3, 5)).integers(
            1 << 30, size=4
        )
        b = pair_rng(7, 3, 5).integers(1 << 30, size=4)
        assert not np.array_equal(a, b)


class TestConflictWaves:
    def test_greedy_first_fit(self):
        keys = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")]
        assert conflict_waves(keys) == [[0, 2], [1], [3]]

    def test_waves_are_view_disjoint(self):
        keys = [("a", "b"), ("a", "c"), ("b", "c"), ("d", "e"), ("c", "d")]
        waves = conflict_waves(keys)
        assert sorted(i for wave in waves for i in wave) == list(range(5))
        for wave in waves:
            views = [v for i in wave for v in keys[i]]
            assert len(views) == len(set(views))

    def test_empty(self):
        assert conflict_waves([]) == []

    def test_train_pairs_runs_in_wave_order(self):
        """Pair 2 fits pair 0's wave, so it trains before pair 1."""

        class Trainer:
            def __init__(self, key):
                self.pair = type("Pair", (), {"key": key})()

            def train_epoch(self, rng):
                ran.append(self.pair.key)
                return int(rng.integers(1 << 30))

        ran = []
        keys = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")]
        metrics = MetricsRegistry()
        results = ParallelRuntime(2, metrics=metrics).train_pairs(
            [Trainer(key) for key in keys],
            [pair_rng(7, k, 0) for k in range(len(keys))],
        )
        assert ran == [keys[0], keys[2], keys[1], keys[3]]
        assert results == [
            int(pair_rng(7, k, 0).integers(1 << 30)) for k in range(4)
        ]
        assert metrics.gauges["parallel/cross_view/waves"] == 3.0
        assert metrics.gauges["parallel/workers"] == 2.0

    def test_train_pairs_needs_one_rng_per_trainer(self):
        with pytest.raises(ValueError, match="rngs"):
            ParallelRuntime(1).train_pairs([], [pair_rng(7, 0, 0)])

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelRuntime(0)


# ----------------------------------------------------------------------
# sharded corpus builds
# ----------------------------------------------------------------------
class TestBuildCorpus:
    def test_fixed_worker_count_is_deterministic(self, runtime, toy_view):
        seed = single_view_seed(7, 0, 0)
        first = runtime.build_corpus(
            toy_view, BiasedCorrelatedPolicy(), length=8, seed_seq=seed
        )
        second = runtime.build_corpus(
            toy_view, BiasedCorrelatedPolicy(), length=8, seed_seq=seed
        )
        np.testing.assert_array_equal(first.matrix, second.matrix)
        np.testing.assert_array_equal(first.lengths, second.lengths)

    def test_different_draws_differ(self, runtime, toy_view):
        first = runtime.build_corpus(
            toy_view,
            BiasedCorrelatedPolicy(),
            length=8,
            seed_seq=single_view_seed(7, 0, 0),
        )
        second = runtime.build_corpus(
            toy_view,
            BiasedCorrelatedPolicy(),
            length=8,
            seed_seq=single_view_seed(7, 0, 1),
        )
        assert not np.array_equal(first.matrix, second.matrix)

    def test_is_the_one_block_stream(self, runtime, toy_view):
        """A build is the stream's single block: same seeds, same bytes."""
        seed = single_view_seed(7, 0, 2)
        built = runtime.build_corpus(
            toy_view, BiasedCorrelatedPolicy(), length=8, seed_seq=seed
        )
        for block_walks in (None, 10**6):
            blocks = list(
                runtime.stream_corpus(
                    toy_view,
                    BiasedCorrelatedPolicy(),
                    length=8,
                    block_walks=block_walks,
                    seed_seq=seed,
                )
            )
            assert len(blocks) == 1
            np.testing.assert_array_equal(blocks[0].matrix, built.matrix)
            np.testing.assert_array_equal(blocks[0].lengths, built.lengths)

    def test_empty_start_law_gives_empty_corpus(self, runtime, toy_view):
        corpus = runtime.build_corpus(
            toy_view,
            UniformPolicy(),
            length=4,
            walks_per_node_override=0,
            seed_seq=single_view_seed(7, 0, 0),
        )
        assert corpus.matrix.shape == (0, 4)

    def test_short_length_rejected(self, runtime, toy_view):
        with pytest.raises(ValueError, match="walk length"):
            runtime.build_corpus(
                toy_view,
                UniformPolicy(),
                length=1,
                seed_seq=single_view_seed(7, 0, 0),
            )

    def test_matches_serial_walk_law(self, runtime, toy_view):
        """Workers sample the exact policy law (chi-square bound)."""
        policy = BiasedCorrelatedPolicy()
        corpus = runtime.build_corpus(
            toy_view,
            policy,
            length=2,
            walks_per_node_override=4000,
            seed_seq=single_view_seed(11, 0, 0),
        )
        bound = policy.bind(toy_view)
        start = int(corpus.matrix[0, 0])
        rows = corpus.matrix[
            (corpus.matrix[:, 0] == start) & (corpus.lengths > 1)
        ]
        values, counts = np.unique(rows[:, 1], return_counts=True)
        _assert_chi_square(
            dict(zip(values.tolist(), counts.tolist())),
            _node_law(bound, start),
            int(counts.sum()),
        )

    def test_corpus_start_law_matches_serial(self, runtime, toy_view):
        """Same degree-based start multiset as the serial builder."""
        parallel = runtime.build_corpus(
            toy_view,
            UniformPolicy(),
            length=4,
            floor=2,
            cap=3,
            seed_seq=single_view_seed(7, 0, 0),
        )
        from repro.walks import LockstepWalker

        walker = LockstepWalker(
            toy_view, UniformPolicy(), rng=np.random.default_rng(0)
        )
        serial = build_corpus(
            toy_view,
            walker,
            length=4,
            floor=2,
            cap=3,
            rng=np.random.default_rng(0),
        )
        np.testing.assert_array_equal(
            np.sort(parallel.matrix[:, 0]), np.sort(serial.matrix[:, 0])
        )


# ----------------------------------------------------------------------
# model-level integration
# ----------------------------------------------------------------------
class TestParallelModel:
    def test_workers2_fit_is_deterministic(self):
        first, second = _fit(workers=2), _fit(workers=2)
        assert set(first) == set(second)
        for node in first:
            np.testing.assert_array_equal(first[node], second[node])

    def test_workers0_is_the_serial_path(self):
        graph, _ = two_view_toy()
        model = TransN(graph, TransNConfig(**_CONFIG, workers=0))
        assert model._parallel is None  # goldens in test_determinism.py

    def test_embeddings_finite(self):
        emb = _fit(workers=2)
        for vec in emb.values():
            assert np.all(np.isfinite(vec))

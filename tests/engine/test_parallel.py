"""Parallel-runtime tests: shared-memory CSR, determinism, fallback,
wave scheduling, and the cheap-pickle contract.

The central claims under test:

* a worker's view of the graph (attached over shared memory) is
  byte-equal to the owner's;
* ``workers=N`` is deterministic for fixed ``N`` — repeated builds and
  full model fits reproduce bit-identically — and the pool and the
  in-process crash fallback produce the same corpus;
* the parallel sampler draws from the same walk law as the serial
  engine (chi-square goodness of fit against the policy's exact
  ``slot_probs``);
* policies and adjacencies cross the process boundary as small
  rebuild-from-spec pickles, never dragging the graph along.
"""

import os
import pickle

import numpy as np
import pytest

from repro.datasets import two_view_toy
from repro.core import TransN, TransNConfig
from repro.engine.observability import MetricsRegistry
from repro.engine.parallel import (
    _ATTACHED,
    ParallelRuntime,
    SharedCSR,
    attach_shared_csr,
    conflict_waves,
    pair_rng,
    single_view_seed,
)
from repro.graph import separate_views
from repro.graph.csr import CSRAdjacency, csr_adjacency
from repro.walks import (
    BiasedCorrelatedPolicy,
    MetapathPolicy,
    Node2VecPolicy,
    UniformPolicy,
    build_corpus,
)
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
    with ParallelRuntime(2) as rt:
        yield rt


def _fit(workers=0, **overrides):
    graph, _ = two_view_toy()
    model = TransN(graph, TransNConfig(**{**_CONFIG, **overrides}, workers=workers))
    model.fit()
    emb = model.embeddings()
    if model._parallel is not None:
        model._parallel.shutdown()
    return emb


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


# ----------------------------------------------------------------------
# shared-memory publication / attachment
# ----------------------------------------------------------------------
class TestSharedCSR:
    def test_attach_equivalence(self, toy_view):
        """An attached adjacency is byte-equal to the published one."""
        csr = csr_adjacency(toy_view.graph)
        shared = SharedCSR(
            csr, columns=frozenset({"alias", "node_types"}), is_heter=False
        )
        try:
            # unregister=False: this process owns the registrations
            attached = attach_shared_csr(shared.spec, unregister=False)
            for name in CSRAdjacency.CORE_FIELDS:
                np.testing.assert_array_equal(
                    getattr(attached, name), getattr(csr, name)
                )
            for mine, theirs in zip(
                attached.alias_tables(), csr.alias_tables()
            ):
                np.testing.assert_array_equal(mine, theirs)
            np.testing.assert_array_equal(
                attached.node_type_codes, csr.node_type_codes
            )
            assert attached.detached
            assert not attached.indices.flags.writeable
        finally:
            _ATTACHED.pop(shared.spec.token, None)
            shared.close()

    def test_attach_is_cached_per_token(self, toy_view):
        csr = csr_adjacency(toy_view.graph)
        shared = SharedCSR(csr)
        try:
            first = attach_shared_csr(shared.spec, unregister=False)
            assert attach_shared_csr(shared.spec, unregister=False) is first
        finally:
            _ATTACHED.pop(shared.spec.token, None)
            shared.close()

    def test_unknown_column_rejected(self, toy_view):
        with pytest.raises(ValueError, match="unknown CSR columns"):
            SharedCSR(csr_adjacency(toy_view.graph), columns=frozenset({"bogus"}))

    def test_close_is_idempotent(self, toy_view):
        shared = SharedCSR(csr_adjacency(toy_view.graph))
        assert shared.nbytes > 0
        shared.close()
        shared.close()
        assert shared.nbytes == 0

    def test_spec_pickles_small(self, toy_view):
        shared = SharedCSR(csr_adjacency(toy_view.graph), columns=frozenset({"alias"}))
        try:
            payload = pickle.dumps(shared.spec)
            assert len(payload) < 2048
            clone = pickle.loads(payload)
            assert clone == shared.spec
        finally:
            shared.close()


# ----------------------------------------------------------------------
# cheap pickling of adjacencies and policies
# ----------------------------------------------------------------------
class TestCheapPickles:
    def test_policy_pickles_are_spec_sized(self, toy_graph):
        policies = [
            UniformPolicy(),
            BiasedCorrelatedPolicy(),
            Node2VecPolicy(p=0.5, q=2.0),
            MetapathPolicy(metapath=["item", "tag", "item"]),
        ]
        for policy in policies:
            # the parallel layer pickles *bound* policies — binding must
            # not drag the graph into the payload
            bound = policy.bind(toy_graph)
            payload = pickle.dumps(bound)
            # a rebuild-from-spec pickle, not a captured graph
            assert len(payload) < 1024, type(policy).__name__
            clone = pickle.loads(payload)
            assert type(clone) is type(policy)
            assert clone.spec() == policy.spec()

    def test_csr_pickle_excludes_graph_and_alias(self, toy_graph):
        csr = csr_adjacency(toy_graph)
        csr.alias_tables()  # built — and deliberately not serialized
        clone = pickle.loads(pickle.dumps(csr))
        assert clone.detached
        assert clone._alias is None
        np.testing.assert_array_equal(clone.indices, csr.indices)
        np.testing.assert_array_equal(clone.weights, csr.weights)

    def test_csr_pickle_is_array_sized(self, toy_graph):
        csr = csr_adjacency(toy_graph)
        payload = pickle.dumps(csr)
        core = sum(
            getattr(csr, name).nbytes for name in CSRAdjacency.CORE_FIELDS
        )
        # flat arrays plus bounded per-field overhead — no node dicts
        assert len(payload) < core + 4096


# ----------------------------------------------------------------------
# parallel corpus builds
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


class TestFallback:
    def test_broken_pool_replays_bit_identically(self, toy_view):
        seed = single_view_seed(7, 0, 3)
        with ParallelRuntime(2) as healthy:
            expected = healthy.build_corpus(
                toy_view, BiasedCorrelatedPolicy(), length=8, seed_seq=seed
            )
        metrics = MetricsRegistry()
        # a zero relaunch budget makes the first pool loss demote on
        # the spot — the pre-relaunch sticky-fallback behavior
        with ParallelRuntime(
            2, metrics=metrics, max_pool_relaunches=0
        ) as rt:
            # kill the workers for real; the next submit must break
            with pytest.raises(Exception):
                rt._pool.submit(os._exit, 1).result()
            corpus = rt.build_corpus(
                toy_view, BiasedCorrelatedPolicy(), length=8, seed_seq=seed
            )
            assert rt.pool_broken
            np.testing.assert_array_equal(corpus.matrix, expected.matrix)
            np.testing.assert_array_equal(corpus.lengths, expected.lengths)
            # demotion is sticky and quiet: later builds skip the pool
            again = rt.build_corpus(
                toy_view, BiasedCorrelatedPolicy(), length=8, seed_seq=seed
            )
            np.testing.assert_array_equal(again.matrix, expected.matrix)
        assert metrics.counters["parallel/fallback"] == 1.0
        kinds = [event["kind"] for event in metrics.events]
        assert "parallel/fallback" in kinds
        assert "parallel/pool_lost" in kinds

    def test_pool_relaunch_within_budget(self, toy_view):
        seed = single_view_seed(7, 0, 3)
        with ParallelRuntime(2) as healthy:
            expected = healthy.build_corpus(
                toy_view, BiasedCorrelatedPolicy(), length=8, seed_seq=seed
            )
        metrics = MetricsRegistry()
        with ParallelRuntime(
            2, metrics=metrics, relaunch_backoff=0.0
        ) as rt:
            with pytest.raises(Exception):
                rt._pool.submit(os._exit, 1).result()
            corpus = rt.build_corpus(  # loss detected; replays in-process
                toy_view, BiasedCorrelatedPolicy(), length=8, seed_seq=seed
            )
            np.testing.assert_array_equal(corpus.matrix, expected.matrix)
            assert not rt.pool_broken  # budget (default 2) not spent
            assert rt.pool_failures == 1
            again = rt.build_corpus(  # relaunches and uses the new pool
                toy_view, BiasedCorrelatedPolicy(), length=8, seed_seq=seed
            )
            np.testing.assert_array_equal(again.matrix, expected.matrix)
            assert rt._pool is not None
        assert metrics.counters["parallel/pool_relaunch"] == 1.0

    def test_shutdown_is_idempotent_after_pool_loss(self, toy_view):
        rt = ParallelRuntime(2, max_pool_relaunches=0)
        seed = single_view_seed(7, 0, 3)
        with pytest.raises(Exception):
            rt._pool.submit(os._exit, 1).result()
        rt.build_corpus(
            toy_view, BiasedCorrelatedPolicy(), length=8, seed_seq=seed
        )
        assert rt.pool_broken
        rt.shutdown()
        assert rt._shared == {}
        rt.shutdown()  # second call is a no-op
        rt.close()  # alias too


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

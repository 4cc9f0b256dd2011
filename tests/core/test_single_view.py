"""Tests for the single-view algorithm (Section III-A)."""

import copy

import numpy as np
import pytest

from repro.core.single_view import SingleViewTrainer
from repro.graph import separate_views
from repro.walks import (
    BiasedCorrelatedPolicy,
    LockstepWalker,
    Node2VecPolicy,
    UniformPolicy,
    build_corpus,
)


@pytest.fixture
def heter_view(toy_pair):
    graph, _ = toy_pair
    return next(v for v in separate_views(graph) if v.is_heter)


@pytest.fixture
def homo_view(toy_pair):
    graph, _ = toy_pair
    return next(v for v in separate_views(graph) if v.is_homo)


def make_trainer(view, rng, **kwargs):
    emb = rng.normal(0, 0.1, size=(view.num_nodes, 8))
    defaults = dict(walk_length=8, walk_floor=2, walk_cap=4, batch_size=64)
    defaults.update(kwargs)
    return SingleViewTrainer(view, emb, rng=rng, **defaults), emb


class TestConstruction:
    def test_embedding_shape_checked(self, heter_view, rng):
        with pytest.raises(ValueError):
            SingleViewTrainer(
                heter_view, np.zeros((heter_view.num_nodes + 1, 8)), rng=rng
            )

    def test_window_follows_definition_6(self, heter_view, homo_view, rng):
        heter_trainer, _ = make_trainer(heter_view, rng)
        homo_trainer, _ = make_trainer(homo_view, rng)
        assert heter_trainer.window == 2
        assert homo_trainer.window == 1

    def test_walker_selection(self, heter_view, rng):
        default_trainer, _ = make_trainer(heter_view, rng)
        simple_trainer, _ = make_trainer(
            heter_view, rng, policy=UniformPolicy()
        )
        assert isinstance(default_trainer.walker, LockstepWalker)
        assert isinstance(default_trainer.policy, BiasedCorrelatedPolicy)
        assert isinstance(simple_trainer.policy, UniformPolicy)

    def test_explicit_policy_wins(self, heter_view, rng):
        trainer, _ = make_trainer(
            heter_view, rng, policy=Node2VecPolicy(p=0.5, q=2.0)
        )
        assert isinstance(trainer.policy, Node2VecPolicy)
        assert trainer.walker.policy is trainer.policy


class TestTraining:
    def test_corpus_respects_policy(self, heter_view, rng):
        trainer, _ = make_trainer(heter_view, rng)
        (corpus,) = trainer.sample_blocks()
        n = heter_view.num_nodes
        assert 2 * n <= len(corpus) <= 4 * n

    def test_epoch_updates_embeddings(self, heter_view, rng):
        trainer, emb = make_trainer(heter_view, rng)
        before = emb.copy()
        loss = trainer.train_epoch(lr=0.1)
        assert loss > 0
        assert not np.allclose(emb, before)

    def test_loss_decreases_over_epochs(self, heter_view, rng):
        trainer, _ = make_trainer(heter_view, rng)
        losses = [trainer.train_epoch(lr=0.1) for _ in range(10)]
        assert losses[-1] < losses[0]

    def test_evaluate_loss_no_update(self, heter_view, rng):
        trainer, emb = make_trainer(heter_view, rng)
        before = emb.copy()
        loss = trainer.evaluate_loss()
        assert loss > 0
        assert np.allclose(emb, before)

    def test_embeddings_remain_finite(self, heter_view, rng):
        trainer, emb = make_trainer(heter_view, rng)
        for _ in range(15):
            trainer.train_epoch(lr=0.1)
        assert np.isfinite(emb).all()
        assert np.abs(emb).max() < 100


class TestOneBlockDraw:
    def test_unbudgeted_draw_is_one_block(self, heter_view):
        """More than 8,192 walks, no budget: one block, byte-equal to
        ``build_corpus`` from the same RNG state."""
        rng = np.random.default_rng(5)
        per_node = 8192 // heter_view.num_nodes + 1
        trainer, _ = make_trainer(
            heter_view, rng, walk_floor=per_node, walk_cap=per_node
        )
        state = copy.deepcopy(rng.bit_generator.state)
        blocks = list(trainer.sample_blocks())
        assert len(blocks) == 1
        assert len(blocks[0]) > 8192

        ref_rng = np.random.default_rng()
        ref_rng.bit_generator.state = state
        walker = LockstepWalker(
            heter_view, BiasedCorrelatedPolicy(), rng=ref_rng
        )
        expected = build_corpus(
            heter_view,
            walker,
            length=8,
            floor=per_node,
            cap=per_node,
            rng=ref_rng,
        )
        dtype = blocks[0].matrix.dtype
        assert (
            blocks[0].matrix.tobytes()
            == expected.matrix.astype(dtype).tobytes()
        )
        assert blocks[0].lengths.tobytes() == expected.lengths.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

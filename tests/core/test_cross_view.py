"""Tests for the cross-view algorithm (Section III-B)."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.core import RowAdam, similarity_loss
from repro.core.cross_view import CrossViewTrainer
from repro.graph import build_view_pairs, separate_views

from tests.core.per_chunk_oracle import use_per_chunk


class TestSimilarityLoss:
    def test_identical_normalized_is_zero(self, rng):
        a = Tensor(rng.normal(size=(4, 3)))
        assert similarity_loss(a, a).item() == pytest.approx(0.0, abs=1e-9)

    def test_opposite_is_two(self, rng):
        a = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(-a.data)
        assert similarity_loss(a, b).item() == pytest.approx(2.0, abs=1e-9)

    def test_orthogonal_is_one(self):
        a = Tensor(np.array([[1.0, 0.0]]))
        b = Tensor(np.array([[0.0, 1.0]]))
        assert similarity_loss(a, b).item() == pytest.approx(1.0)

    def test_scale_invariance_when_normalized(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(3, 4)))
        l1 = similarity_loss(a, b).item()
        l2 = similarity_loss(Tensor(a.data * 7.0), b).item()
        assert l1 == pytest.approx(l2)

    def test_unnormalized_literal_inner_product(self):
        a = Tensor(np.array([[1.0, 2.0]]))
        b = Tensor(np.array([[3.0, 4.0]]))
        loss = similarity_loss(a, b, normalize=False)
        assert loss.item() == pytest.approx(-(1 * 3 + 2 * 4))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            similarity_loss(
                Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(3, 2)))
            )

    def test_gradcheck(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        gradcheck(lambda a, b: similarity_loss(a, b), [a, b])


class TestRowAdam:
    def test_updates_only_given_rows(self, rng):
        matrix = rng.normal(size=(5, 3))
        snapshot = matrix.copy()
        adam = RowAdam(matrix, lr=0.1)
        adam.update(np.array([1, 3]), np.ones((2, 3)))
        assert not np.allclose(matrix[1], snapshot[1])
        assert np.allclose(matrix[0], snapshot[0])
        assert np.allclose(matrix[4], snapshot[4])

    def test_duplicate_rows_aggregated(self, rng):
        matrix = np.zeros((2, 2))
        adam = RowAdam(matrix, lr=0.1)
        adam.update(np.array([0, 0]), np.ones((2, 2)))
        # one Adam step with aggregated gradient, magnitude ~lr
        assert np.allclose(matrix[0], -0.1, atol=1e-6)

    def test_descends_quadratic(self, rng):
        matrix = rng.normal(size=(3, 2)) * 5
        adam = RowAdam(matrix, lr=0.1)
        rows = np.array([0, 1, 2])
        for _ in range(500):
            adam.update(rows, 2 * matrix[rows])
        assert np.abs(matrix).max() < 0.05

    def test_first_step_lr_sized(self):
        matrix = np.array([[1.0]])
        adam = RowAdam(matrix, lr=0.05)
        adam.update(np.array([0]), np.array([[10.0]]))
        assert matrix[0, 0] == pytest.approx(1.0 - 0.05, abs=1e-6)


@pytest.fixture
def toy_cross_trainer(toy_pair, rng):
    graph, _ = toy_pair
    views = separate_views(graph)
    pair = build_view_pairs(views)[0]
    emb_i = rng.normal(0, 0.1, size=(pair.view_i.num_nodes, 8))
    emb_j = rng.normal(0, 0.1, size=(pair.view_j.num_nodes, 8))
    trainer = CrossViewTrainer(
        pair,
        emb_i,
        emb_j,
        rng=rng,
        dim=8,
        cross_path_len=4,
        num_encoders=1,
        walk_length=10,
        paths_per_epoch=10,
    )
    return trainer, emb_i, emb_j


class TestCrossViewTrainer:
    def test_requires_a_task(self, toy_pair, rng):
        graph, _ = toy_pair
        views = separate_views(graph)
        pair = build_view_pairs(views)[0]
        with pytest.raises(ValueError):
            CrossViewTrainer(
                pair,
                np.zeros((pair.view_i.num_nodes, 4)),
                np.zeros((pair.view_j.num_nodes, 4)),
                rng=rng,
                dim=4,
                use_translation_tasks=False,
                use_reconstruction_tasks=False,
            )

    def test_epoch_reports_losses(self, toy_cross_trainer):
        trainer, _, _ = toy_cross_trainer
        losses = trainer.train_epoch()
        assert losses.num_paths > 0
        assert np.isfinite(losses.translation)
        assert np.isfinite(losses.reconstruction)
        assert losses.total == pytest.approx(
            losses.translation + losses.reconstruction
        )

    def test_epoch_updates_embeddings(self, toy_cross_trainer):
        trainer, emb_i, emb_j = toy_cross_trainer
        before_i, before_j = emb_i.copy(), emb_j.copy()
        trainer.train_epoch()
        assert not np.allclose(emb_i, before_i)
        assert not np.allclose(emb_j, before_j)

    def test_only_common_node_rows_touched(self, toy_cross_trainer):
        """Theta_cross: only embeddings of shared nodes are updated."""
        trainer, emb_i, emb_j = toy_cross_trainer
        pair = trainer.pair
        common = pair.common_nodes
        before_i = emb_i.copy()
        trainer.train_epoch()
        for node in pair.view_i.nodes:
            row = pair.view_i.graph.index_of(node)
            if node not in common:
                assert np.allclose(emb_i[row], before_i[row]), node

    def test_losses_decrease_over_epochs(self, toy_cross_trainer):
        trainer, _, _ = toy_cross_trainer
        first = trainer.train_epoch().total
        for _ in range(8):
            last = trainer.train_epoch().total
        assert last < first

    def test_translation_only_mode(self, toy_pair, rng):
        graph, _ = toy_pair
        views = separate_views(graph)
        pair = build_view_pairs(views)[0]
        trainer = CrossViewTrainer(
            pair,
            rng.normal(0, 0.1, size=(pair.view_i.num_nodes, 4)),
            rng.normal(0, 0.1, size=(pair.view_j.num_nodes, 4)),
            rng=rng,
            dim=4,
            cross_path_len=3,
            paths_per_epoch=6,
            use_reconstruction_tasks=False,
        )
        losses = trainer.train_epoch()
        assert losses.reconstruction == 0.0
        assert losses.translation != 0.0

    def test_batched_is_default(self, toy_cross_trainer, monkeypatch):
        """A direction takes one optimizer step over all of its chunks."""
        trainer, _, _ = toy_cross_trainer
        step_sizes = []
        train_step = CrossViewTrainer._train_step

        def counted(self, chunks, *step_args):
            step_sizes.append(chunks.shape[0])
            return train_step(self, chunks, *step_args)

        monkeypatch.setattr(CrossViewTrainer, "_train_step", counted)
        losses = trainer.train_epoch()
        assert 1 <= len(step_sizes) <= 2
        assert sum(step_sizes) == losses.num_paths > len(step_sizes)

    def test_scalar_reference_mode_trains(self, toy_pair, rng, monkeypatch):
        """The per-chunk Algorithm 1 reading trains through the same step."""
        use_per_chunk(monkeypatch)
        graph, _ = toy_pair
        views = separate_views(graph)
        pair = build_view_pairs(views)[0]
        emb_i = rng.normal(0, 0.1, size=(pair.view_i.num_nodes, 8))
        emb_j = rng.normal(0, 0.1, size=(pair.view_j.num_nodes, 8))
        trainer = CrossViewTrainer(
            pair,
            emb_i,
            emb_j,
            rng=rng,
            dim=8,
            cross_path_len=4,
            num_encoders=1,
            walk_length=10,
            paths_per_epoch=10,
        )
        before_i = emb_i.copy()
        losses = trainer.train_epoch()
        assert losses.num_paths > 0
        assert np.isfinite(losses.total)
        assert not np.allclose(emb_i, before_i)

    def test_scalar_mode_touches_only_common_rows(
        self, toy_pair, rng, monkeypatch
    ):
        use_per_chunk(monkeypatch)
        graph, _ = toy_pair
        views = separate_views(graph)
        pair = build_view_pairs(views)[0]
        emb_i = rng.normal(0, 0.1, size=(pair.view_i.num_nodes, 8))
        emb_j = rng.normal(0, 0.1, size=(pair.view_j.num_nodes, 8))
        trainer = CrossViewTrainer(
            pair, emb_i, emb_j, rng=rng, dim=8, cross_path_len=3,
            paths_per_epoch=8,
        )
        before_i = emb_i.copy()
        trainer.train_epoch()
        for node in pair.view_i.nodes:
            row = pair.view_i.graph.index_of(node)
            if node not in pair.common_nodes:
                assert np.allclose(emb_i[row], before_i[row]), node

    def test_reconstruction_only_mode(self, toy_pair, rng):
        graph, _ = toy_pair
        views = separate_views(graph)
        pair = build_view_pairs(views)[0]
        trainer = CrossViewTrainer(
            pair,
            rng.normal(0, 0.1, size=(pair.view_i.num_nodes, 4)),
            rng.normal(0, 0.1, size=(pair.view_j.num_nodes, 4)),
            rng=rng,
            dim=4,
            cross_path_len=3,
            paths_per_epoch=6,
            use_translation_tasks=False,
        )
        losses = trainer.train_epoch()
        assert losses.translation == 0.0
        assert losses.reconstruction != 0.0

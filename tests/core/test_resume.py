"""Crash/resume and health-guard integration tests for TransN.

The contract under test: a run that is interrupted (killed) and resumed
from its checkpoints is *bit-identical* to a run that was never
interrupted — same loss trajectory, same final embeddings — because the
checkpoint captures every piece of mutable state (embeddings, optimizer
moments, translator parameters, phase learning rates, loss history, and
the shared RNG stream).
"""

import numpy as np
import pytest

from repro.core import TransN, TransNConfig
from repro.core.cross_view import CrossViewLosses
from repro.datasets import two_view_toy
from repro.engine import Callback, NumericalHealthError

from tests.core.per_chunk_oracle import use_per_chunk
from tests.core.test_determinism import _CONFIG, _GOLDEN


@pytest.fixture()
def graph():
    graph, _ = two_view_toy()
    return graph


def _config(**overrides):
    return TransNConfig(**{**_CONFIG, **overrides})


class _KillAfter(Callback):
    """Simulates a crash: raises after ``epochs`` completed epochs.

    Attached after the engine's Checkpointer (user callbacks fire last),
    so the kill lands exactly like a SIGKILL between a completed snapshot
    and the next epoch.
    """

    def __init__(self, epochs):
        self.epochs = epochs

    def on_epoch_end(self, loop, epoch, logs):
        if epoch + 1 >= self.epochs:
            raise KeyboardInterrupt("simulated crash")


class TestResumeEquivalence:
    def test_killed_and_resumed_run_is_bit_identical(self, graph, tmp_path):
        uninterrupted = TransN(graph, _config())
        uninterrupted.fit(num_iterations=2)

        killed = TransN(graph, _config())
        with pytest.raises(KeyboardInterrupt):
            killed.fit(
                num_iterations=2,
                checkpoint=tmp_path,
                callbacks=[_KillAfter(1)],
            )

        resumed = TransN(graph, _config())
        resumed.fit(num_iterations=2, checkpoint=tmp_path, resume=True)

        # bit-exact equality — not approximate
        assert np.array_equal(
            uninterrupted.embedding_matrix(), resumed.embedding_matrix()
        )
        assert resumed.history.single_view == uninterrupted.history.single_view
        assert resumed.history.translation == uninterrupted.history.translation
        assert (
            resumed.history.reconstruction
            == uninterrupted.history.reconstruction
        )
        assert resumed.last_run.epochs_run == 2

    def test_resumed_run_matches_goldens(self, graph, tmp_path):
        """The resumed run hits the determinism goldens, proving the
        checkpoint layer does not perturb the paper trajectory."""
        model = TransN(graph, _config())
        with pytest.raises(KeyboardInterrupt):
            model.fit(
                num_iterations=2,
                checkpoint=tmp_path,
                callbacks=[_KillAfter(1)],
            )
        resumed = TransN(graph, _config())
        resumed.fit(num_iterations=2, checkpoint=tmp_path, resume=True)
        for node, expected in _GOLDEN.items():
            np.testing.assert_allclose(
                resumed.embedding(node)[:4], expected, atol=1e-8
            )

    def test_clean_stop_then_resume(self, graph, tmp_path):
        """Stopping after K iterations and resuming to K' equals a
        straight K'-iteration run (nothing in an epoch depends on the
        requested total)."""
        straight = TransN(graph, _config())
        straight.fit(num_iterations=4)

        first = TransN(graph, _config())
        first.fit(num_iterations=2, checkpoint=tmp_path)
        resumed = TransN(graph, _config())
        resumed.fit(num_iterations=4, checkpoint=tmp_path, resume=True)

        assert np.array_equal(
            straight.embedding_matrix(), resumed.embedding_matrix()
        )
        assert resumed.history.single_view == straight.history.single_view

    def test_dense_path_checkpoint_resumes(self, graph, tmp_path):
        """A checkpoint in the layout of older releases — the removed
        dense path's config fields and ``stream_corpus=False``, the
        removed ``shard_timeout`` field, pipeline states without a
        freeze flag — resumes to the straight run's bytes."""
        from repro.engine import CheckpointManager

        straight = TransN(graph, _config())
        straight.fit(num_iterations=4)

        TransN(graph, _config()).fit(num_iterations=2, checkpoint=tmp_path)
        manager = CheckpointManager(tmp_path)
        saved = manager.load_latest()
        model_state = saved.state["model"]
        model_state["config"].update(
            stream_corpus=False,
            prefetch=None,
            simple_walk=False,
            batched_cross_view=True,
            shard_timeout=None,
        )
        for view_state in model_state["single_view"].values():
            del view_state["pipeline"]["noise_frozen"]
        manager.save(saved.state, saved.step)

        resumed = TransN(graph, _config())
        resumed.fit(num_iterations=4, checkpoint=tmp_path, resume=True)
        assert np.array_equal(
            straight.embedding_matrix(), resumed.embedding_matrix()
        )

    def test_checkpoint_from_before_the_policy_removal_resumes(
        self, graph, tmp_path
    ):
        """A checkpoint written while het-node2vec, spacey and
        relation-balanced existed carries their config fields and a
        neutral ``walk_scale`` per view; it resumes to the straight run's
        bytes."""
        from repro.engine import CheckpointManager

        straight = TransN(graph, _config())
        straight.fit(num_iterations=4)

        TransN(graph, _config()).fit(num_iterations=2, checkpoint=tmp_path)
        manager = CheckpointManager(tmp_path)
        saved = manager.load_latest()
        model_state = saved.state["model"]
        model_state["config"].update(type_switch=2.0, balance_strength=1.0)
        for view_state in model_state["single_view"].values():
            view_state["walk_scale"] = 1.0
        manager.save(saved.state, saved.step)

        resumed = TransN(graph, _config())
        resumed.fit(num_iterations=4, checkpoint=tmp_path, resume=True)
        assert np.array_equal(
            straight.embedding_matrix(), resumed.embedding_matrix()
        )

    def test_relation_balanced_checkpoint_is_refused(self, graph, tmp_path):
        """A relation-balanced run's checkpoint (rescaled walk counts) is
        not silently continued under another policy."""
        from repro.engine import CheckpointManager

        TransN(graph, _config()).fit(num_iterations=1, checkpoint=tmp_path)
        manager = CheckpointManager(tmp_path)
        saved = manager.load_latest()
        model_state = saved.state["model"]
        model_state["config"].update(
            walk_policy="relation-balanced", balance_strength=1.0
        )
        for view_state in model_state["single_view"].values():
            view_state["walk_scale"] = 1.5
        manager.save(saved.state, saved.step)

        resumed = TransN(graph, _config())
        with pytest.raises(ValueError, match="walk_policy.*relation-balanced"):
            resumed.fit(num_iterations=2, checkpoint=tmp_path, resume=True)

    def test_resume_with_empty_directory_starts_fresh(self, graph, tmp_path):
        fresh = TransN(graph, _config())
        fresh.fit(num_iterations=2)
        resumed = TransN(graph, _config())
        resumed.fit(num_iterations=2, checkpoint=tmp_path, resume=True)
        assert np.array_equal(
            fresh.embedding_matrix(), resumed.embedding_matrix()
        )

    def test_resume_needs_checkpoint_location(self, graph):
        model = TransN(graph, _config())
        with pytest.raises(ValueError, match="checkpoint directory"):
            model.fit(resume=True)

    def test_resume_rejects_fewer_iterations_than_covered(
        self, graph, tmp_path
    ):
        model = TransN(graph, _config())
        model.fit(num_iterations=2, checkpoint=tmp_path)
        resumed = TransN(graph, _config())
        with pytest.raises(ValueError, match="already covers"):
            resumed.fit(num_iterations=1, checkpoint=tmp_path, resume=True)

    def test_config_mismatch_is_rejected(self, graph, tmp_path):
        model = TransN(graph, _config())
        model.fit(num_iterations=1, checkpoint=tmp_path)
        other = TransN(graph, _config(dim=4))
        with pytest.raises(ValueError, match="dim"):
            other.fit(num_iterations=2, checkpoint=tmp_path, resume=True)

    def test_run_control_fields_may_differ(self, graph, tmp_path):
        """num_iterations / checkpoint_every / health_policy are run
        control, not trajectory hyper-parameters: resuming with different
        values is allowed."""
        model = TransN(graph, _config())
        model.fit(num_iterations=1, checkpoint=tmp_path)
        resumed = TransN(
            graph, _config(checkpoint_every=2, health_policy="raise")
        )
        resumed.fit(num_iterations=2, checkpoint=tmp_path, resume=True)
        assert resumed.last_run.epochs_run == 2


def _poison_single_view(model, bad_call):
    """Make the first view's train_epoch report NaN on its Nth call."""
    trainer = model.single_trainers[0]
    original = trainer.train_epoch
    counter = {"calls": 0}

    def wrapped(lr):
        counter["calls"] += 1
        value = original(lr=lr)
        return float("nan") if counter["calls"] == bad_call else value

    trainer.train_epoch = wrapped
    return counter


class TestHealthPolicies:
    def test_raise_policy_fails_fast(self, graph):
        model = TransN(graph, _config(health_policy="raise"))
        _poison_single_view(model, bad_call=2)
        with pytest.raises(NumericalHealthError, match="non-finite"):
            model.fit(num_iterations=3)

    def test_skip_policy_completes(self, graph, capsys):
        model = TransN(graph, _config(health_policy="skip"))
        _poison_single_view(model, bad_call=2)
        model.fit(num_iterations=3)
        assert model.last_run.epochs_run == 3
        assert "skipping" in capsys.readouterr().out

    @pytest.mark.parametrize("batched", [True, False])
    def test_rollback_restores_and_halves_single_view_lr(
        self, graph, batched, capsys, monkeypatch
    ):
        if not batched:
            use_per_chunk(monkeypatch)
        config = _config(health_policy="rollback")
        model = TransN(graph, config)
        counter = _poison_single_view(model, bad_call=2)
        model.fit(num_iterations=3)
        # the poisoned epoch was retried: one extra call
        assert counter["calls"] == 4
        assert model.last_run.epochs_run == 3
        # the offending phase's lr was halved, the cross phase untouched
        assert model._phases[0].lr == config.lr_single / 2
        assert model._phases[1].lr == config.lr_cross
        # the recorded history carries no trace of the discarded epoch
        assert len(model.history.single_view) == 3
        assert all(np.isfinite(model.history.single_view))
        assert "rolled back" in capsys.readouterr().out

    def test_rollback_restores_and_halves_cross_view_lr(self, graph, capsys):
        config = _config(health_policy="rollback")
        model = TransN(graph, config)
        trainer = model.cross_trainers[0]
        original = trainer.train_epoch
        counter = {"calls": 0}

        def wrapped():
            counter["calls"] += 1
            losses = original()
            if counter["calls"] == 2:
                return CrossViewLosses(
                    translation=float("nan"),
                    reconstruction=losses.reconstruction,
                    num_paths=losses.num_paths,
                )
            return losses

        trainer.train_epoch = wrapped
        model.fit(num_iterations=3)
        assert model.last_run.epochs_run == 3
        assert model._phases[1].lr == config.lr_cross / 2
        # halving propagates to the trainer's coupled optimizer rates
        assert trainer._translator_optim.lr == pytest.approx(
            config.lr_cross / 2
        )
        assert trainer._row_adam_i.lr == pytest.approx(
            config.lr_cross_embeddings / 2
        )
        assert model._phases[0].lr == config.lr_single
        assert "rolled back" in capsys.readouterr().out

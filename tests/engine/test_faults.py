"""Chaos tests: the fault-injection harness and the hardening it proves.

Two layers under test.  The :class:`FaultInjector` itself must be
deterministic bookkeeping — exact invocation counts, seeded per-point
RNGs, scoped activation.  And the runtime it attacks must *survive* every
armed fault with bit-identical output: a full disk under the
checkpointer, and (end-to-end) chaos model fits — a bit-rotted spill, a
failed checkpoint save, a full disk while recording — that must match
the fault-free fit array-for-array.
"""

import errno

import numpy as np
import pytest

from repro.core import TransN, TransNConfig
from repro.datasets import two_view_toy
from repro.engine import (
    CallablePhase,
    Checkpointer,
    CheckpointManager,
    TrainingLoop,
)
from repro.engine import faults
from repro.engine.faults import FaultInjector, scoped
from repro.engine.observability import MetricsRegistry

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


# ----------------------------------------------------------------------
# the injector itself
# ----------------------------------------------------------------------
class TestInjector:
    def test_fires_exact_count(self):
        injector = FaultInjector().arm("checkpoint.write_error", times=2)
        assert injector.should_fire("checkpoint.write_error")
        assert injector.should_fire("checkpoint.write_error")
        assert not injector.should_fire("checkpoint.write_error")
        assert injector.fired["checkpoint.write_error"] == 2
        assert injector.armed_points() == []

    def test_skip_lets_early_invocations_through(self):
        injector = FaultInjector().arm("spill.bitflip", skip=2)
        assert [injector.should_fire("spill.bitflip") for _ in range(4)] == [
            False, False, True, False,
        ]

    def test_unarmed_point_never_fires(self):
        injector = FaultInjector()
        assert not injector.should_fire("spill.bitflip")
        assert injector.fired == {}

    def test_unknown_point_rejected(self):
        injector = FaultInjector()
        # a stale `--chaos worker.crash` must fail with the known points
        for point in ("worker.bogus", "worker.crash"):
            with pytest.raises(ValueError, match="unknown fault point"):
                injector.arm(point)
            with pytest.raises(ValueError, match="unknown fault point"):
                injector.should_fire(point)
            with pytest.raises(ValueError, match="unknown fault point"):
                FaultInjector.from_spec(point)

    def test_arm_validates_counts(self):
        with pytest.raises(ValueError, match="times"):
            FaultInjector().arm("spill.bitflip", times=0)
        with pytest.raises(ValueError, match="skip"):
            FaultInjector().arm("spill.bitflip", skip=-1)

    def test_from_spec(self):
        injector = FaultInjector.from_spec(
            "checkpoint.write_error, spill.bitflip:2"
        )
        assert injector.armed_points() == [
            "checkpoint.write_error", "spill.bitflip",
        ]
        assert injector.should_fire("spill.bitflip")
        assert injector.should_fire("spill.bitflip")
        assert not injector.should_fire("spill.bitflip")

    def test_from_spec_bad_entry(self):
        with pytest.raises(ValueError, match="point\\[:times\\]"):
            FaultInjector.from_spec("spill.bitflip:lots")
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultInjector.from_spec("spill.sulk")

    def test_from_spec_empty(self):
        with pytest.raises(ValueError, match="arms no fault points"):
            FaultInjector.from_spec(" , ")

    def test_fire_os_error(self):
        injector = FaultInjector().arm("spill.write_enospc")
        with pytest.raises(OSError) as excinfo:
            injector.fire_os_error("spill.write_enospc")
        assert excinfo.value.errno == errno.ENOSPC
        injector.fire_os_error("spill.write_enospc")  # exhausted: no-op

    def test_rng_is_seeded_and_per_point(self):
        a = FaultInjector(seed=11).rng("spill.bitflip").integers(1 << 30)
        b = FaultInjector(seed=11).rng("spill.bitflip").integers(1 << 30)
        c = FaultInjector(seed=11).rng("spill.write_enospc").integers(1 << 30)
        d = FaultInjector(seed=12).rng("spill.bitflip").integers(1 << 30)
        assert a == b
        assert a != c
        assert a != d

    def test_scoped_restores_previous(self):
        assert faults.get_active() is None
        outer = FaultInjector()
        with scoped(outer):
            assert faults.get_active() is outer
            with scoped(FaultInjector()):
                assert faults.get_active() is not outer
            assert faults.get_active() is outer
        assert faults.get_active() is None

    def test_metrics_binding(self):
        metrics = MetricsRegistry()
        injector = FaultInjector().arm("checkpoint.write_error")
        injector.bind_metrics(metrics)
        assert injector.should_fire("checkpoint.write_error")
        assert metrics.counters["faults/injected/checkpoint.write_error"] == 1.0
        kinds = [event["kind"] for event in metrics.events]
        assert "faults/armed" in kinds
        assert "faults/injected" in kinds


# ----------------------------------------------------------------------
# checkpoint write errors degrade, never kill the run
# ----------------------------------------------------------------------
class _Provider:
    def state_dict(self):
        return {"value": 1.0}

    def load_state_dict(self, state):
        pass


class TestCheckpointWriteError:
    def test_failed_save_warns_and_training_continues(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        metrics = MetricsRegistry()
        saver = Checkpointer(manager, _Provider(), every=1)
        phase = CallablePhase("train", lambda loop, epoch: {"loss": 1.0})
        loop = TrainingLoop([phase], callbacks=[saver], metrics=metrics)
        injector = FaultInjector().arm("checkpoint.write_error")
        with scoped(injector):
            with pytest.warns(RuntimeWarning, match="checkpoint save"):
                loop.run(2)
        # epoch 1's snapshot was lost; epoch 2's landed on the retry
        assert manager.steps() == [2]
        assert saver.write_errors == 1
        assert metrics.counters["checkpoint/write_errors"] == 1.0
        kinds = [event["kind"] for event in metrics.events]
        assert "checkpoint/write_errors" in kinds

    def test_real_oserror_also_degrades(self, tmp_path, monkeypatch):
        manager = CheckpointManager(tmp_path)
        saver = Checkpointer(manager, _Provider(), every=1)
        phase = CallablePhase("train", lambda loop, epoch: {"loss": 1.0})
        loop = TrainingLoop([phase], callbacks=[saver])

        def broken_save(state, step):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(manager, "save", broken_save)
        with pytest.warns(RuntimeWarning, match="training continues"):
            loop.run(2)
        assert loop.epochs_completed == 2
        assert saver.write_errors == 3  # epochs 1, 2 and the end-of-run save


# ----------------------------------------------------------------------
# end to end: a chaos fit must equal the fault-free fit bit for bit
# ----------------------------------------------------------------------
def _fit(spill_dir=None, checkpoint=None, **overrides):
    graph, _ = two_view_toy()
    config = dict(_CONFIG, workers=1, **overrides)
    if spill_dir is not None:
        config.update(stream_corpus=True, spill_dir=str(spill_dir))
    model = TransN(graph, TransNConfig(**config))
    model.fit(checkpoint=checkpoint)
    return model.embeddings()


class TestModelChaos:
    def test_chaos_fit_matches_clean_fit(self, tmp_path):
        clean = _fit(
            spill_dir=tmp_path / "clean", checkpoint=tmp_path / "clean-ck"
        )
        injector = (
            FaultInjector(seed=7)
            .arm("spill.bitflip")
            .arm("checkpoint.write_error")
        )
        with scoped(injector):
            with pytest.warns(RuntimeWarning, match="checkpoint save"):
                chaotic = _fit(
                    spill_dir=tmp_path / "chaos",
                    checkpoint=tmp_path / "chaos-ck",
                )
        assert injector.fired["spill.bitflip"] == 1
        assert injector.fired["checkpoint.write_error"] == 1
        assert set(clean) == set(chaotic)
        for node in clean:
            np.testing.assert_array_equal(clean[node], chaotic[node])

    def test_enospc_while_recording_matches_clean_fit(self, tmp_path):
        clean = _fit(spill_dir=tmp_path / "clean")
        injector = FaultInjector(seed=7).arm("spill.write_enospc")
        with scoped(injector):
            chaotic = _fit(spill_dir=tmp_path / "chaos")
        assert injector.fired["spill.write_enospc"] == 1
        for node in clean:
            np.testing.assert_array_equal(clean[node], chaotic[node])

    def test_on_spill_error_raise_propagates(self, tmp_path):
        injector = FaultInjector(seed=7).arm("spill.write_enospc")
        with scoped(injector):
            with pytest.raises(OSError):
                _fit(spill_dir=tmp_path / "chaos", on_spill_error="raise")

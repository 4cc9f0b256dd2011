"""Tests for the engine's TrainingLoop and callback system."""

import numpy as np
import pytest

from repro.engine import (
    Callback,
    CallablePhase,
    EarlyStopping,
    LinearLRDecay,
    LossHistory,
    PhaseTimer,
    ProgressReporter,
    SkipGramPhase,
    TrainingLoop,
)


class RecordingCallback(Callback):
    """Logs every hook invocation as a tagged tuple."""

    def __init__(self):
        self.events = []

    def on_train_begin(self, loop):
        self.events.append("train_begin")

    def on_epoch_begin(self, loop, epoch):
        self.events.append(f"epoch_begin:{epoch}")

    def on_phase_begin(self, loop, epoch, phase):
        self.events.append(f"phase_begin:{epoch}:{phase.name}")

    def on_batch_end(self, loop, epoch, phase, batch_index, loss):
        self.events.append(f"batch_end:{epoch}:{phase.name}:{batch_index}")

    def on_phase_end(self, loop, epoch, phase, losses):
        self.events.append(f"phase_end:{epoch}:{phase.name}")

    def on_epoch_end(self, loop, epoch, logs):
        self.events.append(f"epoch_end:{epoch}")

    def on_train_end(self, loop):
        self.events.append("train_end")


class TestCallbackOrder:
    def test_full_invocation_order(self):
        recorder = RecordingCallback()
        phases = [
            CallablePhase("alpha", lambda loop, epoch: 1.0),
            CallablePhase("beta", lambda loop, epoch: {"x": 2.0}),
        ]
        TrainingLoop(phases, callbacks=[recorder]).run(2)
        assert recorder.events == [
            "train_begin",
            "epoch_begin:0",
            "phase_begin:0:alpha",
            "phase_end:0:alpha",
            "phase_begin:0:beta",
            "phase_end:0:beta",
            "epoch_end:0",
            "epoch_begin:1",
            "phase_begin:1:alpha",
            "phase_end:1:alpha",
            "phase_begin:1:beta",
            "phase_end:1:beta",
            "epoch_end:1",
            "train_end",
        ]

    def test_batch_hooks_fire_between_phase_bounds(self):
        recorder = RecordingCallback()

        def fake_sgns(loop, epoch):
            phase = loop.phases[0]
            for b in range(3):
                loop.notify_batch(epoch, phase, b, 0.5)
            return 0.5

        TrainingLoop(
            [CallablePhase("sgns", fake_sgns)], callbacks=[recorder]
        ).run(1)
        assert recorder.events == [
            "train_begin",
            "epoch_begin:0",
            "phase_begin:0:sgns",
            "batch_end:0:sgns:0",
            "batch_end:0:sgns:1",
            "batch_end:0:sgns:2",
            "phase_end:0:sgns",
            "epoch_end:0",
            "train_end",
        ]

    def test_internal_history_and_timer_fire_before_user_callbacks(self):
        seen = {}

        class Peek(Callback):
            def on_phase_end(self, loop, epoch, phase, losses):
                # the internal LossHistory already recorded this phase
                seen["recorded"] = len(loop.callbacks[0].history[phase.name])

        TrainingLoop(
            [CallablePhase("p", lambda loop, epoch: 1.0)], callbacks=[Peek()]
        ).run(1)
        assert seen["recorded"] == 1


class TestLoopBasics:
    def test_needs_phases(self):
        with pytest.raises(ValueError):
            TrainingLoop([])

    def test_phase_names_must_be_unique(self):
        with pytest.raises(ValueError, match="unique"):
            TrainingLoop(
                [
                    CallablePhase("p", lambda l, e: 0.0),
                    CallablePhase("p", lambda l, e: 0.0),
                ]
            )

    def test_result_history_and_epochs(self):
        losses = iter([3.0, 2.0, 1.0])
        loop = TrainingLoop(
            [CallablePhase("p", lambda l, e: next(losses))]
        )
        result = loop.run(3)
        assert result.epochs_run == 3
        assert not result.stopped_early
        assert result.series("p") == [3.0, 2.0, 1.0]
        assert result.history["p"] == [
            {"loss": 3.0},
            {"loss": 2.0},
            {"loss": 1.0},
        ]

    def test_timings_cover_every_phase(self):
        result = TrainingLoop(
            [
                CallablePhase("a", lambda l, e: 0.0),
                CallablePhase("b", lambda l, e: None),
            ]
        ).run(2)
        assert set(result.timings) == {"a", "b"}
        assert all(v >= 0 for v in result.timings.values())
        assert len(result.epoch_timings["a"]) == 2

    def test_none_and_dict_returns(self):
        result = TrainingLoop(
            [
                CallablePhase("empty", lambda l, e: None),
                CallablePhase("named", lambda l, e: {"t": 1.0, "r": 2.0}),
            ]
        ).run(1)
        assert result.history["empty"] == [{}]
        assert result.history["named"] == [{"t": 1.0, "r": 2.0}]


class TestEarlyStopping:
    def test_stops_after_patience_without_improvement(self):
        losses = iter([5.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0])
        stopper = EarlyStopping(phase="p", patience=2)
        result = TrainingLoop(
            [CallablePhase("p", lambda l, e: next(losses))],
            callbacks=[stopper],
        ).run(8)
        # epochs 0,1 improve; 2 and 3 are stale -> stop after epoch 3
        assert result.stopped_early
        assert result.epochs_run == 4
        assert stopper.stopped_epoch == 3

    def test_runs_to_completion_when_improving(self):
        losses = iter([5.0, 4.0, 3.0, 2.0, 1.0])
        result = TrainingLoop(
            [CallablePhase("p", lambda l, e: next(losses))],
            callbacks=[EarlyStopping(phase="p", patience=2)],
        ).run(5)
        assert not result.stopped_early
        assert result.epochs_run == 5

    def test_min_delta_counts_tiny_improvements_as_stale(self):
        losses = iter([5.0, 4.999, 4.998, 4.997])
        result = TrainingLoop(
            [CallablePhase("p", lambda l, e: next(losses))],
            callbacks=[EarlyStopping(phase="p", patience=2, min_delta=0.1)],
        ).run(4)
        assert result.stopped_early
        assert result.epochs_run == 3

    def test_missing_phase_losses_are_ignored(self):
        result = TrainingLoop(
            [CallablePhase("p", lambda l, e: None)],
            callbacks=[EarlyStopping(phase="p", patience=1)],
        ).run(4)
        assert not result.stopped_early
        assert result.epochs_run == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(phase="p", patience=0)
        with pytest.raises(ValueError):
            EarlyStopping(phase="p", min_delta=-1.0)


class TestLRDecay:
    def test_linear_schedule_reaches_end_lr(self):
        seen = []

        class FakeSkipGram(CallablePhase):
            def __init__(self):
                super().__init__("sgns", lambda l, e: seen.append(self.lr))
                self.lr = 0.0

        phase = FakeSkipGram()
        TrainingLoop(
            [phase],
            callbacks=[
                LinearLRDecay(["sgns"], start_lr=0.1, end_lr=0.01, num_epochs=4)
            ],
        ).run(4)
        assert seen[0] == pytest.approx(0.1)
        assert seen[-1] == pytest.approx(0.01)
        assert seen == sorted(seen, reverse=True)

    def test_only_named_phases_touched(self):
        class LrPhase(CallablePhase):
            def __init__(self, name):
                super().__init__(name, lambda l, e: 0.0)
                self.lr = 1.0

        scheduled, untouched = LrPhase("a"), LrPhase("b")
        TrainingLoop(
            [scheduled, untouched],
            callbacks=[
                LinearLRDecay(["a"], start_lr=0.5, end_lr=0.5, num_epochs=2)
            ],
        ).run(2)
        assert scheduled.lr == pytest.approx(0.5)
        assert untouched.lr == 1.0


class TestLossHistoryCallback:
    def test_series_skips_epochs_without_the_loss(self):
        history = LossHistory()
        values = iter([{"loss": 1.0}, {}, {"loss": 0.5}])
        TrainingLoop(
            [CallablePhase("p", lambda l, e: next(values))],
            callbacks=[history],
        ).run(3)
        assert history.series("p") == [1.0, 0.5]
        assert len(history.history["p"]) == 3


class TestProgressReporter:
    def test_prints_one_line_per_epoch(self):
        lines = []
        TrainingLoop(
            [CallablePhase("p", lambda l, e: 1.5)],
            callbacks=[ProgressReporter(print_fn=lines.append)],
        ).run(2)
        assert len(lines) == 2
        assert "[epoch 1/2]" in lines[0]
        assert "loss=1.5000" in lines[0]


class TestSkipGramPhaseIntegration:
    def test_phase_trains_through_pipeline(self, rng):
        from repro.engine import StreamingCorpusPipeline
        from repro.skipgram import SkipGramTrainer
        from repro.walks.corpus import WalkCorpus

        num_nodes = 6
        walks = [[i % num_nodes for i in range(j, j + 4)] for j in range(12)]

        pipeline = StreamingCorpusPipeline(
            sample_blocks=lambda: [WalkCorpus.from_paths(walks, 4)],
            num_nodes=num_nodes,
            window=1,
            num_negatives=2,
            batch_size=8,
            rng=rng,
        )
        matrix = rng.normal(0, 0.1, size=(num_nodes, 4))
        before = matrix.copy()
        trainer = SkipGramTrainer(matrix, rng=rng)
        phase = SkipGramPhase("sgns", pipeline, trainer, lr=0.05)
        result = TrainingLoop([phase]).run(3)
        assert len(result.series("sgns")) == 3
        assert not np.allclose(matrix, before)

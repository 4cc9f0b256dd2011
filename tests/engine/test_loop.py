"""Tests for the engine's TrainingLoop and callback system."""

import numpy as np
import pytest

from repro.engine import (
    Callback,
    CallablePhase,
    MetricsRegistry,
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

    def test_internal_history_and_timer_fire_before_user_callbacks(self):
        seen = {}

        class Peek(Callback):
            def on_phase_end(self, loop, epoch, phase, losses):
                # the loop already recorded this phase's losses and time
                seen["history"] = list(loop.history[phase.name])
                seen["timed"] = len(loop.epoch_timings[phase.name])

        TrainingLoop(
            [CallablePhase("p", lambda loop, epoch: 1.0)], callbacks=[Peek()]
        ).run(1)
        assert seen == {"history": [{"loss": 1.0}], "timed": 1}


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

    def test_series_skips_epochs_without_the_loss(self):
        values = iter([{"loss": 1.0}, {}, {"loss": 0.5}])
        loop = TrainingLoop([CallablePhase("p", lambda l, e: next(values))])
        result = loop.run(3)
        assert result.series("p") == [1.0, 0.5]
        assert len(result.history["p"]) == 3
        assert loop.history == result.history

    def test_one_clock_feeds_result_and_metrics(self):
        # phase/<name>/seconds needs no tracer, and it is the very reading
        # the result's timings add up
        registry = MetricsRegistry()
        result = TrainingLoop(
            [CallablePhase("a", lambda l, e: 0.0)], metrics=registry
        ).run(3)
        seconds = registry.series_values("phase/a/seconds")
        assert seconds == result.epoch_timings["a"]
        assert result.timings["a"] == pytest.approx(sum(seconds))
        assert registry.gauges["loop/epochs_completed"] == 3.0

    def test_state_dict_keys_and_round_trip(self):
        loop = TrainingLoop([CallablePhase("p", lambda l, e: 1.0)])
        loop.run(2)
        state = loop.state_dict()
        assert set(state) == {
            "epochs_completed",
            "history",
            "timings",
            "epoch_timings",
        }
        resumed = TrainingLoop([CallablePhase("p", lambda l, e: 2.0)])
        resumed.load_state_dict(state)
        result = resumed.run(3, start_epoch=state["epochs_completed"])
        assert result.epochs_run == 3
        assert result.series("p") == [1.0, 1.0, 2.0]
        assert len(result.epoch_timings["p"]) == 3
        assert result.timings["p"] >= state["timings"]["p"]


class TestRollback:
    def test_discarded_epoch_leaves_no_records(self):
        attempts = []

        class RetryOnce(Callback):
            def on_epoch_end(self, loop, epoch, logs):
                if epoch == 1 and attempts.count(1) == 1:
                    loop.request_retry()

            def on_epoch_rollback(self, loop, epoch):
                # the loop dropped the discarded epoch before this fires
                attempts.append(("rolled", len(loop.history["p"])))

        def phase(loop, epoch):
            attempts.append(epoch)
            return float(len(attempts))

        result = TrainingLoop(
            [CallablePhase("p", phase)], callbacks=[RetryOnce()]
        ).run(3)
        assert attempts == [0, 1, ("rolled", 1), 1, 2]
        assert result.epochs_run == 3
        assert result.series("p") == [1.0, 4.0, 5.0]
        assert len(result.epoch_timings["p"]) == 3
        # the retried epoch's time was spent, so the total keeps it
        assert result.timings["p"] >= sum(result.epoch_timings["p"])

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

    def test_epoch_seconds_come_from_the_loop(self):
        lines = []
        loop = TrainingLoop(
            [
                CallablePhase("a", lambda l, e: 0.0),
                CallablePhase("b", lambda l, e: 0.0),
            ],
            callbacks=[ProgressReporter(print_fn=lines.append)],
        )
        loop.run(2)
        for epoch, line in enumerate(lines):
            elapsed = sum(
                loop.epoch_timings[name][epoch] for name in ("a", "b")
            )
            assert line.endswith(f" | {elapsed:.2f}s")


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

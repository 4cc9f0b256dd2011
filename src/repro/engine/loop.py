"""The shared training loop: epochs of named phases, observed by callbacks.

Algorithm 1 of the paper alternates a single-view skip-gram step and a
cross-view dual-learning step inside one outer loop; every baseline is
the degenerate case of a single phase.  :class:`TrainingLoop` models
exactly that shape — an ordered list of :class:`Phase` objects executed
once per epoch — and keeps the bookkeeping every trainer used to
hand-roll itself: the loss history and one wall-clock reading per phase,
which feed :class:`LoopResult`, the ``phase/<name>/*`` metrics and every
:class:`~repro.engine.callbacks.Callback` (progress reporting, health
guards, checkpointing).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.engine.callbacks import Callback, EpochLogs
from repro.engine.observability import (
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.pipeline import BatchSource


class Phase:
    """One named unit of per-epoch work.

    Subclasses implement :meth:`run` returning the phase's named losses
    for the epoch (an empty dict when there was nothing to train on).
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("phases need a non-empty name")
        self.name = name

    def run(self, loop: "TrainingLoop", epoch: int) -> dict[str, float]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class CallablePhase(Phase):
    """Adapts a plain function ``(loop, epoch) -> losses`` into a Phase.

    The function may return a dict of named losses, a bare float (stored
    under ``"loss"``), or ``None`` (no losses this epoch).
    """

    def __init__(
        self,
        name: str,
        fn: Callable[["TrainingLoop", int], dict[str, float] | float | None],
    ) -> None:
        super().__init__(name)
        self.fn = fn

    def run(self, loop: "TrainingLoop", epoch: int) -> dict[str, float]:
        result = self.fn(loop, epoch)
        if result is None:
            return {}
        if isinstance(result, dict):
            return result
        return {"loss": float(result)}


class SkipGramPhase(Phase):
    """Streams a :class:`~repro.engine.pipeline.BatchSource` through a
    :class:`~repro.skipgram.trainer.SkipGramTrainer`.

    The learning rate lives on the phase (``self.lr``) so a rollback
    health guard can halve it between epochs.
    """

    def __init__(
        self,
        name: str,
        pipeline: "BatchSource",
        trainer,
        lr: float,
    ) -> None:
        super().__init__(name)
        self.pipeline = pipeline
        self.trainer = trainer
        self.lr = lr

    def run(self, loop: "TrainingLoop", epoch: int) -> dict[str, float]:
        total, batches = 0.0, 0
        for batch in self.pipeline.epoch():
            loss = self.trainer.train_batch(
                batch.centers, batch.contexts, batch.negatives, lr=self.lr
            )
            total += loss
            batches += 1
        if batches == 0:
            return {}
        return {"loss": total / batches}


@dataclass
class LoopResult:
    """What a finished :meth:`TrainingLoop.run` hands back.

    Attributes:
        history: phase name -> one named-loss dict per epoch (empty
            dicts mark epochs where the phase reported nothing, e.g. a
            cross-view step that found no trainable paths).
        timings: phase name -> cumulative wall-clock seconds (rolled-back
            epochs included: that time was spent).
        epoch_timings: phase name -> per-epoch wall-clock seconds.
        epochs_run: total epochs the history covers — executed epochs
            plus, on a resumed run, the restored ones.
    """

    history: dict[str, list[dict[str, float]]] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    epoch_timings: dict[str, list[float]] = field(default_factory=dict)
    epochs_run: int = 0

    def series(self, phase_name: str, loss_name: str = "loss") -> list[float]:
        """One loss as a flat series, skipping epochs that lack it."""
        return [
            entry[loss_name]
            for entry in self.history.get(phase_name, [])
            if loss_name in entry
        ]


class TrainingLoop:
    """Runs phases for a number of epochs, firing callbacks throughout.

    The loop records each phase's losses in :attr:`history` and times
    each phase once, into :attr:`timings` (cumulative) and
    :attr:`epoch_timings` (per kept epoch), before the callbacks'
    ``on_phase_end`` fires.

    Args:
        phases: the ordered per-epoch work units.
        callbacks: hooks fired in list order.
        metrics: a :class:`~repro.engine.observability.MetricsRegistry`
            the loop publishes into (``phase/<name>/<loss>`` series,
            ``phase/<name>/seconds`` timings, rollback counters and
            events, the ``loop/epochs_completed`` gauge).  Defaults to
            the no-op :data:`NULL_REGISTRY`.
        tracer: a :class:`~repro.engine.observability.Tracer` receiving
            run → epoch → phase spans.  Defaults to :data:`NULL_TRACER`.
    """

    def __init__(
        self,
        phases: list[Phase],
        callbacks: list[Callback] | tuple[Callback, ...] = (),
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if not phases:
            raise ValueError("a training loop needs at least one phase")
        names = [p.name for p in phases]
        if len(set(names)) != len(names):
            raise ValueError(f"phase names must be unique, got {names}")
        self.phases = list(phases)
        self.callbacks: list[Callback] = list(callbacks)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.history: dict[str, list[dict[str, float]]] = {}
        self.timings: dict[str, float] = {}
        self.epoch_timings: dict[str, list[float]] = {}
        self.num_epochs = 0
        self.retry_requested = False
        self.epochs_completed = 0

    # ------------------------------------------------------------------
    def request_retry(self) -> None:
        """Ask the loop to re-run the current epoch instead of advancing.

        Meant for callbacks that restored a snapshot after a failed epoch
        (see :class:`~repro.engine.callbacks.NumericalHealthGuard`): the
        loop drops the discarded epoch's history and per-epoch timing
        entries, fires ``on_epoch_rollback`` on every callback, and then
        executes the same epoch index again.
        """
        self.retry_requested = True

    # ------------------------------------------------------------------
    # checkpoint/resume support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The loop's own training state: epoch counter, loss history,
        and timing records — everything :meth:`run` accumulates that a
        resumed run must carry forward for its :class:`LoopResult` to
        match an uninterrupted run."""
        return {
            "epochs_completed": self.epochs_completed,
            **self._records(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`; a following
        ``run(num_epochs, start_epoch=state["epochs_completed"])``
        continues the run."""
        missing = {"epochs_completed", "history", "timings", "epoch_timings"}
        missing -= set(state)
        if missing:
            raise ValueError(
                f"loop state is missing keys: {sorted(missing)}"
            )
        self.epochs_completed = int(state["epochs_completed"])
        self.history = {
            name: [dict(entry) for entry in entries]
            for name, entries in state["history"].items()
        }
        self.timings = dict(state["timings"])
        self.epoch_timings = {
            name: list(values)
            for name, values in state["epoch_timings"].items()
        }

    def _records(self) -> dict:
        """Copies of the history and timing records."""
        return {
            "history": {
                name: [dict(entry) for entry in entries]
                for name, entries in self.history.items()
            },
            "timings": dict(self.timings),
            "epoch_timings": {
                name: list(values)
                for name, values in self.epoch_timings.items()
            },
        }

    # ------------------------------------------------------------------
    def _run_phase(self, phase: Phase, epoch: int) -> dict[str, float]:
        """Run, time and record one phase of one epoch."""
        for callback in self.callbacks:
            callback.on_phase_begin(self, epoch, phase)
        with self.tracer.span(phase.name, kind="phase", epoch=epoch):
            start = time.perf_counter()
            losses = phase.run(self, epoch)
            seconds = time.perf_counter() - start
        self.history.setdefault(phase.name, []).append(dict(losses))
        self.timings[phase.name] = self.timings.get(phase.name, 0.0) + seconds
        self.epoch_timings.setdefault(phase.name, []).append(seconds)
        for callback in self.callbacks:
            callback.on_phase_end(self, epoch, phase, losses)
        if self.metrics.enabled:
            for loss_name, value in losses.items():
                self.metrics.observe(f"phase/{phase.name}/{loss_name}", value)
            self.metrics.observe(f"phase/{phase.name}/seconds", seconds)
        return losses

    def _roll_back(self, epoch: int) -> None:
        """Discard the epoch a callback asked to retry."""
        self.retry_requested = False
        # cumulative timings keep the retried epoch: its time was spent
        for records in (*self.history.values(), *self.epoch_timings.values()):
            if records:
                records.pop()
        for callback in self.callbacks:
            callback.on_epoch_rollback(self, epoch)
        self.metrics.counter("loop/rollbacks")
        self.metrics.event("epoch_rollback", epoch=epoch)

    def run(self, num_epochs: int, start_epoch: int = 0) -> LoopResult:
        """Execute epochs ``start_epoch..num_epochs-1`` and return the
        result (``start_epoch > 0`` is the resume path — the loop assumes
        the caller restored the matching state first)."""
        if num_epochs < 0:
            raise ValueError(f"num_epochs must be >= 0, got {num_epochs}")
        if not 0 <= start_epoch <= num_epochs:
            raise ValueError(
                f"start_epoch must be in [0, {num_epochs}], got {start_epoch}"
            )
        self.num_epochs = num_epochs
        self.retry_requested = False
        self.epochs_completed = start_epoch
        for callback in self.callbacks:
            callback.on_train_begin(self)
        epoch = start_epoch
        with self.tracer.span(
            "run", kind="run", start_epoch=start_epoch, num_epochs=num_epochs
        ):
            while epoch < num_epochs:
                with self.tracer.span(
                    "epoch", kind="epoch", epoch=epoch
                ) as epoch_span:
                    for callback in self.callbacks:
                        callback.on_epoch_begin(self, epoch)
                    logs: EpochLogs = {
                        phase.name: self._run_phase(phase, epoch)
                        for phase in self.phases
                    }
                    for callback in self.callbacks:
                        callback.on_epoch_end(self, epoch, logs)
                    if self.retry_requested and epoch_span is not None:
                        epoch_span.attributes["rolled_back"] = True
                if self.retry_requested:
                    self._roll_back(epoch)
                    continue
                epoch += 1
                self.epochs_completed = epoch
        for callback in self.callbacks:
            callback.on_train_end(self)
        self.metrics.gauge("loop/epochs_completed", self.epochs_completed)
        return LoopResult(**self._records(), epochs_run=self.epochs_completed)

"""Hooks observing and steering a :class:`repro.engine.loop.TrainingLoop`.

A callback receives every lifecycle event of a run:

    on_train_begin
      on_epoch_begin
        on_phase_begin . on_phase_end     per phase
      on_epoch_end
      (on_epoch_rollback)                 when a callback asked to retry
    on_train_end

All hooks are no-ops on the base class, so subclasses override only what
they need.  By ``on_phase_end`` the loop has already recorded the phase's
losses and its wall-clock seconds (``loop.history``,
``loop.epoch_timings``).  Callbacks may call ``loop.request_retry()`` to
re-run the epoch, or mutate phase attributes such as ``lr``.
"""

from __future__ import annotations

import math
import statistics
import warnings
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.engine.faults import fire_os_error
from repro.engine.observability import NULL_REGISTRY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.engine.checkpoint import CheckpointManager, TrainingState
    from repro.engine.loop import Phase, TrainingLoop

EpochLogs = dict[str, dict[str, float]]  # phase name -> named losses


def _loop_metrics(loop: "TrainingLoop"):
    """The loop's registry (tests drive callbacks with bare stand-ins)."""
    return getattr(loop, "metrics", NULL_REGISTRY)


class Callback:
    """Base class: every hook is a no-op."""

    def on_train_begin(self, loop: "TrainingLoop") -> None: ...

    def on_epoch_begin(self, loop: "TrainingLoop", epoch: int) -> None: ...

    def on_phase_begin(
        self, loop: "TrainingLoop", epoch: int, phase: "Phase"
    ) -> None: ...

    def on_phase_end(
        self,
        loop: "TrainingLoop",
        epoch: int,
        phase: "Phase",
        losses: dict[str, float],
    ) -> None: ...

    def on_epoch_end(
        self, loop: "TrainingLoop", epoch: int, logs: EpochLogs
    ) -> None: ...

    def on_epoch_rollback(self, loop: "TrainingLoop", epoch: int) -> None:
        """The epoch was discarded (``loop.request_retry()``): callbacks
        that recorded anything during it should drop those records."""

    def on_train_end(self, loop: "TrainingLoop") -> None: ...


class ProgressReporter(Callback):
    """Prints one line per epoch with every phase's losses and duration.

    Example output::

        [epoch 3/10] single_view loss=1.2345 | cross_view translation=0.41
        reconstruction=0.22 | 0.83s
    """

    def __init__(self, print_fn: Callable[[str], None] = print) -> None:
        self.print_fn = print_fn

    def on_epoch_end(self, loop, epoch, logs) -> None:
        parts = []
        elapsed = 0.0
        for phase in loop.phases:
            losses = logs.get(phase.name, {})
            rendered = " ".join(
                f"{name}={value:.4f}" for name, value in losses.items()
            )
            parts.append(f"{phase.name} {rendered}".rstrip())
            elapsed += loop.epoch_timings[phase.name][-1]
        self.print_fn(
            f"[epoch {epoch + 1}/{loop.num_epochs}] "
            + " | ".join(parts)
            + f" | {elapsed:.2f}s"
        )


class Checkpointer(Callback):
    """Snapshots training state to a :class:`CheckpointManager`.

    Saves every ``every`` epochs and — so a finished run always leaves a
    current checkpoint — once more at train end if the last epoch was
    not already on the cadence.  Each checkpoint bundles the
    ``state_provider``'s :meth:`state_dict` with the loop's own state
    (epoch counter, loss history, timings), which is exactly what
    :meth:`TrainingLoop.load_state_dict` needs to resume.

    When a :class:`NumericalHealthGuard` runs in the same callback list,
    attach it *before* this checkpointer: a guard that requested a
    rollback marks the epoch discarded (``loop.retry_requested``), and
    the checkpointer refuses to persist the poisoned state.

    A failed write (disk full, permission loss, or the injected
    ``checkpoint.write_error`` fault) never kills the run: checkpoints
    are an optimization, not a correctness requirement, so the error is
    logged as a ``checkpoint/write_errors`` incident and training
    continues — the next cadence epoch simply tries again.
    """

    STATE_FORMAT = 1

    def __init__(
        self,
        manager: "CheckpointManager",
        state_provider: "TrainingState",
        every: int = 1,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.manager = manager
        self.state_provider = state_provider
        self.every = every
        self._last_saved_step: int | None = None
        self.write_errors = 0

    def _save(self, loop: "TrainingLoop", step: int) -> None:
        loop_state = loop.state_dict()
        # on_epoch_end fires before the loop advances its counter, so
        # stamp the step this checkpoint actually represents
        loop_state["epochs_completed"] = step
        metrics = _loop_metrics(loop)
        try:
            fire_os_error("checkpoint.write_error")
            path = self.manager.save(
                {
                    "format": self.STATE_FORMAT,
                    "step": step,
                    "model": self.state_provider.state_dict(),
                    "loop": loop_state,
                },
                step=step,
            )
        except OSError as error:
            self.write_errors += 1
            warnings.warn(
                f"checkpoint save at step {step} failed ({error}); "
                "training continues without this snapshot",
                RuntimeWarning,
                stacklevel=2,
            )
            metrics.incident(
                "checkpoint/write_errors", step=step, error=str(error)
            )
            return
        self._last_saved_step = step
        if metrics.enabled:
            size = path.stat().st_size
            metrics.counter("checkpoint/saves")
            metrics.gauge("checkpoint/last_snapshot_bytes", size)
            metrics.event(
                "checkpoint_saved", step=step, bytes=size, path=str(path)
            )

    def on_train_begin(self, loop) -> None:
        self._last_saved_step = None

    def on_epoch_end(self, loop, epoch, logs) -> None:
        if loop.retry_requested:
            return  # a health guard discarded this epoch; don't persist it
        if (epoch + 1) % self.every == 0:
            self._save(loop, epoch + 1)

    def on_train_end(self, loop) -> None:
        step = loop.epochs_completed
        if step > 0 and self._last_saved_step != step:
            self._save(loop, step)


class NumericalHealthError(RuntimeError):
    """Training produced NaN/Inf values or an exploding loss."""


class NumericalHealthGuard(Callback):
    """Watches per-phase losses (and optionally parameters) for NaN/Inf
    and loss explosions, applying a configurable policy.

    A loss is *unhealthy* when it is non-finite, or when it exceeds
    ``explosion_factor`` times the rolling median of its last ``window``
    healthy values (checked only once at least three healthy values
    exist, so warm-up noise cannot trip it).  With ``check_parameters``
    the guard additionally scans the ``state_provider``'s state dict for
    non-finite float arrays after every clean-looking epoch, catching
    parameters that went NaN without the loss showing it yet.

    Policies:

    - ``"raise"`` (default): raise :class:`NumericalHealthError`.
    - ``"rollback"``: restore the snapshot taken at the epoch's start
      (the state of the last completed epoch — i.e. the last checkpoint
      boundary), halve the ``lr`` of each offending phase, and re-run
      the epoch via ``loop.request_retry()``.  Consecutive failing
      retries halve again (the guard re-reads the phase's lr at every
      epoch start); after ``max_retries`` consecutive failures it
      raises.  Requires a ``state_provider``.
    - ``"skip"``: record the incident and carry on unchanged.

    Every incident is appended to :attr:`incidents` as
    ``(epoch, action, problems)`` for post-mortems and tests.
    """

    POLICIES = ("raise", "rollback", "skip")

    def __init__(
        self,
        policy: str = "raise",
        state_provider: "TrainingState | None" = None,
        explosion_factor: float = 10.0,
        window: int = 8,
        max_retries: int = 3,
        check_parameters: bool = True,
        print_fn: Callable[[str], None] = print,
    ) -> None:
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown health policy {policy!r}; choose from "
                + ", ".join(self.POLICIES)
            )
        if policy == "rollback" and state_provider is None:
            raise ValueError(
                "the 'rollback' policy needs a state_provider with "
                "state_dict()/load_state_dict() to restore from"
            )
        if explosion_factor <= 1.0:
            raise ValueError(
                f"explosion_factor must be > 1, got {explosion_factor}"
            )
        if window < 3:
            raise ValueError(f"window must be >= 3, got {window}")
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        self.policy = policy
        self.state_provider = state_provider
        self.explosion_factor = explosion_factor
        self.window = window
        self.max_retries = max_retries
        self.check_parameters = check_parameters
        self.print_fn = print_fn
        self.incidents: list[tuple[int, str, list[str]]] = []
        self._recent: dict[tuple[str, str], deque[float]] = {}
        self._snapshot: dict | None = None
        self._phase_lrs: dict[str, float] = {}
        self._consecutive_retries = 0

    # ------------------------------------------------------------------
    def on_train_begin(self, loop) -> None:
        self._recent = {}
        self._snapshot = None
        self._phase_lrs = {}
        self._consecutive_retries = 0

    def on_epoch_begin(self, loop, epoch) -> None:
        self._phase_lrs = {
            phase.name: float(phase.lr)
            for phase in loop.phases
            if hasattr(phase, "lr")
        }
        if self.policy == "rollback":
            self._snapshot = self.state_provider.state_dict()

    # ------------------------------------------------------------------
    def _scan(self, logs: EpochLogs) -> list[tuple[str | None, str]]:
        """(offending phase, description) for every problem this epoch."""
        problems: list[tuple[str | None, str]] = []
        for phase_name, losses in logs.items():
            for loss_name, value in losses.items():
                label = f"{phase_name}/{loss_name}"
                if not math.isfinite(value):
                    problems.append(
                        (phase_name, f"loss {label} is non-finite ({value})")
                    )
                    continue
                recent = self._recent.get((phase_name, loss_name))
                if recent is not None and len(recent) >= 3:
                    median = statistics.median(recent)
                    if median > 0 and value > self.explosion_factor * median:
                        problems.append(
                            (
                                phase_name,
                                f"loss {label} exploded: {value:.6g} > "
                                f"{self.explosion_factor:g} x rolling "
                                f"median {median:.6g}",
                            )
                        )
        if (
            not problems
            and self.check_parameters
            and self.state_provider is not None
        ):
            from repro.engine.checkpoint import non_finite_entries

            for path in non_finite_entries(self.state_provider.state_dict()):
                problems.append(
                    (None, f"parameter state {path!r} contains NaN/Inf")
                )
        return problems

    def _record_healthy(self, logs: EpochLogs) -> None:
        for phase_name, losses in logs.items():
            for loss_name, value in losses.items():
                key = (phase_name, loss_name)
                if key not in self._recent:
                    self._recent[key] = deque(maxlen=self.window)
                self._recent[key].append(value)

    def _report_incident(
        self, loop, epoch: int, action: str, descriptions: list[str]
    ) -> None:
        self.incidents.append((epoch, action, descriptions))
        metrics = _loop_metrics(loop)
        metrics.counter(f"health/{action}")
        metrics.event(
            "health_incident",
            "; ".join(descriptions),
            epoch=epoch,
            action=action,
        )

    def on_epoch_end(self, loop, epoch, logs) -> None:
        problems = self._scan(logs)
        if not problems:
            self._record_healthy(logs)
            self._consecutive_retries = 0
            return
        descriptions = [text for _, text in problems]
        summary = (
            f"numerical health check failed at epoch {epoch + 1}: "
            + "; ".join(descriptions)
        )
        if self.policy == "raise":
            self._report_incident(loop, epoch, "raise", descriptions)
            raise NumericalHealthError(summary)
        if self.policy == "skip":
            self._report_incident(loop, epoch, "skip", descriptions)
            self.print_fn(f"[health] {summary} — skipping (policy=skip)")
            return
        # rollback
        if self._consecutive_retries >= self.max_retries:
            self._report_incident(loop, epoch, "raise", descriptions)
            raise NumericalHealthError(
                f"{summary} — retry budget ({self.max_retries}) exhausted"
            )
        self._consecutive_retries += 1
        self._report_incident(loop, epoch, "rollback", descriptions)
        self.state_provider.load_state_dict(self._snapshot)
        halved = []
        for name in {p for p, _ in problems if p is not None}:
            phase = next((p for p in loop.phases if p.name == name), None)
            if phase is not None and name in self._phase_lrs:
                phase.lr = self._phase_lrs[name] * 0.5
                halved.append(f"{name} lr -> {phase.lr:g}")
        loop.request_retry()
        detail = f" ({', '.join(halved)})" if halved else ""
        self.print_fn(
            f"[health] {summary} — rolled back to last snapshot, retrying "
            f"epoch {epoch + 1} "
            f"[{self._consecutive_retries}/{self.max_retries}]{detail}"
        )


class RelationBalancer(Callback):
    """BHIN2vec-inspired relation-type-balanced training (arXiv:1912.08925).

    BHIN2vec balances heterogeneous relation types by giving the *worse-
    trained* relation a larger share of the next training round.  Here
    the signal is the per-view skip-gram loss the observability registry
    already records (``single_view/<edge_type>/loss``): after every
    epoch, each trainer's ``walk_scale`` — the multiplier on its next
    corpus's per-node walk counts — is set to
    ``clip((loss / mean_loss) ** strength, min_scale, max_scale)``.
    Views lagging behind the mean loss sample more walks (a bigger share
    of the alternating round); views ahead sample fewer.

    The trainers only need two attributes: ``view.edge_type`` (the
    metric key) and a mutable ``walk_scale``
    (:class:`repro.core.single_view.SingleViewTrainer` has both, and
    checkpoints ``walk_scale`` so resumed runs keep their shares).
    Balancing is a no-op until at least two views have recorded a loss.
    """

    def __init__(
        self,
        trainers,
        strength: float = 1.0,
        min_scale: float = 0.25,
        max_scale: float = 4.0,
        prefix: str = "single_view",
    ) -> None:
        if strength < 0:
            raise ValueError(f"strength must be >= 0, got {strength}")
        if not 0 < min_scale <= 1 <= max_scale:
            raise ValueError(
                "need 0 < min_scale <= 1 <= max_scale, got "
                f"{min_scale}, {max_scale}"
            )
        self.trainers = list(trainers)
        self.strength = strength
        self.min_scale = min_scale
        self.max_scale = max_scale
        self.prefix = prefix

    def _latest_losses(self, metrics) -> dict[str, float]:
        losses: dict[str, float] = {}
        for trainer in self.trainers:
            key = f"{self.prefix}/{trainer.view.edge_type}/loss"
            series = metrics.series_values(key)
            if series:
                losses[trainer.view.edge_type] = float(series[-1])
        return losses

    def on_epoch_end(self, loop, epoch, logs) -> None:
        metrics = _loop_metrics(loop)
        losses = self._latest_losses(metrics)
        if len(losses) < 2:
            return
        mean = sum(losses.values()) / len(losses)
        if mean <= 0:
            return
        for trainer in self.trainers:
            loss = losses.get(trainer.view.edge_type)
            if loss is None or loss <= 0:
                continue
            scale = (loss / mean) ** self.strength
            trainer.walk_scale = min(
                max(scale, self.min_scale), self.max_scale
            )
            metrics.gauge(
                f"balance/{trainer.view.edge_type}/walk_scale",
                trainer.walk_scale,
            )

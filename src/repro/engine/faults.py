"""Deterministic fault injection for chaos-testing the training runtime.

A long run must survive bit-rotted spill files and full disks without
losing the epoch.  The hardening that makes that true lives in
:mod:`repro.walks.spill` (per-block CRC32),
:class:`repro.core.single_view.SingleViewTrainer` (graceful spill
degradation), and :class:`repro.engine.Checkpointer` (a failed save
warns and training continues) — this module provides the *controlled*
failures that prove it works: a seeded :class:`FaultInjector` with named
fault points that tests and the CLI's ``--chaos`` mode can arm.

Fault points
------------

==========================  ==================================================
``spill.write_enospc``      the next spill-block write raises
                            ``OSError(ENOSPC)`` (disk full while recording)
``spill.bitflip``           one byte of the next finalized spill file is
                            flipped (bit rot; detected by block CRCs)
``checkpoint.write_error``  the next checkpoint save raises
                            ``OSError(ENOSPC)``
==========================  ==================================================

Determinism contract
--------------------

An injector never consults wall clock, thread identity, or probability:
a fault point fires on exact invocation counts (``skip`` invocations let
through, then ``times`` firings), and any randomness a fault needs (e.g.
which byte to flip) comes from a per-point generator derived from the
injector's seed — so an armed chaos run is exactly as reproducible as a
clean one.  The hardened code paths are themselves deterministic
(corrupt spills regenerate the recorded draw, a lost checkpoint is
rewritten at the next save),
which is what lets tests assert *bit-identical* output under faults.

Usage
-----

Tests arm a scoped injector::

    injector = FaultInjector(seed=7).arm("spill.bitflip")
    with scoped(injector):
        model.fit(...)
    assert injector.fired["spill.bitflip"] == 1

The CLI arms a process-global one from ``--chaos``::

    repro train g.tsv --out e.txt --chaos spill.bitflip,checkpoint.write_error

Production code consults the module-level accessors (:func:`get_active`,
:func:`fire_os_error`), which are a
``None`` check when nothing is armed — the whole layer is zero-cost
outside chaos runs.
"""

from __future__ import annotations

import errno
import os
import threading
import zlib
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

#: every fault point an injector may arm
FAULT_POINTS = (
    "spill.write_enospc",
    "spill.bitflip",
    "checkpoint.write_error",
)

class _Arming:
    """Invocation bookkeeping of one armed point (under the injector lock)."""

    __slots__ = ("skip", "remaining", "seen")

    def __init__(self, times: int, skip: int) -> None:
        self.skip = skip
        self.remaining = times
        self.seen = 0


class FaultInjector:
    """Seeded, countable fault arming for the named :data:`FAULT_POINTS`.

    Args:
        seed: keys every per-point RNG (:meth:`rng`); two injectors with
            the same seed and armings produce identical chaos.

    Thread safety: :meth:`should_fire` mutates counters under a lock, so
    one injector may be probed from several threads.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._armings: dict[str, _Arming] = {}
        self._lock = threading.Lock()
        #: point -> number of times it actually fired
        self.fired: dict[str, int] = {}
        self._metrics: Any = None

    # ------------------------------------------------------------------
    def arm(self, point: str, times: int = 1, skip: int = 0) -> "FaultInjector":
        """Arm ``point`` to fire ``times`` times after ``skip`` passes.

        Returns ``self`` so armings chain:
        ``FaultInjector(seed=7).arm("spill.bitflip").arm("checkpoint.write_error")``.
        """
        if point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; known: {list(FAULT_POINTS)}"
            )
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        if skip < 0:
            raise ValueError(f"skip must be >= 0, got {skip}")
        with self._lock:
            self._armings[point] = _Arming(times, skip)
        return self

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultInjector":
        """Build an injector from a ``--chaos`` spec string.

        The spec is a comma-separated list of ``point`` or ``point:times``
        entries, e.g. ``"spill.bitflip,checkpoint.write_error:2"``.
        """
        injector = cls(seed=seed)
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            point, _, count = entry.partition(":")
            try:
                times = int(count) if count else 1
            except ValueError:
                raise ValueError(
                    f"bad chaos entry {entry!r}: expected point[:times]"
                ) from None
            injector.arm(point, times=times)
        if not injector.armed_points():
            raise ValueError(f"chaos spec {spec!r} arms no fault points")
        return injector

    def armed_points(self) -> list[str]:
        """Points still armed (not yet exhausted), sorted."""
        with self._lock:
            return sorted(
                point
                for point, arming in self._armings.items()
                if arming.remaining > 0
            )

    def bind_metrics(self, metrics: Any) -> None:
        """Emit ``faults/*`` counters and events into ``metrics``
        (a :class:`repro.engine.observability.MetricsRegistry`)."""
        self._metrics = metrics
        if metrics is not None:
            metrics.event(
                "faults/armed",
                "fault injection active",
                points=self.armed_points(),
                seed=self.seed,
            )

    # ------------------------------------------------------------------
    def should_fire(self, point: str) -> bool:
        """Count one invocation of ``point``; ``True`` when it fires.

        Unarmed points always return ``False`` without bookkeeping.
        """
        if point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; known: {list(FAULT_POINTS)}"
            )
        with self._lock:
            arming = self._armings.get(point)
            if arming is None or arming.remaining <= 0:
                return False
            arming.seen += 1
            if arming.seen <= arming.skip:
                return False
            arming.remaining -= 1
            self.fired[point] = self.fired.get(point, 0) + 1
            metrics = self._metrics
        if metrics is not None:
            metrics.counter(f"faults/injected/{point}")
            metrics.event("faults/injected", "armed fault fired", point=point)
        return True

    def fire_os_error(self, point: str, err: int = errno.ENOSPC) -> None:
        """Raise ``OSError(err)`` if ``point`` fires this invocation."""
        if self.should_fire(point):
            raise OSError(err, f"{os.strerror(err)} (injected: {point})")

    def rng(self, point: str) -> np.random.Generator:
        """A deterministic per-point generator (e.g. bitflip placement).

        Derived from ``(seed, crc32(point))`` — independent of every
        training stream and of the other points'.
        """
        return np.random.default_rng(
            np.random.SeedSequence((self.seed, zlib.crc32(point.encode())))
        )


# ----------------------------------------------------------------------
# process-global activation (what the instrumented hot paths consult)
# ----------------------------------------------------------------------
_ACTIVE: FaultInjector | None = None


def activate(injector: FaultInjector | None) -> FaultInjector | None:
    """Install ``injector`` as the process-global one; returns the old."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, injector
    return previous


def get_active() -> FaultInjector | None:
    """The currently armed injector, or ``None`` (the production state)."""
    return _ACTIVE


@contextmanager
def scoped(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Activate ``injector`` for a ``with`` block, restoring the old one."""
    previous = activate(injector)
    try:
        yield injector
    finally:
        activate(previous)


def fire_os_error(point: str, err: int = errno.ENOSPC) -> None:
    """Module-level :meth:`FaultInjector.fire_os_error` on the active
    injector; a no-op when nothing is armed."""
    injector = _ACTIVE
    if injector is not None:
        injector.fire_os_error(point, err)

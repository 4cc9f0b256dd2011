"""Metrics, tracing, and structured run reports for the training engine.

Three cooperating pieces give every run a structured, serializable record
of what happened (see ``docs/observability.md`` for the full schema):

- :class:`MetricsRegistry` — named **counters** (monotonic totals),
  **gauges** (last-written values), **timers** (duration aggregates), and
  **series** (scalar streams such as per-epoch losses).  Series keep full
  lossless aggregates (count/total/min/max/last) but only a bounded tail
  of raw points, so a million-epoch run cannot exhaust memory; discrete
  **events** (checkpoint saves, health incidents) land in a bounded log.
- :class:`Tracer` — hierarchical wall-clock spans
  (run → epoch → phase → step-group) with optional ``tracemalloc`` memory
  peaks, mirroring how Algorithm 1 nests its alternating phases.
- :class:`RunReport` — bundles a registry snapshot, the span tree, and
  caller metadata into one versioned JSON document, written atomically
  with the same tmp + fsync + ``os.replace`` pattern as
  :mod:`repro.graph.io`.

The whole layer is **zero-cost when disabled**: the :data:`NULL_REGISTRY`
/ :data:`NULL_TRACER` singletons (a :class:`NullRegistry` and
:class:`NullTracer`) implement the same interface as no-ops, and every
instrumented hot path guards real work behind ``metrics.enabled``.  No
part of this module ever touches an RNG, so enabling it cannot change a
training trajectory — the determinism goldens in
``tests/core/test_determinism.py`` pin that.
"""

from __future__ import annotations

import json
import math
import threading
import time
import tracemalloc
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.graph.io import atomic_writer

REPORT_FORMAT = "repro-run-report"
REPORT_VERSION = 1


class _Series:
    """One scalar stream: lossless aggregates + a bounded tail of points."""

    __slots__ = ("count", "total", "min", "max", "last", "tail")

    def __init__(self, max_points: int) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.last = 0.0
        self.tail: deque[float] = deque(maxlen=max_points)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.last = value
        self.tail.append(value)

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "last": self.last,
            "mean": self.total / self.count,
            # index of the first retained point, so a truncated tail is
            # still positioned correctly on the epoch axis
            "tail_start": self.count - len(self.tail),
            "tail": list(self.tail),
        }


class _Timer:
    """Duration aggregates of one named timed section (no raw samples)."""

    __slots__ = ("count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = -math.inf

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
            "mean_s": self.total_s / self.count,
        }


class MetricsRegistry:
    """Counters, gauges, timers, bounded series, and a bounded event log.

    Args:
        max_series_points: raw points retained per series (aggregates are
            always exact over the full stream).
        max_events: events retained; later events are counted but dropped.

    Check :attr:`enabled` before computing anything expensive purely for
    metrics (gradient norms, uniqueness fractions) — the
    :class:`NullRegistry` reports ``enabled = False`` so instrumented
    code can skip that work entirely when nobody is observing.

    All record operations are thread-safe (one registry lock around each
    dict mutation), so concurrent callers may share one registry.
    """

    enabled = True

    def __init__(
        self, max_series_points: int = 512, max_events: int = 1024
    ) -> None:
        if max_series_points < 1:
            raise ValueError(
                f"max_series_points must be >= 1, got {max_series_points}"
            )
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_series_points = max_series_points
        self.max_events = max_events
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._series: dict[str, _Series] = {}
        self._timers: dict[str, _Timer] = {}
        self.events: list[dict[str, Any]] = []
        self.dropped_events = 0
        self._event_seq = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def counter(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the monotonic counter ``name``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value``."""
        with self._lock:
            self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Append ``value`` to the bounded series ``name``."""
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = _Series(self.max_series_points)
            series.add(float(value))

    @contextmanager
    def timer(
        self, name: str, clock: Callable[[], float] = time.perf_counter
    ) -> Iterator[None]:
        """Time a ``with`` block into the duration aggregate ``name``."""
        start = clock()
        try:
            yield
        finally:
            elapsed = clock() - start
            self.record_seconds(name, elapsed)

    def record_seconds(self, name: str, seconds: float) -> None:
        """Fold an externally measured duration into timer ``name``.

        For durations measured outside a :meth:`timer` block, such as
        the serving layer's per-query clock; they land in the same
        aggregates :meth:`timer` feeds.
        """
        with self._lock:
            stat = self._timers.get(name)
            if stat is None:
                stat = self._timers[name] = _Timer()
            stat.add(seconds)

    def event(self, kind: str, message: str = "", **data: Any) -> None:
        """Record a discrete event (bounded log; extras only counted)."""
        with self._lock:
            if len(self.events) >= self.max_events:
                self.dropped_events += 1
                self._event_seq += 1
                return
            self.events.append(
                {
                    "seq": self._event_seq,
                    "kind": kind,
                    "message": message,
                    "data": data,
                }
            )
            self._event_seq += 1

    def incident(self, name: str, message: str = "", **data: Any) -> None:
        """Record a fault-tolerance incident: counter ``name`` + event.

        One call covers both views the run report offers on a handled
        failure — the monotonic total (``counters[name]``) and the
        bounded narrative entry (``events`` with ``kind=name``), so
        degradation paths cannot bump one and forget the other.
        """
        self.counter(name, 1.0)
        self.event(name, message, **data)

    def series_values(self, name: str) -> list[float]:
        """The retained tail of series ``name`` ([] when absent)."""
        series = self._series.get(name)
        return [] if series is None else list(series.tail)

    def series_names(self) -> list[str]:
        return sorted(self._series)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Everything recorded so far, as a JSON-serializable dict.

        Taken under the registry lock so a snapshot taken while another
        thread records never sees a half-updated timer or series.
        """
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "series": {
                name: series.to_dict()
                for name, series in sorted(self._series.items())
            },
            "timers": {
                name: stat.to_dict()
                for name, stat in sorted(self._timers.items())
            },
            "events": [dict(event) for event in self.events],
            "dropped_events": self.dropped_events,
        }


class _NullContext:
    """Reusable no-op context manager (shared, stateless)."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullRegistry(MetricsRegistry):
    """The disabled registry: same interface, every method a no-op.

    ``enabled`` is ``False`` so instrumented code skips metric-only
    computation; :meth:`snapshot` reports an empty structure.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, amount: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def timer(
        self, name: str, clock: Callable[[], float] = time.perf_counter
    ) -> _NullContext:
        return _NULL_CONTEXT

    def event(self, kind: str, message: str = "", **data: Any) -> None:
        pass

    def incident(self, name: str, message: str = "", **data: Any) -> None:
        pass


NULL_REGISTRY = NullRegistry()


@dataclass
class Span:
    """One node of the trace tree.

    ``duration_s`` is filled when the span closes; ``memory_peak_bytes``
    only when the owning tracer runs with ``trace_memory=True`` (the peak
    covers the span's whole lifetime, children included).
    """

    name: str
    kind: str = "custom"
    attributes: dict[str, Any] = field(default_factory=dict)
    duration_s: float | None = None
    memory_peak_bytes: int | None = None
    children: list["Span"] = field(default_factory=list)
    _child_peak: int = field(default=0, repr=False)

    def to_dict(self) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "duration_s": self.duration_s,
        }
        if self.attributes:
            entry["attributes"] = dict(self.attributes)
        if self.memory_peak_bytes is not None:
            entry["memory_peak_bytes"] = self.memory_peak_bytes
        if self.children:
            entry["children"] = [child.to_dict() for child in self.children]
        return entry


class Tracer:
    """Hierarchical wall-clock spans with optional ``tracemalloc`` peaks.

    Args:
        trace_memory: record each span's peak traced allocation.  Starts
            ``tracemalloc`` if it is not already running (and
            :meth:`close` stops it again in that case); tracing roughly
            doubles allocation cost, so this is strictly opt-in.
        clock: injectable monotonic clock (tests).
        max_spans: cap on recorded spans; once reached, further ``span``
            calls still time nothing and record nothing (the drop is
            counted), so runaway loops cannot exhaust memory.
    """

    def __init__(
        self,
        trace_memory: bool = False,
        clock: Callable[[], float] = time.perf_counter,
        max_spans: int = 100_000,
    ) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.trace_memory = trace_memory
        self._clock = clock
        self.max_spans = max_spans
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._span_count = 0
        self.dropped_spans = 0
        self._started_tracemalloc = False
        if trace_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True

    enabled = True

    @contextmanager
    def span(
        self, name: str, kind: str = "custom", **attributes: Any
    ) -> Iterator[Span | None]:
        """Open a child span of the innermost active span (or a root)."""
        if self._span_count >= self.max_spans:
            self.dropped_spans += 1
            yield None
            return
        self._span_count += 1
        node = Span(name=name, kind=kind, attributes=dict(attributes))
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)
        measure_memory = self.trace_memory and tracemalloc.is_tracing()
        if measure_memory:
            tracemalloc.reset_peak()
        start = self._clock()
        try:
            yield node
        finally:
            node.duration_s = self._clock() - start
            self._stack.pop()
            if measure_memory:
                # the global peak since the last reset covers this span's
                # own segment; fold in peaks already closed by children,
                # then reset so the parent's remaining segments are
                # measured on their own
                segment_peak = tracemalloc.get_traced_memory()[1]
                node.memory_peak_bytes = max(segment_peak, node._child_peak)
                tracemalloc.reset_peak()
                if self._stack:
                    parent = self._stack[-1]
                    parent._child_peak = max(
                        parent._child_peak, node.memory_peak_bytes
                    )

    def close(self) -> None:
        """Stop ``tracemalloc`` if this tracer started it (idempotent)."""
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started_tracemalloc = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_memory": self.trace_memory,
            "spans": [root.to_dict() for root in self.roots],
            "dropped_spans": self.dropped_spans,
        }


class NullTracer(Tracer):
    """The disabled tracer: ``span`` yields ``None`` and records nothing."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(trace_memory=False)

    @contextmanager
    def span(
        self, name: str, kind: str = "custom", **attributes: Any
    ) -> Iterator[None]:
        yield None

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


class RunReport:
    """A versioned JSON document bundling metrics, trace, and metadata.

    The document layout (``docs/observability.md`` documents every
    field)::

        {
          "format": "repro-run-report",
          "version": 1,
          "created_unix": <wall-clock seconds>,
          "metadata": {...caller-supplied...},
          "metrics": <MetricsRegistry.snapshot()>,
          "trace": <Tracer.to_dict()> | null
        }
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        tracer: Tracer | None = None,
        metadata: dict[str, Any] | None = None,
    ) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.metadata = dict(metadata or {})

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "created_unix": time.time(),
            "metadata": dict(self.metadata),
            "metrics": self.metrics.snapshot(),
            "trace": None if self.tracer is None else self.tracer.to_dict(),
        }

    def write(self, path: str | Path) -> Path:
        """Atomically serialize the report to ``path`` (JSON, indented)."""
        path = Path(path)
        document = self.to_dict()
        with atomic_writer(path) as handle:
            json.dump(document, handle, indent=2, allow_nan=True)
            handle.write("\n")
        return path


def load_report(path: str | Path) -> dict[str, Any]:
    """Read and validate a report written by :meth:`RunReport.write`.

    Raises:
        ValueError: naming ``path`` and the problem — unparseable JSON,
            wrong ``format`` marker, or a future ``version``.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or document.get("format") != REPORT_FORMAT:
        raise ValueError(
            f"{path}: not a run report (missing format marker "
            f"{REPORT_FORMAT!r})"
        )
    version = document.get("version")
    if not isinstance(version, int) or version > REPORT_VERSION:
        raise ValueError(
            f"{path}: unsupported report version {version!r} (this build "
            f"reads <= {REPORT_VERSION})"
        )
    return document

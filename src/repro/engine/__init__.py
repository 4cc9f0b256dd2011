"""The unified training engine.

Every trainer in this repository — TransN's Algorithm 1 and all eight
baselines — runs its epochs through one :class:`TrainingLoop`, built
from these pieces:

- a batch **pipeline** (for the skip-gram trainers) (:class:`StreamingCorpusPipeline` for walk
  corpora, :class:`EdgeSamplingPipeline` for LINE-style edge draws) streaming
  (center, context, negatives) minibatches with a reusable noise table;
- **phases** (:class:`SkipGramPhase`, :class:`CallablePhase`) — named
  per-epoch units of work;
- a :class:`TrainingLoop` running the phases, keeping their loss history
  and per-phase wall-clock timing itself, under a callback system
  (:class:`ProgressReporter`, :class:`NumericalHealthGuard`,
  :class:`Checkpointer`);
- a **fault-tolerance layer** (see ``docs/fault_tolerance.md``): the
  :class:`CheckpointManager` writes atomic, checksummed, rotated
  snapshots of any :class:`TrainingState`; the :class:`Checkpointer`
  callback persists them on an epoch cadence;
  ``TrainingLoop.load_state_dict`` + ``run(start_epoch=...)`` continues
  an interrupted run bit-exactly; and the
  :class:`NumericalHealthGuard` catches NaN/Inf losses and loss
  explosions with a raise/rollback/skip policy;
- an **observability layer** (see ``docs/observability.md``): the
  :class:`MetricsRegistry` collects counters/gauges/timers/bounded
  series, the :class:`Tracer` records run → epoch → phase spans with
  optional memory peaks, and a :class:`RunReport` serializes both to a
  versioned JSON file — all zero-cost via the :data:`NULL_REGISTRY` /
  :data:`NULL_TRACER` no-op singletons when nothing asks for a report.

- a **fault-injection harness** (:mod:`repro.engine.faults`): the
  :class:`FaultInjector` deterministically arms named fault points
  (spill bit rot, full disks, checkpoint write errors) so
  chaos tests and ``--chaos`` runs can prove the hardening below
  actually preserves bit-identical results;

- the **``workers >= 1`` seed law** (see ``docs/parallelism.md``): the
  :class:`ParallelRuntime` draws each corpus block as seeded shards and
  runs cross-view pairs on per-pair streams in :func:`conflict_waves`
  order, in one process — behind the same :class:`BatchSource`
  protocol, with ``workers=0`` never constructing a runtime.

This is the seam where instrumentation, scheduling, and seeding
plug in once and apply to every method.
"""

import importlib

__all__ = [
    "BatchSource",
    "CROSS_VIEW_TAG",
    "Callback",
    "CallablePhase",
    "Checkpoint",
    "CheckpointError",
    "CheckpointManager",
    "Checkpointer",
    "EdgeSamplingPipeline",
    "FAULT_POINTS",
    "FaultInjector",
    "LoopResult",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "NumericalHealthError",
    "NumericalHealthGuard",
    "ParallelRuntime",
    "Phase",
    "ProgressReporter",
    "RunReport",
    "SINGLE_VIEW_TAG",
    "SkipGramBatch",
    "StreamingCorpusPipeline",
    "block_walks_for_budget",
    "SkipGramPhase",
    "Span",
    "Tracer",
    "TrainingLoop",
    "TrainingState",
    "activate",
    "conflict_waves",
    "dump_state",
    "get_active",
    "load_report",
    "load_state",
    "non_finite_entries",
    "pair_rng",
    "scoped",
    "single_view_seed",
]

#: each export's submodule; an export loads its submodule on first access
#: (PEP 562), so a server importing the observability layer does not load
#: the SGNS trainer, the walk engines or scipy
_EXPORTS = {
    "Callback": "callbacks",
    "Checkpointer": "callbacks",
    "NumericalHealthError": "callbacks",
    "NumericalHealthGuard": "callbacks",
    "ProgressReporter": "callbacks",
    "Checkpoint": "checkpoint",
    "CheckpointError": "checkpoint",
    "CheckpointManager": "checkpoint",
    "TrainingState": "checkpoint",
    "dump_state": "checkpoint",
    "load_state": "checkpoint",
    "non_finite_entries": "checkpoint",
    "FAULT_POINTS": "faults",
    "FaultInjector": "faults",
    "activate": "faults",
    "get_active": "faults",
    "scoped": "faults",
    "CallablePhase": "loop",
    "LoopResult": "loop",
    "Phase": "loop",
    "SkipGramPhase": "loop",
    "TrainingLoop": "loop",
    "NULL_REGISTRY": "observability",
    "NULL_TRACER": "observability",
    "MetricsRegistry": "observability",
    "NullRegistry": "observability",
    "NullTracer": "observability",
    "RunReport": "observability",
    "Span": "observability",
    "Tracer": "observability",
    "load_report": "observability",
    "CROSS_VIEW_TAG": "parallel",
    "SINGLE_VIEW_TAG": "parallel",
    "ParallelRuntime": "parallel",
    "conflict_waves": "parallel",
    "pair_rng": "parallel",
    "single_view_seed": "parallel",
    "BatchSource": "pipeline",
    "EdgeSamplingPipeline": "pipeline",
    "SkipGramBatch": "pipeline",
    "StreamingCorpusPipeline": "pipeline",
    "block_walks_for_budget": "pipeline",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

"""Per-layer ledger for one traced benchmark rep.

Spans are recorded from the benchmark's own code: :func:`install` swaps
the public entry point of each layer for a timing wrapper, at the module
or class where the caller looks the name up, for the rest of the traced
rep's process.  Nothing here is imported by an untraced rep.

Each span has a name, a start, an end and the thread it ran on.  Spans
nest per thread (cross-view waves run pairs on two threads), so a
layer's self time is its duration minus its direct children on the same
thread.  Counts are taken at the same boundaries.  Work the wrappers do
for their own counting runs outside the wrapped call and is recorded as
bookkeeping, which is subtracted from the enclosing span's self time so
that it is charged to the trace, not to a layer.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import numpy as np

_now = time.perf_counter


class _Frame:
    __slots__ = ("name", "start", "children")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.children = 0.0


class Ledger:
    """Thread-aware span and count recorder.

    ``inclusive[name]`` sums the durations of spans with no open ancestor
    of the same name; ``self_time[name]`` sums durations minus direct
    children.  ``intervals`` keeps every span that opened with no layer
    span open on its thread, which is what :meth:`attributed_seconds`
    unions across threads.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.recording = False
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.intervals: list[tuple[float, float]] = []
        self.bookkeeping = 0.0
        #: bookkeeping done with no layer span open: outside every
        #: interval, so it is taken off the unattributed residue
        self.bookkeeping_top = 0.0
        self.threads: set[int] = set()

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> _Frame | None:
        if not self.recording:
            return None
        frame = _Frame(name, _now())
        self._stack().append(frame)
        return frame

    def close(self, frame: _Frame | None) -> None:
        if frame is None:
            return
        end = _now()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        nested = any(f.name == frame.name for f in stack)
        with self._lock:
            self.calls[frame.name] += 1
            self.self_time[frame.name] += duration - frame.children
            if not nested:
                self.inclusive[frame.name] += duration
            if not stack:
                self.intervals.append((frame.start, end))
            self.threads.add(threading.get_ident())
        if stack:
            stack[-1].children += duration

    def count(self, name: str, amount: int) -> None:
        if self.recording:
            with self._lock:
                self.counts[name] += int(amount)

    def charge_bookkeeping(self, start: float) -> None:
        """Charge ``now - start`` of wrapper bookkeeping to the trace."""
        seconds = _now() - start
        stack = self._stack()
        with self._lock:
            self.bookkeeping += seconds
            if stack:
                stack[-1].children += seconds
            else:
                self.bookkeeping_top += seconds

    def span(self, name: str):
        return _SpanContext(self, name)

    def attributed_seconds(self, start: float, end: float) -> float:
        """Length of the union of top-level spans clipped to [start, end]."""
        total = 0.0
        cursor = start
        for lo, hi in sorted(self.intervals):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                total += hi - lo
                cursor = hi
        return total


class _SpanContext:
    __slots__ = ("_ledger", "_name", "_frame")

    def __init__(self, ledger: Ledger, name: str) -> None:
        self._ledger = ledger
        self._name = name

    def __enter__(self) -> None:
        self._frame = self._ledger.open(self._name)

    def __exit__(self, *exc_info: object) -> None:
        self._ledger.close(self._frame)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _timed(ledger: Ledger, name: str, fn, after=None):
    """``fn`` inside a span; ``after(args, kwargs, result)`` counts."""

    def wrapper(*args, **kwargs):
        frame = ledger.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            ledger.close(frame)
        if after is not None and ledger.recording:
            start = _now()
            after(args, kwargs, result)
            ledger.charge_bookkeeping(start)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_iter(ledger: Ledger, name: str, iterable, on_item=None):
    """Yield from ``iterable``, timing the work inside each ``next()``."""
    iterator = iter(iterable)
    while True:
        frame = ledger.open(name)
        try:
            item = next(iterator)
        except StopIteration:
            ledger.close(frame)
            return
        except BaseException:
            ledger.close(frame)
            raise
        ledger.close(frame)
        if on_item is not None and ledger.recording:
            start = _now()
            on_item(item)
            ledger.charge_bookkeeping(start)
        yield item


def _timed_gen(ledger: Ledger, name: str, fn, on_item=None):
    def wrapper(*args, **kwargs):
        return _timed_iter(ledger, name, fn(*args, **kwargs), on_item)

    wrapper.__wrapped__ = fn
    return wrapper


def install(ledger: Ledger) -> None:
    """Wrap every layer's entry point."""
    import repro.core.cross_view as cross_view
    import repro.core.model as model
    import repro.core.single_view as single_view
    import repro.engine.pipeline as pipeline
    import repro.serving.service as service
    from repro.autograd.tensor import Tensor
    from repro.core.translator import Translator
    from repro.engine.parallel import ParallelRuntime
    from repro.nn.optim import Adam, RowAdam, RowSGD
    from repro.serving.index import IVFIndex, _as_queries
    from repro.skipgram.negative import NoiseDistribution
    from repro.skipgram.trainer import SkipGramTrainer
    from repro.walks.spill import SpillReader, SpillWriter

    def count_walks(corpus) -> None:
        ledger.count("walks.walks_n", corpus.lengths.size)
        ledger.count("walks.steps_n", int(corpus.lengths.sum()))

    def after_pairs(args, kwargs, result) -> None:
        ledger.count("skipgram.pairs_n", result[0].size)

    def after_negatives(args, kwargs, result) -> None:
        ledger.count("skipgram.negatives_n", result.size)

    def after_batch(args, kwargs, result) -> None:
        ledger.count("skipgram.batches_n", 1)

    def rows_of(args, kwargs):
        return np.asarray(args[1] if len(args) > 1 else kwargs["rows"])

    def after_row_sgd(args, kwargs, result) -> None:
        rows = rows_of(args, kwargs)
        ledger.count("nn.row_sgd_rows_n", rows.size)
        ledger.count("nn.row_sgd_unique_n", np.unique(rows).size)

    def after_row_adam(args, kwargs, result) -> None:
        ledger.count("nn.row_adam_rows_n", rows_of(args, kwargs).size)

    def after_filter(args, kwargs, result) -> None:
        ledger.count("core.cross_walked_steps_n", int(args[0].lengths.sum()))
        ledger.count("core.cross_kept_steps_n", int(result.lengths.sum()))

    def after_chunks(args, kwargs, result) -> None:
        ledger.count("core.cross_chunks_n", result.shape[0])

    def after_spill_append(args, kwargs, result) -> None:
        matrix, lengths = args[1], args[2]
        ledger.count("walks.spill_blocks_n", 1)
        ledger.count(
            "walks.spill_bytes_n",
            matrix.size * args[0].dtype.itemsize + 8 * len(lengths),
        )

    def after_search(args, kwargs, result) -> None:
        index, queries, k = args[0], args[1], args[2]
        nprobe = kwargs.get("nprobe") or (args[3] if len(args) > 3 else None)
        nprobe = min(index.nprobe if nprobe is None else nprobe, index.nlist)
        prepared = _as_queries(queries, index.dim, index.metric)
        cent_sq = (index.centroids**2).sum(axis=1)
        ranks = np.argsort(
            cent_sq[None, :] - 2.0 * (prepared @ index.centroids.T),
            kind="stable",
            axis=1,
        )
        sizes = index.cell_sizes()
        k = min(k, index.num_rows)
        scanned = 0
        for rank in ranks:
            probes = nprobe
            while sizes[rank[:probes]].sum() < k and probes < index.nlist:
                probes = min(probes * 2, index.nlist)
            scanned += int(sizes[rank[:probes]].sum())
        ledger.count("serving.rows_scored_n", scanned)
        ledger.count("serving.rows_stored_n", index.num_rows * len(ranks))

    patches = [
        (model, "separate_views", _timed(ledger, "graph.views", model.separate_views)),
        (model, "build_view_pairs", _timed(ledger, "graph.views", model.build_view_pairs)),
        (cross_view, "paired_subviews", _timed(ledger, "graph.views", cross_view.paired_subviews)),
        (model, "ParallelRuntime", _timed(ledger, "engine.pool_start", ParallelRuntime)),
        (single_view, "build_corpus", _timed(
            ledger, "walks.sample", single_view.build_corpus,
            lambda a, k, corpus: count_walks(corpus))),
        (single_view, "stream_walk_corpus", _timed_gen(
            ledger, "walks.sample", single_view.stream_walk_corpus, count_walks)),
        (ParallelRuntime, "build_corpus", _timed(
            ledger, "walks.sample", ParallelRuntime.build_corpus,
            lambda a, k, corpus: count_walks(corpus))),
        (ParallelRuntime, "stream_corpus", _timed_gen(
            ledger, "walks.sample", ParallelRuntime.stream_corpus, count_walks)),
        (SpillWriter, "__init__", _timed(ledger, "walks.spill_write", SpillWriter.__init__)),
        (SpillWriter, "append", _timed(
            ledger, "walks.spill_write", SpillWriter.append, after_spill_append)),
        (SpillWriter, "finalize", _timed(ledger, "walks.spill_write", SpillWriter.finalize)),
        (SpillReader, "__init__", _timed(ledger, "walks.spill_read", SpillReader.__init__)),
        (SpillReader, "blocks", _timed_gen(ledger, "walks.spill_read", SpillReader.blocks)),
        (pipeline, "extract_index_pairs", _timed(
            ledger, "skipgram.pairs", pipeline.extract_index_pairs, after_pairs)),
        (NoiseDistribution, "sample", _timed(
            ledger, "skipgram.negatives", NoiseDistribution.sample, after_negatives)),
        (SkipGramTrainer, "train_batch", _timed(
            ledger, "skipgram.sgns", SkipGramTrainer.train_batch, after_batch)),
        (RowSGD, "update", _timed(ledger, "nn.row_sgd", RowSGD.update, after_row_sgd)),
        # the private method is exactly walk_batch + filter_to_nodes +
        # chunk_paths for one subview; the two public functions give counts
        (cross_view.CrossViewTrainer, "_sample_chunks", _timed(
            ledger, "core.cross_sample", cross_view.CrossViewTrainer._sample_chunks)),
        (cross_view, "filter_to_nodes", _timed(
            ledger, "core.cross_sample", cross_view.filter_to_nodes, after_filter)),
        (cross_view, "chunk_paths", _timed(
            ledger, "core.cross_sample", cross_view.chunk_paths, after_chunks)),
        (Translator, "forward", _timed(ledger, "core.translator_fwd", Translator.forward)),
        (cross_view, "similarity_loss", _timed(
            ledger, "core.similarity_loss", cross_view.similarity_loss)),
        (Tensor, "backward", _timed(ledger, "autograd.backward", Tensor.backward)),
        (Adam, "step", _timed(ledger, "nn.adam", Adam.step)),
        (RowAdam, "update", _timed(ledger, "nn.row_adam", RowAdam.update, after_row_adam)),
        (service, "make_index", _timed(ledger, "serving.index_build", service.make_index)),
        (IVFIndex, "search", _timed(ledger, "serving.search", IVFIndex.search, after_search)),
    ]
    for owner, attribute, wrapper in patches:
        setattr(owner, attribute, wrapper)

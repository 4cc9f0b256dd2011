"""One benchmark rep, run by ``perfbench/run.py`` in a fresh process.

A fit rep reads the edge list, builds ``TransN`` (several times, for
the set-up samples), fits it, averages the embeddings and writes them to
a store; then it serves that store like a serve rep does: open it, build
the IVF index, answer the closed loop of top-k requests.  The timed
phases are bracketed by ``gc.collect()`` and contain no input generation,
imports or output checks.  With ``--trace 1`` the per-layer ledger
(``perfbench/ledger.py``) records spans and counts over the same phases.

The rep writes one JSON document to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from repro.core import TransN, TransNConfig  # noqa: E402
from repro.eval.node_classification import run_node_classification  # noqa: E402
from repro.graph.io import load_graph  # noqa: E402
from repro.serving import EmbeddingService, EmbeddingStore, write_store  # noqa: E402

from workloads import (  # noqa: E402
    RECALL_BAR,
    RECALL_SAMPLE,
    TOP_K,
    WORKLOADS,
)

_now = time.perf_counter
#: set-ups per fit rep; every one is a sample of ``setup_s``, the last
#: one is the model that is fitted
SETUPS = 3
#: labelled rows of a served table that macro-F1 classifies
F1_SAMPLE = 1200
#: a failed request misses every latency limit: it reads as the time
#: after which the run kills a rep
FAILED_REQUEST_MS = 150_000.0


def _percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(math.ceil(q / 100 * len(ranked)) - 1, 0)]


class _Checks:
    """Output checks of one rep, each one counted as an operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failed.append(name)


class _Rep:
    def __init__(
        self, inputs: dict, workdir: Path, ledger, evaluate: bool
    ) -> None:
        self.inputs = inputs
        self.evaluate = evaluate
        self.workload = WORKLOADS[inputs["workload"]]
        self.seed = int(inputs["seed"])
        self.workdir = workdir
        self.ledger = ledger
        self.checks = _Checks()
        self.phases: dict[str, float] = {}
        #: [start, end] of the recorded phases, which run back to back
        self.window: list[float] = []
        self.out: dict = {}
        self._exported: np.ndarray | None = None

    # -- helpers --------------------------------------------------------
    def span(self, name: str):
        if self.ledger is None:
            return contextlib.nullcontext()
        return self.ledger.span(name)

    def record(self, on: bool) -> None:
        if self.ledger is not None:
            self.ledger.recording = on

    @contextlib.contextmanager
    def phase(self, name: str):
        gc.collect()
        start = _now()
        try:
            yield
        finally:
            end = _now()
            self.phases[name] = end - start
            if self.ledger is not None and self.ledger.recording:
                self.window = [self.window[0] if self.window else start, end]

    # -- fit ------------------------------------------------------------
    def fit(self) -> Path:
        workload = self.workload
        setups = []
        model = graph = None
        for attempt in range(SETUPS):
            last = attempt == SETUPS - 1
            config = TransNConfig(
                seed=self.seed,
                spill_dir=(
                    str(self.workdir / f"spill{attempt}")
                    if workload.config.get("stream_corpus")
                    else None
                ),
                **workload.config,
            )
            model = graph = None
            gc.collect()
            self.record(last)
            with self.phase("setup"):
                with self.span("graph.load"):
                    graph = load_graph(self.inputs["graph"])
                with self.span("core.init"):
                    model = TransN(graph, config)
            setups.append(self.phases["setup"])
        self.out["setup_samples"] = setups

        with self.phase("fit"):
            model.fit()
        with self.phase("export"):
            with self.span("core.average"):
                matrix = model.embedding_matrix()
            ids = [str(node) for node in graph.nodes]
            with self.span("serving.store_write"):
                store_path = write_store(self.workdir / "fit.tnemb", ids, matrix)
        self.record(False)
        history = model.history
        cross = history.translation[-1] + history.reconstruction[-1]
        model = None
        gc.collect()  # the finalizer stops fit-stream's worker pool

        self.checks.check("embeddings finite", bool(np.isfinite(matrix).all()))
        self.checks.check("cross-view loss finite", math.isfinite(cross))
        self.out.update(
            cross_loss=cross,
            fit_s=self.phases["fit"],
            export_s=self.phases["export"],
            total_s=self.phases["setup"] + self.phases["fit"] + self.phases["export"],
        )
        self._exported = matrix
        return store_path

    # -- serve ----------------------------------------------------------
    def serve(self, store_path: Path) -> None:
        requests = np.load(self.inputs["requests"])
        self.record(True)
        with self.phase("serve_setup"):
            with self.span("serving.store_open"):
                store = EmbeddingStore(store_path)
            service = EmbeddingService(store)
            service.index  # noqa: B018 - builds the index
        ids = store.ids
        queries = [[ids[int(r)] for r in row] for row in requests]
        latencies = []
        failed = 0
        # what the process already holds (the training graph, in a fit
        # rep) is no part of a server's heap: keep it out of the
        # collections the request loop triggers
        gc.collect()
        gc.freeze()
        with self.phase("loop"):
            for query in queries:
                start = _now()
                try:
                    with self.span("serving.service"):
                        result = service.top_k(query, k=TOP_K)
                    ok = len(result) == len(query) and all(
                        len(entry) == TOP_K for entry in result
                    )
                except Exception:  # a failed request misses every limit
                    ok = False
                elapsed = _now() - start
                latencies.append(elapsed * 1e3 if ok else FAILED_REQUEST_MS)
                failed += not ok
        self.record(False)
        self.out.update(
            p50_ms=_percentile(latencies, 50),
            p99_ms=_percentile(latencies, 99),
            requests=len(queries),
            requests_failed=failed,
            qps=len(queries) / self.phases["loop"],
        )
        usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.out["peak_rss_mb"] = (usage_self + usage_children) / 1024.0

        checks = self.checks
        try:
            store.verify()
            verified = True
        except ValueError:
            verified = False
        checks.check("store verifies", verified)
        if self._exported is not None:
            checks.check(
                "store equals export",
                bool(np.array_equal(store.matrix, self._exported)),
            )
        self.out["digest"] = hashlib.sha256(
            np.ascontiguousarray(store.matrix).tobytes()
        ).hexdigest()
        if self.workload.kind == "serve":
            self.out["setup_samples"] = [self.phases["serve_setup"]]
            self.out["total_s"] = self.phases["serve_setup"] + self.phases["loop"]
        if self.evaluate:
            self.quality(store, service)
        service.close()
        store.close()

    def quality(self, store: EmbeddingStore, service: EmbeddingService) -> None:
        """Recall@10 of the index and macro-F1 of the served vectors.

        Both are functions of the store alone, which the digest check
        holds equal across the reps of a run, so one rep a run is enough.
        """
        workload = self.workload
        recall = service.measure_recall(
            k=TOP_K, sample=RECALL_SAMPLE, seed=self.seed
        )
        labels = json.loads(Path(self.inputs["labels"]).read_text())
        ids = store.ids
        if workload.kind == "serve":
            self.checks.check("recall@10 meets the bar", recall >= RECALL_BAR)
            rng = np.random.default_rng([self.seed, 2])
            rows = np.sort(rng.choice(len(ids), size=F1_SAMPLE, replace=False))
            ids = [ids[int(r)] for r in rows]
        f1 = run_node_classification(
            dict(zip(ids, store.vectors(ids))), labels, seed=self.seed
        ).macro_f1
        if workload.f1_floor is not None:
            self.checks.check("macro-F1 above floor", f1 >= workload.f1_floor)
        self.out.update(recall_at_10=recall, macro_f1=f1)

    # -- one rep --------------------------------------------------------
    def run(self) -> dict:
        if self.workload.kind == "fit":
            store_path = self.fit()
        else:
            store_path = Path(self.inputs["store"])
        self.serve(store_path)
        self.out["phases"] = dict(self.phases)
        self.out["wall_s"] = sum(self.phases.values())
        self.out["checks_attempted"] = self.checks.attempted
        self.out["checks_failed"] = self.checks.failed
        if self.ledger is not None:
            self.out["ledger"] = self.ledger_summary()
        return self.out

    def ledger_summary(self) -> dict:
        ledger = self.ledger
        start, end = self.window
        return {
            "inclusive_s": dict(ledger.inclusive),
            "self_s": dict(ledger.self_time),
            "calls": dict(ledger.calls),
            "counts": dict(ledger.counts),
            "wall_s": sum(self.phases.values()),
            "attributed_s": ledger.attributed_seconds(start, end),
            "bookkeeping_s": ledger.bookkeeping,
            "bookkeeping_top_s": ledger.bookkeeping_top,
            "threads": len(ledger.threads),
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--evaluate",
        type=int,
        choices=(0, 1),
        default=0,
        help="also measure recall@10 and macro-F1 (one rep a run)",
    )
    args = parser.parse_args(argv)

    inputs = json.loads(args.inputs.read_text())
    ledger = None
    if args.trace:
        from ledger import Ledger, install

        ledger = Ledger()
        install(ledger)
    args.workdir.mkdir(parents=True, exist_ok=True)
    result = _Rep(inputs, args.workdir, ledger, bool(args.evaluate)).run()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Service-layer tests: batched execution, result identity, metrics
wiring, lifecycle."""

import numpy as np
import pytest

import repro.serving.index as index_module
from repro.engine.observability import MetricsRegistry, Tracer
from repro.serving import (
    BruteForceIndex,
    EmbeddingService,
    IVFIndex,
    write_store,
)

from tests.serving.test_index import clustered_embeddings


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    x = clustered_embeddings(n=300, dim=8, clusters=10, seed=1)
    path = tmp_path_factory.mktemp("svc") / "e.tnemb"
    write_store(path, [f"n{i}" for i in range(len(x))], x)
    return path


class TestRowsScored:
    """``serving/rows_scored`` counts the rows each search scored."""

    @pytest.mark.parametrize("width", ["one", "default", "all"])
    def test_ivf_counter_matches_probe_walk(self, store_path, width):
        metrics = MetricsRegistry()
        nodes = [f"n{i}" for i in range(0, 300, 7)]
        with EmbeddingService(
            store_path, nlist=16, batch_size=8, metrics=metrics
        ) as svc:
            index = svc.index
            nprobe = {"one": 1, "default": None, "all": index.nlist}[width]
            svc.top_k(nodes, k=30, nprobe=nprobe)
            rows = [svc.store.row_of(n) for n in nodes]
            queries = index_module._as_queries(
                svc.store.matrix[rows], index.dim, index.metric
            )
        # recompute each query's probe walk from the centroid ranking:
        # double the probed cells until they hold the k + 1 fetched rows
        ranks = np.argsort(
            index._cent_sq - 2.0 * (queries @ index.centroids.T),
            kind="stable",
            axis=1,
        )
        sizes = index.cell_sizes()
        start = index.nprobe if nprobe is None else nprobe
        expected = first = 0
        for rank in ranks:
            probes = start
            first += int(sizes[rank[:probes]].sum())
            while sizes[rank[:probes]].sum() < 31 and probes < index.nlist:
                probes = min(probes * 2, index.nlist)
            expected += int(sizes[rank[:probes]].sum())
        if width == "one":
            assert expected > first  # some query doubled its probes
        counters = metrics.snapshot()["counters"]
        assert counters["serving/rows_scored"] == expected

    def test_brute_counter_is_every_row_per_query(self, store_path):
        metrics = MetricsRegistry()
        with EmbeddingService(
            store_path, index="brute", batch_size=4, metrics=metrics
        ) as svc:
            svc.top_k([f"n{i}" for i in range(10)], k=3)
        counters = metrics.snapshot()["counters"]
        assert counters["serving/rows_scored"] == 300 * 10


class TestQueries:
    def test_score_links_is_table_iv_inner_product(self, store_path):
        with EmbeddingService(store_path) as svc:
            x = svc.store.matrix
            scores = svc.score_links([("n0", "n1"), ("n5", "n5")])
            assert scores[0] == pytest.approx(float(np.dot(x[0], x[1])))
            assert scores[1] == pytest.approx(float(np.dot(x[5], x[5])))

    def test_score_links_unknown_node(self, store_path):
        with EmbeddingService(store_path) as svc:
            with pytest.raises(KeyError, match="ghost"):
                svc.score_links([("n0", "ghost")])

    def test_top_k_excludes_self_by_default(self, store_path):
        with EmbeddingService(
            store_path, index="ivf", nlist=8, nprobe=8
        ) as svc:
            [entry] = svc.top_k(["n3"], k=5)
            assert len(entry) == 5
            assert all(neighbor != "n3" for neighbor, _ in entry)
            [kept] = svc.top_k(["n3"], k=5, exclude_self=False)
            # a stored query's own vector is its best cosine match
            assert kept[0][0] == "n3"

    def test_batched_equals_unbatched(self, store_path):
        nodes = [f"n{i}" for i in range(0, 50, 3)]
        with EmbeddingService(store_path, index="brute") as one:
            whole = one.top_k(nodes, k=4)
        with EmbeddingService(
            store_path, index="brute", batch_size=3
        ) as many:
            chunked = many.top_k(nodes, k=4)
        # neighbor sets are identical; scores may differ by BLAS-blocking
        # ulps across batch shapes, so compare them tolerantly
        assert [[n for n, _ in e] for e in whole] == [
            [n for n, _ in e] for e in chunked
        ]
        assert np.allclose(
            [[s for _, s in e] for e in whole],
            [[s for _, s in e] for e in chunked],
            rtol=1e-12,
        )

    def test_brute_and_ivf_agree_at_full_probe(self, store_path):
        with EmbeddingService(store_path, index="brute") as brute:
            exact = brute.top_k(["n1", "n2"], k=3)
        with EmbeddingService(
            store_path, index="ivf", nlist=8, nprobe=8
        ) as ivf:
            approx = ivf.top_k(["n1", "n2"], k=3)
        assert [[n for n, _ in e] for e in exact] == [
            [n for n, _ in e] for e in approx
        ]


def reference_top_k(service, node_ids, k, nprobe=None, exclude_self=True):
    """The plain form of :meth:`EmbeddingService.top_k`: per batch, one
    index search, then an element-by-element walk of its result."""
    index = service.index
    results = []
    fetch = k + 1 if exclude_self else k
    for start in range(0, len(node_ids), service.batch_size):
        chunk = node_ids[start : start + service.batch_size]
        rows = np.array(
            [service.store.row_of(n) for n in chunk], dtype=np.int64
        )
        kwargs = {} if nprobe is None else {"nprobe": nprobe}
        if isinstance(index, BruteForceIndex):
            kwargs = {}
        idx, scores = index.search(service.store.matrix[rows], fetch, **kwargs)
        for qpos, row in enumerate(rows):
            entry = []
            for col in range(idx.shape[1]):
                neighbor = int(idx[qpos, col])
                if exclude_self and neighbor == row:
                    continue
                entry.append(
                    (service.store.ids[neighbor], float(scores[qpos, col]))
                )
                if len(entry) == k:
                    break
            results.append(entry)
    return results


@pytest.fixture(scope="module")
def dot_store_path(tmp_path_factory):
    """float32 rows where ``n7`` is short: under ``dot`` its own row
    scores below its top k+1, so self-exclusion has nothing to drop."""
    x = clustered_embeddings(
        n=300, dim=8, clusters=10, dtype=np.float32, seed=2
    )
    x[7] *= np.float32(0.01)
    path = tmp_path_factory.mktemp("svc_dot") / "e.tnemb"
    write_store(path, [f"n{i}" for i in range(len(x))], x)
    return path


class TestTopKIdentity:
    """``top_k`` returns exactly the lists of :func:`reference_top_k`:
    the same ids and bit-equal scores, as ``str`` and Python ``float``."""

    NODES = ["n7", "n3", "n299", "n0", "n7", "n150", "n42"]

    @staticmethod
    def assert_identical(got, want):
        assert repr(got) == repr(want)
        for entry in got:
            for neighbor, score in entry:
                assert type(neighbor) is str and type(score) is float

    @pytest.mark.parametrize("exclude_self", [True, False])
    @pytest.mark.parametrize("metric", ["cosine", "dot"])
    def test_ivf_lists_identical(self, dot_store_path, metric, exclude_self):
        with EmbeddingService(
            dot_store_path, metric=metric, nlist=12, nprobe=2, batch_size=3
        ) as svc:
            for nprobe in (None, 1, 12):
                got = svc.top_k(
                    self.NODES, k=6, nprobe=nprobe, exclude_self=exclude_self
                )
                want = reference_top_k(
                    svc, self.NODES, 6, nprobe, exclude_self
                )
                self.assert_identical(got, want)
                assert all(len(entry) == 6 for entry in got)

    def test_self_outside_fetch_is_trimmed_to_k(self, dot_store_path):
        with EmbeddingService(
            dot_store_path, metric="dot", index="brute"
        ) as svc:
            [fetched] = svc.index.search(svc.store.matrix[7:8], 6)[0]
            assert 7 not in fetched.tolist()  # nothing for exclusion to drop
            got = svc.top_k(["n7"], k=5)
            self.assert_identical(got, reference_top_k(svc, ["n7"], 5))
            assert len(got[0]) == 5

    def test_prebuilt_brute_index_ignores_nprobe(self, dot_store_path):
        from repro.serving import EmbeddingStore

        with EmbeddingStore(dot_store_path) as store:
            svc = EmbeddingService(
                store, index=BruteForceIndex(store.matrix), batch_size=2
            )
            got = svc.top_k(self.NODES, k=4, nprobe=3)
            self.assert_identical(
                got, reference_top_k(svc, self.NODES, 4, nprobe=3)
            )
            self.assert_identical(got, svc.top_k(self.NODES, k=4))


class TestObservability:
    def test_metrics_and_report_wiring(self, store_path, tmp_path):
        from repro.engine.observability import RunReport, load_report

        metrics = MetricsRegistry()
        tracer = Tracer()
        with EmbeddingService(
            store_path, index="ivf", nlist=8, metrics=metrics, tracer=tracer
        ) as svc:
            svc.top_k(["n0", "n1", "n2"], k=4)
            svc.score_links([("n0", "n1")])
            recall = svc.measure_recall(k=5, sample=16)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["serving/queries"] == 4.0
        assert snapshot["counters"]["serving/topk_queries"] == 3.0
        assert snapshot["counters"]["serving/link_queries"] == 1.0
        assert snapshot["series"]["serving/batch_size"]["count"] == 2
        assert snapshot["series"]["serving/latency_ms"]["count"] == 2
        assert snapshot["gauges"]["serving/latency_p50_ms"] >= 0.0
        assert snapshot["gauges"]["serving/latency_p99_ms"] >= (
            snapshot["gauges"]["serving/latency_p50_ms"]
        )
        assert snapshot["gauges"]["serving/recall_at_k"] == recall
        assert snapshot["gauges"]["serving/index_nlist"] == 8.0
        assert snapshot["timers"]["serving/index_build"]["count"] == 1
        # the serving session serializes through the standard run report
        report = tmp_path / "serve.json"
        RunReport(metrics, tracer, metadata={"command": "query"}).write(
            report
        )
        document = load_report(report)
        assert document["metrics"]["counters"]["serving/queries"] == 4.0
        assert any(
            span["name"] == "index_build"
            for span in document["trace"]["spans"]
        )

    def test_unobserved_service_records_nothing(self, store_path):
        with EmbeddingService(store_path, index="brute") as svc:
            svc.top_k(["n0"], k=2)
            assert svc.metrics.snapshot()["counters"] == {}

    def test_brute_recall_trivially_one(self, store_path):
        with EmbeddingService(store_path, index="brute") as svc:
            assert svc.measure_recall() == 1.0


class TestLifecycle:
    def test_index_is_lazy(self, store_path):
        with EmbeddingService(store_path, index="ivf", nlist=8) as svc:
            assert svc._index is None
            svc.score_links([("n0", "n1")])  # link scoring needs no index
            assert svc._index is None
            svc.top_k(["n0"], k=2)
            assert isinstance(svc._index, IVFIndex)

    def test_prebuilt_index_accepted(self, store_path):
        from repro.serving import EmbeddingStore

        with EmbeddingStore(store_path) as store:
            index = BruteForceIndex(store.matrix)
            svc = EmbeddingService(store, index=index)
            assert svc.index is index
            assert svc.top_k(["n0"], k=2)
            svc.close()  # must NOT close the caller-owned store
            assert store.count == 300

    def test_bad_options(self, store_path):
        with pytest.raises(ValueError, match="unknown index kind"):
            EmbeddingService(store_path, index="hnsw")
        with pytest.raises(ValueError, match="batch_size"):
            EmbeddingService(store_path, batch_size=0)

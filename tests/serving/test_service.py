"""Service-layer tests: batched execution, result identity, metrics
wiring, lifecycle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.index as index_module
import repro.serving.service as service_module
from repro.engine.observability import MetricsRegistry, Tracer
from repro.serving import (
    BruteForceIndex,
    EmbeddingService,
    EmbeddingStore,
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


def _exact_patterns(dim):
    """Integer vectors whose norm is 1, 2 or 4: normalized, their entries
    are 0, ±1/2 or ±1, so every cosine and dot score is exact."""
    return [
        scale * np.array(signs)
        for signs in itertools.product((-1, 0, 1), repeat=dim)
        if sum(map(abs, signs)) in (1, 4)
        for scale in (1, 2)
    ]


@st.composite
def request_streams(draw):
    """A table of a few distinct exact rows (so scores tie exactly) and a
    stream of top-k requests over it: repeated ids within and across
    requests, mixed ``k``, ``nprobe`` (up to past ``nlist``) and
    ``exclude_self``.

    Under exact arithmetic a row's search result does not depend on the
    batch it is searched in, which BLAS rounding otherwise allows: a
    one-row product goes to GEMV, not GEMM (docs/performance.md).  With
    one IVF cell per distinct row, the k-means centroids are those rows,
    so the centroid ranking is exact too.
    """
    dim = draw(st.integers(1, 4))
    pool = _exact_patterns(dim)
    chosen = draw(
        st.lists(
            st.integers(0, len(pool) - 1), min_size=1, max_size=6, unique=True
        )
    )
    n = draw(st.integers(max(2, len(chosen)), 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # every chosen pattern is stored at least once
    which = np.concatenate(
        [np.arange(len(chosen)), rng.integers(0, len(chosen), n - len(chosen))]
    )
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rows = np.array([pool[c] for c in chosen])[rng.permutation(which)]
    requests = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=7),
                st.integers(1, n + 2),
                st.one_of(st.none(), st.integers(1, 9)),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return rows.astype(dtype), len(chosen), requests


class TestTopKCache:
    """Repeated queries are answered from the per-row result cache with
    the lists a fresh search returns."""

    @settings(max_examples=80, deadline=None)
    @given(
        request_streams(),
        st.sampled_from(["cosine", "dot"]),
        st.sampled_from(["ivf", "brute"]),
        st.integers(1, 5),
    )
    def test_stream_equals_reference(
        self, tmp_path_factory, stream, metric, kind, batch_size
    ):
        rows, nlist, requests = stream
        path = tmp_path_factory.mktemp("stream") / "e.tnemb"
        ids = [f"n{i}" for i in range(len(rows))]
        write_store(path, ids, rows)
        with EmbeddingService(
            path,
            metric=metric,
            index=kind,
            nlist=nlist,
            nprobe=2,
            batch_size=batch_size,
        ) as svc:
            for picks, k, nprobe, exclude_self in requests:
                nodes = [ids[i] for i in picks]
                got = svc.top_k(
                    nodes, k=k, nprobe=nprobe, exclude_self=exclude_self
                )
                want = reference_top_k(svc, nodes, k, nprobe, exclude_self)
                assert repr(got) == repr(want)

    @staticmethod
    def counters(metrics):
        return {
            name: value
            for name, value in metrics.snapshot()["counters"].items()
            if name.startswith("serving/")
        }

    def test_repeats_hit_and_skip_the_search(self, store_path):
        metrics = MetricsRegistry()
        with EmbeddingService(
            store_path, nlist=16, batch_size=4, metrics=metrics
        ) as svc:
            first = svc.top_k(["n1", "n2", "n1"], k=5)
            scored = metrics.snapshot()["counters"]["serving/rows_scored"]
            again = svc.top_k(["n2", "n1"], k=5)
        assert again == [first[1], first[0]]
        counters = self.counters(metrics)
        # the in-batch repeat and both ids of the second call are hits
        assert counters["serving/topk_cache_hits"] == 3
        assert counters["serving/topk_cache_misses"] == 2
        assert counters["serving/rows_scored"] == scored  # no new search

    def test_store_larger_than_the_bound_is_not_cached(
        self, store_path, monkeypatch
    ):
        # 300 rows of 4 columns (k = 3 plus the query's own row) take
        # 300 * 4 * 16 bytes: one byte less and nothing is cached
        monkeypatch.setattr(
            service_module, "TOPK_CACHE_BYTES", 300 * 4 * 16 - 1
        )
        nodes = ["n0", "n1", "n0", "n2", "n3", "n0"]
        metrics = MetricsRegistry()
        with EmbeddingService(
            store_path, nlist=16, batch_size=4, metrics=metrics
        ) as svc:
            got = svc.top_k(nodes, k=3)
            assert svc._topk_cache is None
            assert repr(got) == repr(reference_top_k(svc, nodes, 3))
        counters = self.counters(metrics)
        assert counters["serving/topk_cache_hits"] == 0
        assert counters["serving/topk_cache_misses"] == len(nodes)

    def test_store_at_the_bound_is_cached_whole(
        self, store_path, monkeypatch
    ):
        monkeypatch.setattr(service_module, "TOPK_CACHE_BYTES", 300 * 4 * 16)
        nodes = [f"n{i}" for i in range(300)] * 2
        metrics = MetricsRegistry()
        with EmbeddingService(
            store_path, nlist=16, batch_size=512, metrics=metrics
        ) as svc:
            got = svc.top_k(nodes, k=3)
            assert svc._topk_cache.indices.shape == (300, 4)
            assert len(svc._topk_cache.slot_of) == 300
            assert repr(got) == repr(reference_top_k(svc, nodes, 3))
        counters = self.counters(metrics)
        assert counters["serving/topk_cache_hits"] == 300

    def test_index_nprobe_change_is_never_stale(self, store_path):
        nodes = [f"n{i}" for i in range(0, 300, 11)]
        with EmbeddingService(store_path, nlist=16, nprobe=1) as svc:
            narrow = svc.top_k(nodes, k=30)
            svc.index.nprobe = 16
            wide = svc.top_k(nodes, k=30)
            assert repr(wide) == repr(reference_top_k(svc, nodes, 30))
            assert wide != narrow  # the wider probe finds other rows
            svc.index.nprobe = 1
            assert repr(svc.top_k(nodes, k=30)) == repr(narrow)

    def test_unknown_id_leaves_cache_and_counters(self, store_path):
        metrics = MetricsRegistry()
        with EmbeddingService(
            store_path, nlist=16, batch_size=2, metrics=metrics
        ) as svc:
            svc.top_k(["n0", "n1"], k=4)
            cached = dict(svc._topk_cache.slot_of)
            before = self.counters(metrics)
            with pytest.raises(KeyError, match="ghost"):
                svc.top_k(["n2", "n3", "n4", "ghost"], k=4)
            with pytest.raises(KeyError, match="ghost"):
                svc.top_k(["n0", "ghost"], k=2)  # another (fetch, nprobe)
            for nprobe in (0, -2):  # rejected before the key is built
                with pytest.raises(ValueError, match=f"got {nprobe}$"):
                    svc.top_k(["n0"], k=2, nprobe=nprobe)
            assert svc._topk_cache.slot_of == cached
            assert self.counters(metrics) == before

    def test_services_sharing_an_index_keep_their_own_caches(
        self, store_path
    ):
        with EmbeddingStore(store_path) as store:
            first = EmbeddingService(store, nlist=16)
            first.top_k(["n0", "n1"], k=4)
            second = EmbeddingService(store, index=first.index)
            second.top_k(["n5"], k=4)
            assert set(first._topk_cache.slot_of) == {0, 1}
            assert set(second._topk_cache.slot_of) == {5}
            first.close()
            assert first._topk_cache is None
            assert second.top_k(["n5"], k=4) == second.top_k(["n5"], k=4)

    def test_answers_keep_the_bytes_of_their_first_batch(self, tmp_path):
        """A cached answer is the one its row got in the batch it was
        first searched in, so top_k's bytes depend on the request
        history.  On this table two centroids tie for row 0, and the
        one-row and two-row centroid rankings (a GEMV and a GEMM) round
        them differently: row 0 alone scores itself 0.99999994, in a
        pair 1.0.  Fixing that tie in IVFIndex.search ends the
        difference, and the last assertion with it."""
        path = tmp_path / "e.tnemb"
        rows = np.array([[1, -3, 1], [-2, 2, -2], [-2, 2, -2]], np.float32)
        write_store(path, ["a", "b", "c"], rows)
        options = dict(nlist=3, nprobe=2, metric="cosine")
        query = dict(k=1, exclude_self=False)
        with EmbeddingService(path, **options) as alone_first:
            alone = alone_first.top_k(["a"], **query)[0]
            assert alone_first.top_k(["a", "b"], **query)[0] == alone
        with EmbeddingService(path, **options) as pair_first:
            paired = pair_first.top_k(["a", "b"], **query)[0]
            assert pair_first.top_k(["a"], **query)[0] == paired
            index, matrix = pair_first.index, pair_first.store.matrix
            assert alone[0][1] == float(index.search(matrix[[0]], 1)[1][0, 0])
            assert paired[0][1] == float(
                index.search(matrix[[0, 1]], 1)[1][0, 0]
            )
        assert repr(alone) != repr(paired)

    def test_exact_index_is_not_cached(self, store_path):
        metrics = MetricsRegistry()
        with EmbeddingService(
            store_path, index="brute", metrics=metrics
        ) as svc:
            svc.top_k(["n0", "n0"], k=2)
            assert svc._topk_cache is None
        counters = self.counters(metrics)
        assert counters["serving/topk_cache_hits"] == 0
        assert counters["serving/topk_cache_misses"] == 2


class TestKValidation:
    @pytest.mark.parametrize("exclude_self", [True, False])
    @pytest.mark.parametrize("kind", ["ivf", "brute"])
    def test_k_below_one_names_the_callers_k(
        self, store_path, kind, exclude_self
    ):
        with EmbeddingService(store_path, index=kind, nlist=8) as svc:
            for k in (0, -3):
                with pytest.raises(ValueError, match=f"got {k}$"):
                    svc.top_k(["n0"], k=k, exclude_self=exclude_self)


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

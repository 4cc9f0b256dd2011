"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import _load_labels, build_parser, main
from repro.engine.observability import load_report
from repro.graph import load_embeddings, load_graph, save_graph
from repro.datasets import two_view_toy


@pytest.fixture
def toy_files(tmp_path):
    graph, labels = two_view_toy(num_per_side=12)
    graph_path = tmp_path / "toy.tsv"
    labels_path = tmp_path / "toy-labels.tsv"
    save_graph(graph, graph_path)
    labels_path.write_text(
        "".join(f"{node}\t{label}\n" for node, label in labels.items())
    )
    return graph_path, labels_path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["stats", "g.tsv"],
            ["generate", "aminer", "--graph", "g.tsv"],
            ["train", "g.tsv", "--out", "e.txt"],
            ["classify", "g.tsv", "l.tsv"],
            ["linkpred", "g.tsv"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_iterations_default_is_the_config_default(self, toy_files):
        from repro.cli import _make_method
        from repro.core import TransNConfig

        graph = load_graph(toy_files[0])
        parser = build_parser()
        args = parser.parse_args(["train", "g.tsv", "--out", "e.txt"])
        assert args.iterations is None
        method = _make_method("transn", graph, args)
        assert method.config.num_iterations == TransNConfig().num_iterations
        args = parser.parse_args(
            ["train", "g.tsv", "--out", "e.txt", "--iterations", "3"]
        )
        assert _make_method("transn", graph, args).config.num_iterations == 3


class TestGenerate:
    def test_generate_and_stats(self, tmp_path, capsys):
        graph_path = tmp_path / "g.tsv"
        labels_path = tmp_path / "l.tsv"
        assert main([
            "generate", "aminer",
            "--graph", str(graph_path),
            "--labels", str(labels_path),
            "--seed", "1",
        ]) == 0
        assert graph_path.exists()
        loaded = load_graph(graph_path)
        assert loaded.edge_types == {"AA", "AP", "PP", "PV"}
        assert main(["stats", str(graph_path), "--labels", str(labels_path)]) == 0
        out = capsys.readouterr().out
        assert "#Nodes" in out

    def test_unknown_dataset(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "imdb", "--graph", str(tmp_path / "g.tsv")])


class TestTrainAndEval:
    def test_train_writes_embeddings(self, toy_files, tmp_path):
        graph_path, _ = toy_files
        out = tmp_path / "emb.txt"
        assert main([
            "train", str(graph_path),
            "--out", str(out),
            "--method", "transn",
            "--dim", "8",
            "--iterations", "1",
        ]) == 0
        embeddings = load_embeddings(out)
        graph = load_graph(graph_path)
        assert set(embeddings) == set(str(n) for n in graph.nodes)
        assert all(v.shape == (8,) for v in embeddings.values())

    def test_train_baseline(self, toy_files, tmp_path):
        graph_path, _ = toy_files
        out = tmp_path / "emb.txt"
        assert main([
            "train", str(graph_path),
            "--out", str(out),
            "--method", "line",
            "--dim", "8",
        ]) == 0
        assert load_embeddings(out)

    def test_unknown_method(self, toy_files, tmp_path):
        graph_path, _ = toy_files
        with pytest.raises(SystemExit, match="unknown method"):
            main([
                "train", str(graph_path),
                "--out", str(tmp_path / "e.txt"),
                "--method", "gnn9000",
            ])

    @pytest.mark.parametrize(
        "name", ["het-node2vec", "spacey", "relation-balanced"]
    )
    def test_removed_walk_policy_lists_remaining(self, toy_files, tmp_path, name):
        from repro.walks import POLICY_NAMES

        graph_path, _ = toy_files
        with pytest.raises(SystemExit, match="unknown walk_policy") as error:
            main([
                "train", str(graph_path),
                "--out", str(tmp_path / "e.txt"),
                "--walk-policy", name,
            ])
        assert all(kept in str(error.value) for kept in POLICY_NAMES)

    def test_classify(self, toy_files, capsys):
        graph_path, labels_path = toy_files
        assert main([
            "classify", str(graph_path), str(labels_path),
            "--method", "line",
            "--dim", "8",
            "--repeats", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "macro-F1" in out

    def test_linkpred(self, toy_files, capsys):
        graph_path, _ = toy_files
        assert main([
            "linkpred", str(graph_path),
            "--method", "line",
            "--dim", "8",
            "--removal", "0.3",
        ]) == 0
        out = capsys.readouterr().out
        assert "AUC" in out


class TestCheckpointSurface:
    """The fault-tolerance flags of the train subcommand, end to end."""

    def _train(self, graph_path, out, *extra):
        return main([
            "train", str(graph_path),
            "--out", str(out),
            "--method", "transn",
            "--dim", "8",
            *extra,
        ])

    def test_resume_reproduces_straight_run(self, toy_files, tmp_path):
        """2 iters + checkpoint, resume to 4 == straight 4-iter run."""
        graph_path, _ = toy_files
        ckpt_dir = tmp_path / "ckpts"
        straight = tmp_path / "straight.txt"
        partial = tmp_path / "partial.txt"
        resumed = tmp_path / "resumed.txt"
        assert self._train(graph_path, straight, "--iterations", "4") == 0
        assert self._train(
            graph_path, partial,
            "--iterations", "2",
            "--checkpoint-dir", str(ckpt_dir),
        ) == 0
        assert any(ckpt_dir.iterdir()), "snapshots must exist"
        assert self._train(
            graph_path, resumed,
            "--iterations", "4",
            "--checkpoint-dir", str(ckpt_dir),
            "--resume",
        ) == 0
        assert resumed.read_bytes() == straight.read_bytes()
        assert partial.read_bytes() != straight.read_bytes()

    def test_health_policy_round_trips(self, toy_files, tmp_path):
        graph_path, _ = toy_files
        out = tmp_path / "emb.txt"
        assert self._train(
            graph_path, out,
            "--iterations", "1",
            "--checkpoint-dir", str(tmp_path / "ck"),
            "--health-policy", "rollback",
        ) == 0
        assert load_embeddings(out)

    def test_resume_requires_checkpoint_dir(self, toy_files, tmp_path):
        graph_path, _ = toy_files
        with pytest.raises(SystemExit, match="--resume needs --checkpoint-dir"):
            self._train(graph_path, tmp_path / "e.txt", "--resume")

    def test_baselines_reject_checkpoint_dir(self, toy_files, tmp_path):
        graph_path, _ = toy_files
        with pytest.raises(SystemExit, match="only supported for"):
            main([
                "train", str(graph_path),
                "--out", str(tmp_path / "e.txt"),
                "--method", "line",
                "--checkpoint-dir", str(tmp_path / "ck"),
            ])

    def test_baselines_reject_rollback_policy(self, toy_files, tmp_path):
        graph_path, _ = toy_files
        with pytest.raises(SystemExit):
            main([
                "train", str(graph_path),
                "--out", str(tmp_path / "e.txt"),
                "--method", "line",
                "--dim", "8",
                "--health-policy", "rollback",
            ])


class TestReportSurface:
    """--report/--trace on the train subcommand."""

    def test_transn_report_written_and_valid(self, toy_files, tmp_path):
        graph_path, _ = toy_files
        report = tmp_path / "run.json"
        assert main([
            "train", str(graph_path),
            "--out", str(tmp_path / "e.txt"),
            "--method", "transn",
            "--dim", "8",
            "--iterations", "1",
            "--report", str(report),
        ]) == 0
        document = load_report(report)
        assert document["metadata"]["model"] == "transn"
        assert document["trace"]["spans"][0]["kind"] == "run"
        assert any(
            name.startswith("phase/") for name in document["metrics"]["series"]
        )

    def test_baseline_report_with_trace(self, toy_files, tmp_path):
        graph_path, _ = toy_files
        report = tmp_path / "run.json"
        assert main([
            "train", str(graph_path),
            "--out", str(tmp_path / "e.txt"),
            "--method", "deepwalk",
            "--dim", "8",
            "--report", str(report),
            "--trace",
        ]) == 0
        document = load_report(report)
        assert document["metadata"]["model"] == "deepwalk"
        assert document["trace"]["trace_memory"] is True
        assert document["trace"]["spans"][0]["memory_peak_bytes"] > 0

    def test_trace_requires_report(self, toy_files, tmp_path):
        graph_path, _ = toy_files
        with pytest.raises(SystemExit, match="--trace needs --report"):
            main([
                "train", str(graph_path),
                "--out", str(tmp_path / "e.txt"),
                "--trace",
            ])


class TestLabelsParsing:
    def test_malformed_labels(self, tmp_path):
        path = tmp_path / "l.tsv"
        path.write_text("just_a_node_without_label\n")
        with pytest.raises(SystemExit):
            _load_labels(path)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "l.tsv"
        path.write_text("# comment\na\t1\n\nb\t2\n")
        assert _load_labels(path) == {"a": "1", "b": "2"}


class TestServingSurface:
    """train --out-store + query/serve over the binary store, end to end."""

    @pytest.fixture(scope="class")
    def trained_store(self, tmp_path_factory):
        """One appstore train run with both text and binary outputs."""
        tmp_path = tmp_path_factory.mktemp("serving")
        graph_path = tmp_path / "g.tsv"
        assert main([
            "generate", "app-daily", "--graph", str(graph_path),
        ]) == 0
        out = tmp_path / "emb.txt"
        store = tmp_path / "emb.tnemb"
        assert main([
            "train", str(graph_path),
            "--out", str(out),
            "--out-store", str(store),
            "--method", "transn",
            "--dim", "8",
            "--iterations", "1",
        ]) == 0
        return graph_path, out, store

    def test_store_matches_text_output(self, trained_store):
        from repro.serving import EmbeddingStore

        _, out, store_path = trained_store
        embeddings = load_embeddings(out)
        with EmbeddingStore(store_path) as store:
            assert store.count == len(embeddings)
            for node, vector in list(embeddings.items())[:10]:
                assert np.allclose(store.vector(node), vector)

    def test_identical_runs_write_identical_stores(
        self, trained_store, tmp_path
    ):
        graph_path, _, store_path = trained_store
        again = tmp_path / "again.tnemb"
        assert main([
            "train", str(graph_path),
            "--out", str(tmp_path / "again.txt"),
            "--out-store", str(again),
            "--method", "transn",
            "--dim", "8",
            "--iterations", "1",
        ]) == 0
        assert again.read_bytes() == store_path.read_bytes()

    def test_query_top_k_end_to_end(self, trained_store, tmp_path, capsys):
        _, out, store_path = trained_store
        embeddings = load_embeddings(out)
        node = next(iter(embeddings))
        assert main([
            "query", str(store_path),
            "--node", node,
            "--top-k", "3",
            "--index", "brute",
        ]) == 0
        lines = [
            line.split("\t")
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert len(lines) == 3
        assert [row[0] for row in lines] == [node] * 3
        assert [row[1] for row in lines] == ["1", "2", "3"]
        assert node not in {row[2] for row in lines}  # self excluded
        scores = [float(row[3]) for row in lines]
        assert scores == sorted(scores, reverse=True)

    def test_query_pairs_scores_match_embeddings(
        self, trained_store, tmp_path, capsys
    ):
        _, out, store_path = trained_store
        embeddings = load_embeddings(out)
        nodes = list(embeddings)
        pairs_file = tmp_path / "pairs.tsv"
        pairs_file.write_text(
            f"{nodes[0]}\t{nodes[1]}\n# comment\n{nodes[2]}\t{nodes[3]}\n"
        )
        assert main([
            "query", str(store_path), "--pairs", str(pairs_file),
        ]) == 0
        rows = [
            line.split("\t")
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert len(rows) == 2
        for u, v, score in rows:
            expected = float(np.dot(embeddings[u], embeddings[v]))
            assert float(score) == pytest.approx(expected, rel=1e-6)

    def test_query_sample_deterministic_with_report(
        self, trained_store, tmp_path
    ):
        store_path = trained_store[2]
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        report = tmp_path / "serve.json"
        for out in (a, b):
            assert main([
                "query", str(store_path),
                "--sample", "6",
                "--top-k", "4",
                "--out", str(out),
                "--report", str(report),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()
        document = load_report(report)
        assert document["metadata"]["command"] == "query"
        assert document["metrics"]["counters"]["serving/queries"] == 6.0
        assert "serving/latency_p99_ms" in document["metrics"]["gauges"]

    def test_serve_reads_stdin(self, trained_store, capsys, monkeypatch):
        import io

        _, out, store_path = trained_store
        node = next(iter(load_embeddings(out)))
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(f"{node}\n\nno-such-node\n")
        )
        assert main([
            "serve", str(store_path), "--top-k", "2", "--index", "brute",
        ]) == 0
        captured = capsys.readouterr()
        rows = [l.split("\t") for l in captured.out.strip().splitlines()]
        assert len(rows) == 2 and rows[0][0] == node
        assert "served 1 queries (1 errors)" in captured.err

    def test_query_requires_a_store_argument(self):
        with pytest.raises(SystemExit):
            main(["query", "--top-k", "3"])

    def test_query_missing_store_file(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["query", str(tmp_path / "ghost.tnemb"), "--sample", "2"])

    def test_query_rejects_text_embeddings(self, trained_store):
        _, out, _ = trained_store
        with pytest.raises(SystemExit, match="not an embedding store"):
            main(["query", str(out), "--sample", "2"])

    def test_query_needs_exactly_one_input(self, trained_store, tmp_path):
        store_path = str(trained_store[2])
        with pytest.raises(SystemExit, match="exactly one of"):
            main(["query", store_path])
        with pytest.raises(SystemExit, match="exactly one of"):
            main([
                "query", store_path,
                "--sample", "2",
                "--pairs", str(tmp_path / "p.tsv"),
            ])

    def test_query_rejects_nprobe_with_brute(self, trained_store):
        with pytest.raises(SystemExit, match="--nprobe only applies"):
            main([
                "query", str(trained_store[2]),
                "--sample", "2",
                "--index", "brute",
                "--nprobe", "4",
            ])

    def test_query_unknown_node_named(self, trained_store):
        with pytest.raises(SystemExit, match="'gh0st'"):
            main([
                "query", str(trained_store[2]),
                "--node", "gh0st",
                "--index", "brute",
            ])

    def test_query_malformed_pairs_named(self, trained_store, tmp_path):
        pairs = tmp_path / "p.tsv"
        pairs.write_text("a\tb\tc\n")
        with pytest.raises(SystemExit, match=r"p\.tsv:1"):
            main([
                "query", str(trained_store[2]), "--pairs", str(pairs),
            ])


class TestParallelSurface:
    """The --workers flag of the train subcommand, end to end."""

    def test_baselines_reject_workers(self, toy_files, tmp_path):
        graph_path, _ = toy_files
        with pytest.raises(SystemExit, match="only supported for"):
            main([
                "train", str(graph_path),
                "--out", str(tmp_path / "e.txt"),
                "--method", "line",
                "--workers", "2",
            ])

    def test_transn_trains_with_workers(self, toy_files, tmp_path):
        graph_path, _ = toy_files
        out = tmp_path / "emb.txt"
        assert main([
            "train", str(graph_path),
            "--out", str(out),
            "--method", "transn",
            "--dim", "8",
            "--iterations", "1",
            "--workers", "2",
        ]) == 0
        embeddings = load_embeddings(out)
        assert all(np.all(np.isfinite(v)) for v in embeddings.values())

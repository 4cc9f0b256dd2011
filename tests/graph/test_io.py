"""Tests for graph and embedding serialization."""

import numpy as np
import pytest

from repro.graph import (
    load_embeddings,
    load_graph,
    save_embeddings,
    save_graph,
)


class TestGraphRoundTrip:
    def test_round_trip(self, academic, tmp_path):
        path = tmp_path / "g.tsv"
        save_graph(academic, path)
        loaded = load_graph(path)
        assert loaded.num_nodes == academic.num_nodes
        assert loaded.num_edges == academic.num_edges
        for node in academic.nodes:
            assert loaded.node_type(node) == academic.node_type(node)
        for orig, new in zip(academic.edges, loaded.edges):
            assert orig.endpoints() == new.endpoints()
            assert orig.edge_type == new.edge_type
            assert orig.weight == new.weight

    def test_weights_preserved_exactly(self, book_view, tmp_path):
        path = tmp_path / "g.tsv"
        save_graph(book_view, path)
        loaded = load_graph(path)
        assert loaded.edge_weight("R2", "B2") == 5.0

    def test_isolated_nodes_survive(self, tmp_path):
        from repro.graph import HeteroGraph

        g = HeteroGraph()
        g.add_node("iso", "t")
        g.add_edge("a", "b", "e", u_type="t", v_type="t")
        path = tmp_path / "g.tsv"
        save_graph(g, path)
        loaded = load_graph(path)
        assert loaded.has_node("iso")
        assert loaded.degree("iso") == 0

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text(
            "# header\n\nnode\ta\tt\nnode\tb\tt\nedge\ta\tb\te\t2.0\n"
        )
        loaded = load_graph(path)
        assert loaded.num_edges == 1

    def test_malformed_node_record(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("node\tonly_one_field\n")
        with pytest.raises(ValueError, match="3 fields"):
            load_graph(path)

    def test_malformed_edge_record(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("node\ta\tt\nnode\tb\tt\nedge\ta\tb\te\n")
        with pytest.raises(ValueError, match="5 fields"):
            load_graph(path)

    def test_unknown_record_kind(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("vertex\ta\tt\n")
        with pytest.raises(ValueError, match="unknown record kind"):
            load_graph(path)


class TestEmbeddingRoundTrip:
    def test_round_trip(self, rng, tmp_path):
        embeddings = {f"n{k}": rng.normal(size=6) for k in range(5)}
        path = tmp_path / "emb.txt"
        save_embeddings(embeddings, path)
        loaded = load_embeddings(path)
        assert set(loaded) == set(embeddings)
        for node in embeddings:
            assert np.allclose(loaded[node], embeddings[node], atol=1e-6)

    def test_header_format(self, rng, tmp_path):
        embeddings = {"a": rng.normal(size=3)}
        path = tmp_path / "emb.txt"
        save_embeddings(embeddings, path)
        assert path.read_text().splitlines()[0] == "1 3"

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_embeddings({}, tmp_path / "emb.txt")

    def test_inconsistent_dim_rejected(self, rng, tmp_path):
        embeddings = {"a": rng.normal(size=3), "b": rng.normal(size=4)}
        with pytest.raises(ValueError, match="inconsistent"):
            save_embeddings(embeddings, tmp_path / "emb.txt")

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\na 1 2 3\n")
        with pytest.raises(ValueError, match="promises 2"):
            load_embeddings(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\na 1 2\n")
        with pytest.raises(ValueError, match="expected 4 fields"):
            load_embeddings(path)


class TestDtypePreservation:
    """The text path must not silently coerce dtypes (regression: the
    serving store round trips through text, so float32 embeddings have
    to come back as float32, bit for bit)."""

    def test_float32_round_trip_is_bit_exact(self, rng, tmp_path):
        embeddings = {
            f"n{k}": rng.normal(size=5).astype(np.float32) for k in range(4)
        }
        path = tmp_path / "emb.txt"
        save_embeddings(embeddings, path)
        loaded = load_embeddings(path)
        for node, vector in embeddings.items():
            assert loaded[node].dtype == np.float32
            assert loaded[node].tobytes() == vector.tobytes()

    def test_float64_round_trip_is_bit_exact(self, rng, tmp_path):
        embeddings = {f"n{k}": rng.normal(size=5) for k in range(4)}
        path = tmp_path / "emb.txt"
        save_embeddings(embeddings, path)
        loaded = load_embeddings(path)
        for node, vector in embeddings.items():
            assert loaded[node].dtype == np.float64
            assert loaded[node].tobytes() == vector.tobytes()

    def test_float32_header_carries_marker(self, rng, tmp_path):
        path = tmp_path / "emb.txt"
        save_embeddings({"a": rng.normal(size=3).astype(np.float32)}, path)
        assert path.read_text().splitlines()[0] == "1 3 float32"

    def test_float64_header_unchanged(self, rng, tmp_path):
        # the two-field header stays word2vec-compatible for float64
        path = tmp_path / "emb.txt"
        save_embeddings({"a": rng.normal(size=3)}, path)
        assert path.read_text().splitlines()[0] == "1 3"

    def test_unknown_dtype_token_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3 float16\na 1 2 3\n")
        with pytest.raises(ValueError, match="float16"):
            load_embeddings(path)

    def test_non_float_input_promoted_to_float64(self, tmp_path):
        path = tmp_path / "emb.txt"
        save_embeddings({"a": [1, 2, 3]}, path)
        loaded = load_embeddings(path)
        assert loaded["a"].dtype == np.float64


class TestMalformedRows:
    def test_bad_edge_weight_names_file_and_line(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text(
            "node\ta\tauthor\nnode\tb\tauthor\n"
            "edge\ta\tb\tcoauthor\tnot-a-number\n"
        )
        with pytest.raises(ValueError, match=r"g\.tsv:3:.*not a number"):
            load_graph(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0", "-1.5"])
    def test_non_finite_or_non_positive_weight_rejected(self, tmp_path, bad):
        path = tmp_path / "g.tsv"
        path.write_text(f"node\ta\tt\nnode\tb\tt\nedge\ta\tb\te\t{bad}\n")
        with pytest.raises(
            ValueError, match=r"g\.tsv:3: edge weight must be finite and positive"
        ):
            load_graph(path)

    def test_unknown_endpoint_names_file_and_line(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("node\ta\tt\nnode\tb\tt\n\nedge\ta\tc\te\t1.0\n")
        with pytest.raises(ValueError, match=r"g\.tsv:4: unknown node 'c'"):
            load_graph(path)

    def test_node_record_after_its_first_edge_is_unknown(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("node\ta\tt\nedge\ta\tb\te\t1.0\nnode\tb\tt\n")
        with pytest.raises(ValueError, match=r"g\.tsv:2: unknown node 'b'"):
            load_graph(path)

    def test_self_loop_names_file_and_line(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("node\ta\tt\n# c\nedge\ta\ta\te\t1.0\n")
        with pytest.raises(ValueError, match=r"g\.tsv:3: self loops"):
            load_graph(path)

    def test_retyped_node_names_file_and_line(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("node\ta\tt\nnode\tb\tt\nnode\ta\tu\n")
        with pytest.raises(
            ValueError, match=r"g\.tsv:3: node 'a' already has type 't'"
        ):
            load_graph(path)

    def test_first_bad_record_in_file_order_is_reported(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text(
            "node\ta\tt\nnode\tb\tt\n"
            "edge\ta\tb\te\t1.0\n"
            "edge\ta\tb\te\tnan\n"  # line 4: the first bad record
            "edge\ta\tzz\te\t1.0\n"
            "edge\ta\tb\te\tx\n"
            "node\ta\tu\n"
            "vertex\n"
        )
        with pytest.raises(ValueError, match=r"g\.tsv:4: edge weight must"):
            load_graph(path)

    def test_bad_embedding_header_names_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("x 3\na 1 2 3\n")
        with pytest.raises(ValueError, match=r"emb\.txt:1:.*integers"):
            load_embeddings(path)

    def test_bad_embedding_value_names_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\na 1 2 3\nb 1 oops 3\n")
        with pytest.raises(ValueError, match=r"emb\.txt:3:.*non-numeric"):
            load_embeddings(path)


class TestAtomicWrites:
    def test_failed_graph_save_keeps_old_file(
        self, academic, tmp_path, monkeypatch
    ):
        import os

        path = tmp_path / "g.tsv"
        save_graph(academic, path)
        before = path.read_text()

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            save_graph(academic, path)
        monkeypatch.undo()
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["g.tsv"]

    def test_failed_embedding_save_keeps_old_file(
        self, rng, tmp_path, monkeypatch
    ):
        import os

        path = tmp_path / "emb.txt"
        save_embeddings({"a": rng.normal(size=3)}, path)
        before = path.read_text()
        monkeypatch.setattr(
            os, "replace", lambda s, d: (_ for _ in ()).throw(OSError("full"))
        )
        with pytest.raises(OSError):
            save_embeddings({"b": rng.normal(size=3)}, path)
        monkeypatch.undo()
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["emb.txt"]

    def test_no_tmp_left_on_success(self, academic, tmp_path):
        save_graph(academic, tmp_path / "g.tsv")
        assert [p.name for p in tmp_path.iterdir()] == ["g.tsv"]

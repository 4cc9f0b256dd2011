"""The column-built link-prediction split and noise injection against
the per-edge versions of ``tests/eval/oracle.py``.

The train graph's node order and edge table, and the positive and the
negative pairs, must be the same bytes; so must the noisy graph.  The
noise injection must also not depend on the interpreter's hash seed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.datasets import make_aminer, make_app_daily
from repro.eval.link_prediction import make_split
from repro.eval.robustness import inject_noise_edges
from repro.graph import HeteroGraph
from tests.eval import oracle
from tests.graph.test_views import random_graph_inputs


def assert_same_table(got, want) -> None:
    for name in ("ends", "type_codes", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert got.type_names == want.type_names


def assert_same_split(graph, removal_fraction, seed) -> None:
    try:
        want = oracle.make_split(graph, removal_fraction, seed)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            make_split(graph, removal_fraction, seed)
        return
    got = make_split(graph, removal_fraction, seed)
    assert list(got.train_graph.nodes) == want.nodes
    assert [got.train_graph.node_type(n) for n in want.nodes] == [
        graph.node_type(n) for n in want.nodes
    ]
    assert_same_table(
        got.train_graph.edge_table(), oracle.train_table(graph, want)
    )
    assert got.positive_pairs == want.positive_pairs
    assert got.negative_pairs == want.negative_pairs


def assert_same_noise(graph, edge_type, fraction, seed) -> None:
    got = inject_noise_edges(graph, edge_type, fraction, seed)
    want = oracle.inject_noise_edges(graph, edge_type, fraction, seed)
    assert list(got.nodes) == list(want.nodes)
    assert_same_table(got.edge_table(), want.edge_table())


_GRAPHS = {"aminer": make_aminer, "app-daily": make_app_daily}


@pytest.fixture(scope="module", params=sorted(_GRAPHS))
def generated(request):
    graph, _ = _GRAPHS[request.param]()
    return graph


class TestSplitAgainstOracle:
    @given(
        random_graph_inputs(),
        st.sampled_from([0.1, 0.4, 0.7]),
        st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_multigraphs(self, inputs, removal_fraction, seed):
        graph = HeteroGraph.from_edges(*inputs)
        assert_same_split(graph, removal_fraction, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated(self, generated, seed):
        assert_same_split(generated, 0.4, seed)


class TestNoiseAgainstOracle:
    @given(
        random_graph_inputs(),
        st.sampled_from(["e0", "e1", "e2"]),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_multigraphs(self, inputs, edge_type, fraction, seed):
        graph = HeteroGraph.from_edges(*inputs)
        if edge_type not in graph.edge_types:
            edge_type = min(graph.edge_types)
        assert_same_noise(graph, edge_type, fraction, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated(self, generated, seed):
        for edge_type in sorted(generated.edge_types):
            assert_same_noise(generated, edge_type, 0.5, seed)


# one edge type over two node-type pairs: author-paper first, then
# paper-venue; prints a digest of the noisy graph
_NOISE_SCRIPT = """
import hashlib
from repro.eval.robustness import inject_noise_edges
from repro.graph import HeteroGraph

g = HeteroGraph()
for k in range(6):
    g.add_node(f"a{k}", "author")
    g.add_node(f"p{k}", "paper")
    g.add_node(f"v{k}", "venue")
for k in range(6):
    g.add_edge(f"a{k}", f"p{k}", "link")
    g.add_edge(f"p{k}", f"v{(k + 1) % 6}", "link")
table = inject_noise_edges(g, "link", fraction=1.0, seed=0).edge_table()
digest = hashlib.sha256()
for column in (table.ends, table.type_codes, table.weights):
    digest.update(column.tobytes())
print(digest.hexdigest())
"""


def test_noise_does_not_depend_on_the_hash_seed():
    src = str(Path(repro.__file__).resolve().parent.parent)
    digests = {
        subprocess.run(
            [sys.executable, "-c", _NOISE_SCRIPT],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        for hash_seed in ("0", "1")
    }
    assert len(digests) == 1


def test_noise_uses_the_first_edges_node_types():
    g = HeteroGraph()
    for k in range(4):
        g.add_node(f"a{k}", "author")
        g.add_node(f"p{k}", "paper")
        g.add_node(f"v{k}", "venue")
    g.add_edge("p0", "v0", "link")
    g.add_edge("a0", "p0", "link")
    noisy = inject_noise_edges(g, "link", fraction=5.0, seed=1)
    ends = noisy.edge_table().ends[g.num_edges :]
    types = {
        frozenset(noisy.node_type(noisy.node_at(i)) for i in pair)
        for pair in ends.tolist()
    }
    assert types == {frozenset(("paper", "venue"))}

"""Per-edge reference versions of the link-prediction split and the
noise injection.

``repro.eval`` builds both from the graph's edge table with index masks
and chunked draws.  The versions here go one edge and one draw at a
time: the removed edges are looked up row by row, the train graph keeps
the other rows, and every negative candidate is one pair of scalar
``rng.integers`` draws checked with ``has_edge``.  The tests in
``test_split_oracle.py`` hold the two equal, byte for byte.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.graph import HeteroGraph
from repro.graph.heterograph import EdgeTable
from tests.graph.oracle import EdgeRow, edge_rows


class Split(NamedTuple):
    """The train graph as its nodes and kept edge rows, and the pairs."""

    nodes: list
    kept: list[EdgeRow]
    positive_pairs: list[tuple]
    negative_pairs: list[tuple]


def make_split(
    graph: HeteroGraph, removal_fraction: float = 0.4, seed: int = 0
) -> Split:
    rng = np.random.default_rng(seed)
    edges = edge_rows(graph)
    num_remove = max(1, int(round(removal_fraction * len(edges))))
    removed_idx = rng.choice(len(edges), size=num_remove, replace=False)
    removed = {int(i) for i in removed_idx}
    kept = [edge for k, edge in enumerate(edges) if k not in removed]
    positives = [(edges[int(i)].u, edges[int(i)].v) for i in removed_idx]
    nodes = list(graph.nodes)
    negatives = []
    attempts = 0
    while len(negatives) < len(positives) and attempts < 100 * len(positives):
        attempts += 1
        u = nodes[int(rng.integers(len(nodes)))]
        v = nodes[int(rng.integers(len(nodes)))]
        if u != v and not graph.has_edge(u, v):
            negatives.append((u, v))
    if len(negatives) < len(positives):
        raise RuntimeError("could not sample enough non-adjacent pairs")
    return Split(nodes, kept, positives, negatives)


def train_table(graph: HeteroGraph, split: Split) -> EdgeTable:
    """The edge table of ``split``'s train graph: the kept rows over all
    of ``graph``'s nodes, with the edge types that still have an edge in
    ``graph``'s code order."""
    present = {edge.edge_type for edge in split.kept}
    names = tuple(t for t in graph.edge_table().type_names if t in present)
    return EdgeTable(
        np.array(
            [(graph.index_of(e.u), graph.index_of(e.v)) for e in split.kept],
            dtype=np.int64,
        ).reshape(-1, 2),
        np.array([names.index(e.edge_type) for e in split.kept], np.int64),
        np.array([e.weight for e in split.kept], dtype=np.float64),
        names,
    )


def inject_noise_edges(
    graph: HeteroGraph, edge_type: str, fraction: float, seed: int = 0
) -> HeteroGraph:
    """The graph copied edge by edge, then the noise edges added; the
    node types of the new edges are those of the type's first edge."""
    existing = edge_rows(graph, edge_type)
    if not existing:
        raise ValueError(f"graph has no edges of type {edge_type!r}")
    rng = np.random.default_rng(seed)
    weights = np.array([e.weight for e in existing])
    lo, hi = float(weights.min()), float(weights.max())

    noisy = HeteroGraph()
    for node in graph.nodes:
        noisy.add_node(node, graph.node_type(node))
    for edge in edge_rows(graph):
        noisy.add_edge(edge.u, edge.v, edge.edge_type, edge.weight)

    first = existing[0]
    type_pair = sorted({graph.node_type(first.u), graph.node_type(first.v)})
    if len(type_pair) == 1:
        side_a = side_b = graph.nodes_of_type(type_pair[0])
    else:
        side_a = graph.nodes_of_type(type_pair[0])
        side_b = graph.nodes_of_type(type_pair[1])
    num_new = int(round(fraction * len(existing)))
    added = 0
    attempts = 0
    while added < num_new and attempts < 100 * max(num_new, 1):
        attempts += 1
        u = side_a[int(rng.integers(len(side_a)))]
        v = side_b[int(rng.integers(len(side_b)))]
        if u == v:
            continue
        weight = float(rng.uniform(lo, hi)) if hi > lo else lo
        noisy.add_edge(u, v, edge_type, weight)
        added += 1
    return noisy

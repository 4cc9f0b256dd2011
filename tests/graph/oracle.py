"""Per-edge reference builders for the graph set-up.

Each builder here makes its structure one edge at a time from plain
Python objects: incident lists appended per edge, views and
paired-subviews filtered edge by edge, the CSR filled slot by slot and
the TSV loader adding record after record.  ``repro.graph`` builds the
same things from one edge table with array operations; the property
tests in ``test_array_setup.py`` hold the two equal, byte for byte.
:func:`edge_rows` reads a graph's edges back as one tuple per edge.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np


class EdgeRow(NamedTuple):
    """One edge of a ``HeteroGraph``, by node IDs and type name."""

    u: object
    v: object
    edge_type: str
    weight: float


def edge_rows(graph, edge_type: str | None = None) -> list[EdgeRow]:
    """``graph``'s edges (of ``edge_type`` only, when given) in edge
    order, read from its ``edge_table()``."""
    table = graph.edge_table()
    nodes, names = graph.nodes, table.type_names
    rows = [
        EdgeRow(nodes[u], nodes[v], names[code], weight)
        for (u, v), code, weight in zip(
            table.ends.tolist(),
            table.type_codes.tolist(),
            table.weights.tolist(),
        )
    ]
    if edge_type is None:
        return rows
    return [row for row in rows if row.edge_type == edge_type]


class PlainGraph:
    """Nodes in insertion order, edges as ``(u, v, type, weight)``
    tuples, and per-node ``(neighbour, weight, type)`` incident lists."""

    def __init__(self) -> None:
        self.nodes: list = []
        self.node_type: dict = {}
        self.edges: list[tuple] = []
        self.adj: dict[object, list[tuple]] = {}

    def add_node(self, node, node_type: str) -> None:
        existing = self.node_type.get(node)
        if existing is not None:
            if existing != node_type:
                raise ValueError(
                    f"node {node!r} already has type {existing!r}; "
                    f"cannot retype it to {node_type!r}"
                )
            return
        self.node_type[node] = node_type
        self.nodes.append(node)
        self.adj[node] = []

    def add_edge(self, u, v, edge_type: str, weight: float) -> None:
        self.edges.append((u, v, edge_type, weight))
        self.adj[u].append((v, weight, edge_type))
        self.adj[v].append((u, weight, edge_type))

    @classmethod
    def from_edges(cls, edges, node_types) -> "PlainGraph":
        graph = cls()
        for node, node_type in node_types.items():
            graph.add_node(node, node_type)
        for u, v, edge_type, weight in edges:
            graph.add_edge(u, v, edge_type, weight)
        return graph

    def subgraph_of_edges(self, edges) -> "PlainGraph":
        """Endpoints in first-appearance order, ``u`` then ``v``."""
        sub = PlainGraph()
        for u, v, edge_type, weight in edges:
            sub.add_node(u, self.node_type[u])
            sub.add_node(v, self.node_type[v])
            sub.add_edge(u, v, edge_type, weight)
        return sub

    def subgraph_of_nodes(self, keep) -> "PlainGraph":
        """Nodes and edges in this graph's order."""
        sub = PlainGraph()
        for node in self.nodes:
            if node in keep:
                sub.add_node(node, self.node_type[node])
        for u, v, edge_type, weight in self.edges:
            if u in keep and v in keep:
                sub.add_edge(u, v, edge_type, weight)
        return sub


def views(graph: PlainGraph) -> list[tuple[str, PlainGraph]]:
    """Definition 2: one ``(edge_type, subgraph)`` per edge type, by name."""
    types = sorted({edge[2] for edge in graph.edges})
    return [
        (t, graph.subgraph_of_edges([e for e in graph.edges if e[2] == t]))
        for t in types
    ]


def view_pairs(views_) -> list[tuple[int, int, frozenset]]:
    """Definition 3: ``(i, j, common nodes)`` for views sharing a node."""
    pairs = []
    for a in range(len(views_)):
        for b in range(a + 1, len(views_)):
            common = set(views_[a][1].nodes) & set(views_[b][1].nodes)
            if common:
                pairs.append((a, b, frozenset(common)))
    return pairs


def paired_subviews(view: PlainGraph, common) -> PlainGraph:
    """Definition 5 on one side: the common nodes and their neighbours."""
    shared = [node for node in view.nodes if node in common]
    keep = set(shared)
    for node in shared:
        keep.update(nbr for nbr, _, _ in view.adj[node])
    return view.subgraph_of_nodes(keep)


def csr(graph: PlainGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, weights)`` filled slot by slot."""
    index = {node: i for i, node in enumerate(graph.nodes)}
    degrees = [len(graph.adj[node]) for node in graph.nodes]
    indptr = np.zeros(len(graph.nodes) + 1, dtype=np.int64)
    np.cumsum(np.array(degrees, dtype=np.int64), out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    weights = np.empty(int(indptr[-1]), dtype=np.float64)
    pos = 0
    for node in graph.nodes:
        for nbr, weight, _ in graph.adj[node]:
            indices[pos] = index[nbr]
            weights[pos] = weight
            pos += 1
    return indptr, indices, weights


def load(path: str | Path) -> PlainGraph:
    """The TSV loader record by record; a bad record raises at once, so
    the error is the first bad record in file order."""
    path = Path(path)
    graph = PlainGraph()
    with path.open() as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{line_number}"
            parts = line.split("\t")
            kind = parts[0]
            if kind == "node":
                if len(parts) != 3:
                    raise ValueError(
                        f"{where}: node records need 3 fields "
                        f"(node_id, node_type), got {len(parts)}"
                    )
                try:
                    graph.add_node(parts[1], parts[2])
                except ValueError as error:
                    raise ValueError(f"{where}: {error}") from None
            elif kind == "edge":
                if len(parts) != 5:
                    raise ValueError(
                        f"{where}: edge records need 5 fields "
                        f"(u, v, edge_type, weight), got {len(parts)}"
                    )
                _, u, v, edge_type, field = parts
                try:
                    weight = float(field)
                except ValueError:
                    raise ValueError(
                        f"{where}: edge weight {field!r} is not a number"
                    ) from None
                if not (math.isfinite(weight) and weight > 0):
                    raise ValueError(
                        f"{where}: edge weight must be finite and "
                        f"positive, got {weight}"
                    )
                if u == v:
                    raise ValueError(
                        f"{where}: self loops are not allowed (node {u!r})"
                    )
                for node in (u, v):
                    if node not in graph.node_type:
                        raise ValueError(
                            f"{where}: unknown node {node!r}; its node "
                            "record must come before its first edge"
                        )
                graph.add_edge(u, v, edge_type, weight)
            else:
                raise ValueError(
                    f"{where}: unknown record kind {kind!r} "
                    "(expected 'node' or 'edge')"
                )
    return graph

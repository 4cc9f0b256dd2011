"""Dataset statistics in the shape of Table II of the paper."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.graph.heterograph import HeteroGraph


@dataclass(frozen=True)
class GraphStatistics:
    """One row of Table II.

    Attributes:
        name: dataset name.
        num_nodes: |V|.
        num_edges: |E|.
        nodes_per_type: node counts keyed by node type.
        edges_per_type: edge counts keyed by edge type.
        num_labeled: number of labelled nodes (0 when no labels given).
        labeled_type: the node type that carries labels, if any.
        density: 2|E| / (|V| (|V|-1)).
        average_degree: 2|E| / |V|.
    """

    name: str
    num_nodes: int
    num_edges: int
    nodes_per_type: dict[str, int] = field(hash=False)
    edges_per_type: dict[str, int] = field(hash=False)
    num_labeled: int
    labeled_type: str | None
    density: float
    average_degree: float

    def as_row(self) -> dict[str, object]:
        """Flatten into the column layout of Table II."""
        node_types = ", ".join(
            f"{t}({c:,})" for t, c in sorted(self.nodes_per_type.items())
        )
        edge_types = ", ".join(
            f"{t}({c:,})" for t, c in sorted(self.edges_per_type.items())
        )
        labeled = (
            f"{self.labeled_type}({self.num_labeled:,})"
            if self.labeled_type
            else "-"
        )
        return {
            "Dataset": self.name,
            "#Nodes": f"{self.num_nodes:,}",
            "#Edges": f"{self.num_edges:,}",
            "Node Types (#Nodes)": node_types,
            "#Labeled Nodes": labeled,
            "Edge Types (#Edges)": edge_types,
        }


def compute_statistics(
    graph: HeteroGraph,
    name: str = "unnamed",
    labels: dict | None = None,
) -> GraphStatistics:
    """Compute the Table II statistics of ``graph``.

    Args:
        graph: the heterogeneous network.
        labels: optional node-id -> label mapping; label counts and the
            labelled node type are derived from it.
    """
    nodes_per_type = Counter(graph.node_type(n) for n in graph.nodes)
    table = graph.edge_table()
    counts = np.bincount(table.type_codes, minlength=len(table.type_names))
    edges_per_type = dict(zip(table.type_names, counts.tolist()))
    num_labeled = 0
    labeled_type = None
    if labels:
        labeled_nodes = [n for n in labels if graph.has_node(n)]
        num_labeled = len(labeled_nodes)
        if labeled_nodes:
            types = Counter(graph.node_type(n) for n in labeled_nodes)
            labeled_type = types.most_common(1)[0][0]
    n, m = graph.num_nodes, graph.num_edges
    density = (2.0 * m / (n * (n - 1))) if n > 1 else 0.0
    average_degree = (2.0 * m / n) if n else 0.0
    return GraphStatistics(
        name=name,
        num_nodes=n,
        num_edges=m,
        nodes_per_type=dict(nodes_per_type),
        edges_per_type=edges_per_type,
        num_labeled=num_labeled,
        labeled_type=labeled_type,
        density=density,
        average_degree=average_degree,
    )

"""View separation by edge type (Definitions 2-5 of the paper).

TransN splits a heterogeneous network into one view per *edge type*.  Unlike
splitting by node type (as HNE and DMNE do), this guarantees that no view
contains isolated nodes: a view is the subgraph induced by all edges of one
type, so every node of the view is the end-node of at least one edge
(Figure 2(c) of the paper).

Every view is either a *homo-view* (one node type, one edge type) or a
*heter-view* (two node types, one edge type), because an edge type
implicitly constrains its end-nodes' types (Definition 4).

Two views form a *view-pair* when they share at least one node
(Definition 3); the shared nodes are the bridges along which the cross-view
algorithm transfers information.  For each view-pair the cross-view
algorithm works on *paired-subviews* (Definition 5): the subgraphs induced
by the common nodes together with their neighbours inside each view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.heterograph import HeteroGraph, NodeId


@dataclass(frozen=True)
class View:
    """The i-th view phi_i = {V_i, E_i} of a heterogeneous network.

    Attributes:
        edge_type: the edge type that induced this view.
        graph: the induced subgraph (all edges of ``edge_type`` plus their
            end-nodes, with node types inherited from the parent network).
    """

    edge_type: str
    graph: HeteroGraph

    @property
    def nodes(self) -> frozenset[NodeId]:
        """The node set V_i."""
        return frozenset(self.graph.nodes)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def is_homo(self) -> bool:
        """True for a homo-view (single node type, Definition 4)."""
        return len(self.graph.node_types) == 1

    @property
    def is_heter(self) -> bool:
        """True for a heter-view (two node types, Definition 4)."""
        return len(self.graph.node_types) == 2

    def __repr__(self) -> str:
        kind = "homo" if self.is_homo else "heter"
        return (
            f"View(edge_type={self.edge_type!r}, kind={kind}, "
            f"nodes={self.num_nodes}, edges={self.num_edges})"
        )


@dataclass(frozen=True)
class ViewPair:
    """A view-pair eta_{i,j}: two views sharing at least one node."""

    view_i: View
    view_j: View
    common_nodes: frozenset[NodeId] = field(repr=False)

    @property
    def key(self) -> tuple[str, str]:
        """The (edge_type_i, edge_type_j) identifier of this pair."""
        return (self.view_i.edge_type, self.view_j.edge_type)

    def __repr__(self) -> str:
        return (
            f"ViewPair({self.view_i.edge_type!r} <-> "
            f"{self.view_j.edge_type!r}, common={len(self.common_nodes)})"
        )


def separate_views(graph: HeteroGraph) -> list[View]:
    """Split ``graph`` into one view per edge type (Definition 2).

    The returned views partition the edge set: their edge sets are disjoint
    and their union is E (Equation 1 of the paper).  Views are ordered by
    edge-type name for determinism; each keeps its edges in graph order
    and lists its nodes in first-appearance order (``u``, then ``v``, per
    edge).  A view is one type mask over the edge table.
    """
    if graph.num_edges == 0:
        raise ValueError("cannot separate views of a graph with no edges")
    table = graph.edge_table()
    return [
        View(
            edge_type,
            graph.subgraph_of_edge_mask(
                table.type_codes == table.type_names.index(edge_type)
            ),
        )
        for edge_type in sorted(table.type_names)
    ]


def build_view_pairs(views: list[View]) -> list[ViewPair]:
    """All view-pairs (Definition 3) among ``views``, in deterministic order.

    A pair is included only when the two views share at least one node —
    information transfer only makes sense across shared nodes.
    """
    pairs = []
    for a in range(len(views)):
        for b in range(a + 1, len(views)):
            common = views[a].nodes & views[b].nodes
            if common:
                pairs.append(ViewPair(views[a], views[b], frozenset(common)))
    return pairs


def paired_subviews(pair: ViewPair) -> tuple[View, View]:
    """Reduce a view-pair to its paired-subviews (Definition 5).

    Definition 5 writes the node set as ``M_ij ∩ A_ij`` but describes it in
    prose as "the common nodes (and their neighbor nodes)"; since every
    common node trivially has a neighbour inside each view (views have no
    isolated nodes) the intersection reading would collapse to a subset of
    M_ij and discard the neighbours the prose keeps.  We therefore implement
    the union ``M_ij ∪ A_ij``: the common nodes plus all nodes adjacent to a
    common node, inside each view separately.

    The reduction is two masks over each view's edge table: the common
    nodes, widened by every endpoint of an edge that touches one; the
    subview keeps the view's node and edge order.
    """
    subviews = []
    for view in (pair.view_i, pair.view_j):
        graph = view.graph
        shared = np.zeros(graph.num_nodes, dtype=bool)
        indices = graph.indices_of(pair.common_nodes)
        shared[indices[indices >= 0]] = True
        ends = graph.edge_table().ends
        keep = shared.copy()
        keep[ends[shared[ends].any(axis=1)]] = True
        sub = graph.subgraph_of_node_mask(keep)
        subviews.append(View(view.edge_type, sub))
    return subviews[0], subviews[1]

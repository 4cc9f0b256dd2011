"""Typed, weighted, undirected heterogeneous graph (Definition 1).

A :class:`HeteroGraph` stores nodes identified by arbitrary hashable IDs.
Every node has exactly one node type and every edge has exactly one edge
type plus a strictly positive weight.  The structure is append-only (nodes
and edges can be added but not removed); the evaluation pipelines that need
edge removal (e.g. link prediction) build a new graph instead, which keeps
the adjacency caches trivially consistent.

Internally nodes are mapped to dense integer indices so that the random-walk
and embedding code can work with numpy arrays throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

NodeId = Hashable


@dataclass(frozen=True)
class Edge:
    """A single undirected edge.

    ``u`` and ``v`` are node IDs; the edge is stored once with ``u`` and
    ``v`` in insertion order but represents the unordered pair ``{u, v}``.
    """

    u: NodeId
    v: NodeId
    edge_type: str
    weight: float = 1.0

    def endpoints(self) -> tuple[NodeId, NodeId]:
        """Return the unordered endpoints in insertion order."""
        return (self.u, self.v)

    def other(self, node: NodeId) -> NodeId:
        """Return the endpoint that is not ``node``.

        Raises:
            ValueError: if ``node`` is not an endpoint of this edge.
        """
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"node {node!r} is not an endpoint of {self!r}")


class HeteroGraph:
    """An undirected heterogeneous network G = {V, E, C_V, C_E}.

    Example:
        >>> g = HeteroGraph()
        >>> g.add_node("a1", "author")
        >>> g.add_node("p1", "paper")
        >>> g.add_edge("a1", "p1", "authorship", weight=1.0)
        >>> g.num_nodes, g.num_edges
        (2, 1)
        >>> sorted(g.node_types), sorted(g.edge_types)
        (['author', 'paper'], ['authorship'])
    """

    def __init__(self) -> None:
        self._node_type: dict[NodeId, str] = {}
        self._index: dict[NodeId, int] = {}
        self._nodes: list[NodeId] = []
        self._edges: list[Edge] = []
        # adjacency: node id -> list of (neighbor id, weight, edge type)
        self._adj: dict[NodeId, list[tuple[NodeId, float, str]]] = {}
        self._edge_types: set[str] = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, node_type: str) -> None:
        """Add ``node`` with the given type.

        Re-adding an existing node with the same type is a no-op; re-adding
        it with a different type raises ``ValueError`` because a node has
        exactly one type in Definition 1.
        """
        existing = self._node_type.get(node)
        if existing is not None:
            if existing != node_type:
                raise ValueError(
                    f"node {node!r} already has type {existing!r}; "
                    f"cannot retype it to {node_type!r}"
                )
            return
        self._node_type[node] = node_type
        self._index[node] = len(self._nodes)
        self._nodes.append(node)
        self._adj[node] = []

    def add_edge(
        self,
        u: NodeId,
        v: NodeId,
        edge_type: str,
        weight: float = 1.0,
        u_type: str | None = None,
        v_type: str | None = None,
    ) -> None:
        """Add an undirected edge of the given type and weight.

        If ``u_type``/``v_type`` are provided, missing endpoints are created
        on the fly; otherwise both endpoints must already exist.

        Raises:
            ValueError: on non-positive weight, self loops, or unknown
                endpoints when no type is given.
        """
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        if u == v:
            raise ValueError(f"self loops are not allowed (node {u!r})")
        if u_type is not None:
            self.add_node(u, u_type)
        if v_type is not None:
            self.add_node(v, v_type)
        if u not in self._node_type:
            raise ValueError(f"unknown node {u!r}; add it first or pass u_type")
        if v not in self._node_type:
            raise ValueError(f"unknown node {v!r}; add it first or pass v_type")
        self._edges.append(Edge(u, v, edge_type, weight))
        self._adj[u].append((v, weight, edge_type))
        self._adj[v].append((u, weight, edge_type))
        self._edge_types.add(edge_type)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[NodeId, NodeId, str, float]],
        node_types: Mapping[NodeId, str],
    ) -> "HeteroGraph":
        """Build a graph from ``(u, v, edge_type, weight)`` tuples.

        Every endpoint must appear in ``node_types``.  Isolated nodes can be
        included by listing them in ``node_types`` without any edge.
        """
        graph = cls()
        for node, node_type in node_types.items():
            graph.add_node(node, node_type)
        for u, v, edge_type, weight in edges:
            graph.add_edge(u, v, edge_type, weight)
        return graph

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def nodes(self) -> Sequence[NodeId]:
        """All node IDs in insertion order."""
        return tuple(self._nodes)

    @property
    def edges(self) -> Sequence[Edge]:
        """All edges in insertion order."""
        return tuple(self._edges)

    @property
    def node_types(self) -> frozenset[str]:
        """The set C_V of node types present in the graph."""
        return frozenset(self._node_type.values())

    @property
    def edge_types(self) -> frozenset[str]:
        """The set C_E of edge types present in the graph."""
        return frozenset(self._edge_types)

    def has_node(self, node: NodeId) -> bool:
        return node in self._node_type

    def node_type(self, node: NodeId) -> str:
        """Return the type zeta(v) of ``node``."""
        try:
            return self._node_type[node]
        except KeyError:
            raise KeyError(f"unknown node {node!r}") from None

    def index_of(self, node: NodeId) -> int:
        """Return the dense integer index of ``node`` (stable, 0-based)."""
        try:
            return self._index[node]
        except KeyError:
            raise KeyError(f"unknown node {node!r}") from None

    def node_at(self, index: int) -> NodeId:
        """Inverse of :meth:`index_of`."""
        return self._nodes[index]

    def indices_of(
        self, nodes: Iterable[NodeId], missing: int = -1
    ) -> np.ndarray:
        """Dense index array for a sequence of nodes in one pass.

        Unknown nodes map to ``missing`` instead of raising, which makes
        the result directly usable as a gather table (the cross-view
        trainer re-bases whole walk matrices through these).
        """
        nodes = nodes if isinstance(nodes, (list, tuple)) else list(nodes)
        get = self._index.get
        return np.fromiter(
            (get(node, missing) for node in nodes),
            dtype=np.int64,
            count=len(nodes),
        )

    def degree(self, node: NodeId) -> int:
        """Number of incident edges (parallel edges counted separately)."""
        return len(self._adj[node])

    def weighted_degree(self, node: NodeId) -> float:
        """Sum of incident edge weights."""
        return sum(weight for _, weight, _ in self._adj[node])

    def neighbors(self, node: NodeId) -> list[NodeId]:
        """Neighbor IDs of ``node`` (with multiplicity for parallel edges)."""
        return [nbr for nbr, _, _ in self._adj[node]]

    def incident(self, node: NodeId) -> list[tuple[NodeId, float, str]]:
        """Incident ``(neighbor, weight, edge_type)`` triples of ``node``."""
        return list(self._adj[node])

    def nodes_of_type(self, node_type: str) -> list[NodeId]:
        """All node IDs whose type equals ``node_type``."""
        return [n for n in self._nodes if self._node_type[n] == node_type]

    def edges_of_type(self, edge_type: str) -> list[Edge]:
        """All edges whose type equals ``edge_type``."""
        return [e for e in self._edges if e.edge_type == edge_type]

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """True if any edge connects ``u`` and ``v`` (any type)."""
        if u not in self._adj or v not in self._adj:
            return False
        # iterate over the smaller adjacency list
        if len(self._adj[u]) > len(self._adj[v]):
            u, v = v, u
        return any(nbr == v for nbr, _, _ in self._adj[u])

    def edge_weight(self, u: NodeId, v: NodeId) -> float:
        """Total weight between ``u`` and ``v`` summed over parallel edges.

        Raises:
            KeyError: if no edge connects the two nodes.
        """
        total = 0.0
        found = False
        for nbr, weight, _ in self._adj[u]:
            if nbr == v:
                total += weight
                found = True
        if not found:
            raise KeyError(f"no edge between {u!r} and {v!r}")
        return total

    def __contains__(self, node: NodeId) -> bool:
        return self.has_node(node)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        return (
            f"HeteroGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"node_types={sorted(self.node_types)}, "
            f"edge_types={sorted(self.edge_types)})"
        )

    def __getstate__(self) -> dict:
        # never serialize the cached CSRAdjacency (the attribute name is
        # owned by repro.graph.csr, which imports this module): the cache
        # identifies itself by graph identity, which pickling breaks, and
        # a saved graph must not drag flattened adjacency/alias arrays
        # along — the unpickled graph rebuilds them on first use
        state = dict(self.__dict__)
        state.pop("_csr_adjacency_cache", None)
        return state

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph_of_edges(self, edges: Iterable[Edge]) -> "HeteroGraph":
        """Graph induced by ``edges`` and their endpoints.

        Node types are inherited from this graph.  This is the primitive
        behind view separation (Definition 2) and paired-subviews
        (Definition 5).
        """
        sub = HeteroGraph()
        for edge in edges:
            sub.add_edge(
                edge.u,
                edge.v,
                edge.edge_type,
                edge.weight,
                u_type=self._node_type[edge.u],
                v_type=self._node_type[edge.v],
            )
        return sub

    def subgraph_of_nodes(self, nodes: Iterable[NodeId]) -> "HeteroGraph":
        """Graph induced by ``nodes`` and all edges between them."""
        keep = set(nodes)
        sub = HeteroGraph()
        for node in self._nodes:
            if node in keep:
                sub.add_node(node, self._node_type[node])
        for edge in self._edges:
            if edge.u in keep and edge.v in keep:
                sub.add_edge(edge.u, edge.v, edge.edge_type, edge.weight)
        return sub

    def without_edges(self, removed: Iterable[Edge]) -> "HeteroGraph":
        """A copy of this graph with the given edges removed.

        Nodes are all kept (possibly isolated) so that every node still has
        an embedding after training on the reduced graph — exactly what the
        link-prediction protocol of Section IV-B2 needs.
        """
        removed_set = set(id(e) for e in removed)
        sub = HeteroGraph()
        for node in self._nodes:
            sub.add_node(node, self._node_type[node])
        for edge in self._edges:
            if id(edge) not in removed_set:
                sub.add_edge(edge.u, edge.v, edge.edge_type, edge.weight)
        return sub

    def to_networkx(self):
        """Export to a ``networkx.MultiGraph`` (for inspection/debugging)."""
        import networkx as nx

        nxg = nx.MultiGraph()
        for node in self._nodes:
            nxg.add_node(node, node_type=self._node_type[node])
        for edge in self._edges:
            nxg.add_edge(
                edge.u, edge.v, edge_type=edge.edge_type, weight=edge.weight
            )
        return nxg

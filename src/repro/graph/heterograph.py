"""Typed, weighted, undirected heterogeneous graph (Definition 1).

A :class:`HeteroGraph` stores nodes identified by arbitrary hashable IDs.
Every node has exactly one node type and every edge has exactly one edge
type plus a finite, strictly positive weight.  The structure is
append-only (nodes and edges can be added but not removed); the
evaluation pipelines that need edge removal (e.g. link prediction) build
a new graph instead, which keeps the adjacency caches trivially
consistent.

Internally nodes are mapped to dense integer indices, and the edges live
in one table of columns (:class:`EdgeTable`): endpoint indices, an
edge-type code and a weight per edge, in insertion order.  Views,
paired-subviews and the CSR layout are built from these columns with
array operations; :class:`Edge` objects and per-node incident lists are
derived from them on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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


class EdgeTable(NamedTuple):
    """Read-only column views of a graph's edges, in insertion order.

    Attributes:
        ends: ``(E, 2)`` int64 endpoint indices, ``u`` then ``v``; its
            ravel is the interleaved ``[u0, v0, u1, v1, ...]`` sequence.
        type_codes: ``(E,)`` int64; edge ``e`` has type
            ``type_names[type_codes[e]]``.
        weights: ``(E,)`` float64.
        type_names: edge-type names in code order; every name has at
            least one edge.
    """

    ends: np.ndarray
    type_codes: np.ndarray
    weights: np.ndarray
    type_names: tuple[str, ...]


def _first_appearance(ends: np.ndarray) -> np.ndarray:
    """The distinct node indices of ``ends`` in first-appearance order
    (``u``, then ``v``, per edge row)."""
    found, first = np.unique(ends.ravel(), return_index=True)
    return found[np.argsort(first)]


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


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
        # edge columns; rows past _num_edges are spare capacity
        self._num_edges = 0
        self._ends = np.empty((0, 2), dtype=np.int64)
        self._type_codes = np.empty(0, dtype=np.int64)
        self._weights = np.empty(0, dtype=np.float64)
        self._type_names: list[str] = []
        self._type_code: dict[str, int] = {}
        # derived on demand, see _edge_objects and incidence
        self._edge_list: list[Edge] = []
        self._incidence_cache: tuple | None = None

    @classmethod
    def _from_columns(
        cls,
        nodes: Sequence[NodeId],
        node_types: Sequence[str],
        ends: np.ndarray,
        type_codes: np.ndarray,
        weights: np.ndarray,
        type_names: Sequence[str],
    ) -> "HeteroGraph":
        """A graph straight from columns the caller has already checked:
        distinct ``nodes``, in-range endpoint indices without self loops,
        finite positive weights.  Type names without an edge are dropped
        and the remaining codes renumbered in their order."""
        graph = cls()
        graph._nodes = list(nodes)
        graph._node_type = dict(zip(graph._nodes, node_types))
        graph._index = dict(zip(graph._nodes, range(len(graph._nodes))))
        type_codes = np.asarray(type_codes, dtype=np.int64)
        present = np.unique(type_codes)
        if present.size < len(type_names):
            renumber = np.zeros(len(type_names), dtype=np.int64)
            renumber[present] = np.arange(present.size)
            type_codes = renumber[type_codes]
            type_names = [type_names[code] for code in present.tolist()]
        graph._num_edges = type_codes.size
        graph._ends = np.array(ends, dtype=np.int64).reshape(-1, 2)
        graph._type_codes = np.array(type_codes, dtype=np.int64)
        graph._weights = np.array(weights, dtype=np.float64)
        graph._type_names = list(type_names)
        graph._type_code = {name: k for k, name in enumerate(type_names)}
        return graph

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
            ValueError: on a non-finite or non-positive weight, self
                loops, or unknown endpoints when no type is given.
        """
        if not (math.isfinite(weight) and weight > 0):
            raise ValueError(
                f"edge weight must be finite and positive, got {weight}"
            )
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
        code = self._type_code.get(edge_type)
        if code is None:
            code = self._type_code[edge_type] = len(self._type_names)
            self._type_names.append(edge_type)
        e = self._num_edges
        if e == self._weights.size:
            self._grow(max(2 * e, 16))
        self._ends[e] = (self._index[u], self._index[v])
        self._type_codes[e] = code
        self._weights[e] = weight
        self._num_edges = e + 1

    def _grow(self, capacity: int) -> None:
        """Reallocate the edge columns to hold ``capacity`` rows."""
        e = self._num_edges
        for name in ("_ends", "_type_codes", "_weights"):
            old = getattr(self, name)
            new = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            new[:e] = old[:e]
            setattr(self, name, new)

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
    # the edge table and what is derived from it
    # ------------------------------------------------------------------
    def edge_table(self) -> EdgeTable:
        """The edge columns as read-only views (see :class:`EdgeTable`).

        The views stay valid, and unchanged, when the graph grows later.
        """
        e = self._num_edges
        return EdgeTable(
            _read_only(self._ends[:e]),
            _read_only(self._type_codes[:e]),
            _read_only(self._weights[:e]),
            tuple(self._type_names),
        )

    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, slots)``: every node's incident edges, in index space.

        ``slots`` is the stable argsort of the interleaved endpoints
        ``edge_table().ends.ravel()``, so node ``i``'s incident edges are
        the positions ``p`` in ``slots[indptr[i]:indptr[i + 1]]``, in
        insertion order: edge ``p >> 1``, neighbour ``ends.ravel()[p ^ 1]``.
        Built on first use and rebuilt after the graph grows.
        """
        key = (len(self._nodes), self._num_edges)
        cache = self._incidence_cache
        if cache is None or cache[0] != key:
            ends = self._ends[: self._num_edges].ravel()
            indptr = np.zeros(key[0] + 1, dtype=np.int64)
            np.cumsum(np.bincount(ends, minlength=key[0]), out=indptr[1:])
            slots = np.argsort(ends, kind="stable")
            cache = self._incidence_cache = (
                key,
                _read_only(indptr),
                _read_only(slots),
            )
        return cache[1], cache[2]

    def _edge_objects(self) -> list[Edge]:
        """The :class:`Edge` objects, made once per edge on first use, so
        repeated :attr:`edges` calls hand out the same objects."""
        edges = self._edge_list
        first, stop = len(edges), self._num_edges
        if first < stop:
            nodes, names = self._nodes, self._type_names
            edges.extend(
                Edge(nodes[u], nodes[v], names[code], weight)
                for (u, v), code, weight in zip(
                    self._ends[first:stop].tolist(),
                    self._type_codes[first:stop].tolist(),
                    self._weights[first:stop].tolist(),
                )
            )
        return edges

    def _segment(self, node: NodeId) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbour indices, edge positions)`` of ``node``'s slots."""
        i = self._index[node]
        indptr, slots = self.incidence()
        positions = slots[indptr[i] : indptr[i + 1]]
        ends = self._ends[: self._num_edges].ravel()
        return ends[positions ^ 1], positions >> 1

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def nodes(self) -> Sequence[NodeId]:
        """All node IDs in insertion order."""
        return tuple(self._nodes)

    @property
    def edges(self) -> Sequence[Edge]:
        """All edges in insertion order."""
        return tuple(self._edge_objects())

    @property
    def node_types(self) -> frozenset[str]:
        """The set C_V of node types present in the graph."""
        return frozenset(self._node_type.values())

    @property
    def edge_types(self) -> frozenset[str]:
        """The set C_E of edge types present in the graph."""
        return frozenset(self._type_names)

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
        return np.fromiter(
            map(self._index.get, nodes, repeat(missing)),
            dtype=np.int64,
            count=len(nodes),
        )

    def degree(self, node: NodeId) -> int:
        """Number of incident edges (parallel edges counted separately)."""
        i = self._index[node]
        indptr, _ = self.incidence()
        return int(indptr[i + 1] - indptr[i])

    def weighted_degree(self, node: NodeId) -> float:
        """Sum of incident edge weights."""
        _, edges = self._segment(node)
        return sum(self._weights[edges].tolist())

    def neighbors(self, node: NodeId) -> list[NodeId]:
        """Neighbor IDs of ``node`` (with multiplicity for parallel edges)."""
        nbrs, _ = self._segment(node)
        nodes = self._nodes
        return [nodes[j] for j in nbrs.tolist()]

    def incident(self, node: NodeId) -> list[tuple[NodeId, float, str]]:
        """Incident ``(neighbor, weight, edge_type)`` triples of ``node``."""
        nbrs, edges = self._segment(node)
        nodes, names = self._nodes, self._type_names
        return [
            (nodes[j], weight, names[code])
            for j, weight, code in zip(
                nbrs.tolist(),
                self._weights[edges].tolist(),
                self._type_codes[edges].tolist(),
            )
        ]

    def nodes_of_type(self, node_type: str) -> list[NodeId]:
        """All node IDs whose type equals ``node_type``."""
        return [n for n in self._nodes if self._node_type[n] == node_type]

    def edges_of_type(self, edge_type: str) -> list[Edge]:
        """All edges whose type equals ``edge_type``."""
        code = self._type_code.get(edge_type)
        if code is None:
            return []
        edges = self._edge_objects()
        positions = np.flatnonzero(self._type_codes[: self._num_edges] == code)
        return [edges[e] for e in positions.tolist()]

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """True if any edge connects ``u`` and ``v`` (any type)."""
        if u not in self._index or v not in self._index:
            return False
        nbrs, _ = self._segment(u)
        return bool((nbrs == self._index[v]).any())

    def edge_weight(self, u: NodeId, v: NodeId) -> float:
        """Total weight between ``u`` and ``v`` summed over parallel edges.

        Raises:
            KeyError: if no edge connects the two nodes.
        """
        nbrs, edges = self._segment(u)
        between = edges[nbrs == self._index.get(v, -1)]
        if between.size == 0:
            raise KeyError(f"no edge between {u!r} and {v!r}")
        return sum(self._weights[between].tolist())

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
        # along — the unpickled graph rebuilds them on first use.  The
        # other derived state goes too, and the columns lose their spare
        # capacity.
        state = dict(self.__dict__)
        state.pop("_csr_adjacency_cache", None)
        e = self._num_edges
        state.update(
            _ends=self._ends[:e],
            _type_codes=self._type_codes[:e],
            _weights=self._weights[:e],
            _edge_list=[],
            _incidence_cache=None,
        )
        return state

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def _subgraph(
        self,
        keep: np.ndarray,
        ends: np.ndarray,
        type_codes: np.ndarray,
        weights: np.ndarray,
        type_names: Sequence[str],
    ) -> "HeteroGraph":
        """Graph of this graph's nodes ``keep`` (indices, in that order)
        and the given edge rows, whose endpoints are indices of this
        graph among ``keep``; node types are inherited."""
        local = np.full(len(self._nodes), -1, dtype=np.int64)
        local[keep] = np.arange(keep.size)
        nodes = [self._nodes[i] for i in keep.tolist()]
        return HeteroGraph._from_columns(
            nodes,
            [self._node_type[node] for node in nodes],
            local[ends],
            type_codes,
            weights,
            type_names,
        )

    def subgraph_of_edge_mask(self, mask: np.ndarray) -> "HeteroGraph":
        """Graph induced by the edges where the ``(E,)`` bool ``mask`` is
        set, and their endpoints.

        Edges keep their order; nodes are in first-appearance order
        (``u``, then ``v``, per edge) and inherit their types from this
        graph.  This is view separation's primitive (Definition 2).
        """
        e = self._num_edges
        ends = self._ends[:e][mask]
        return self._subgraph(
            _first_appearance(ends),
            ends,
            self._type_codes[:e][mask],
            self._weights[:e][mask],
            self._type_names,
        )

    def subgraph_of_node_mask(self, mask: np.ndarray) -> "HeteroGraph":
        """Graph induced by the nodes where the ``(V,)`` bool ``mask`` is
        set, and all edges between them.

        Nodes and edges keep this graph's order.  This is the primitive
        behind paired-subviews (Definition 5).
        """
        mask = np.asarray(mask, dtype=bool)
        e = self._num_edges
        inside = mask[self._ends[:e]].all(axis=1)
        return self._subgraph(
            np.flatnonzero(mask),
            self._ends[:e][inside],
            self._type_codes[:e][inside],
            self._weights[:e][inside],
            self._type_names,
        )

    def subgraph_of_edges(self, edges: Iterable[Edge]) -> "HeteroGraph":
        """Graph induced by ``edges`` and their endpoints.

        Node types are inherited from this graph; nodes are in
        first-appearance order, as in :meth:`subgraph_of_edge_mask`.
        """
        edges = list(edges)
        index = self._index
        ends = np.array(
            [(index[e.u], index[e.v]) for e in edges], dtype=np.int64
        ).reshape(-1, 2)
        names = sorted({e.edge_type for e in edges})
        code = {name: k for k, name in enumerate(names)}
        return self._subgraph(
            _first_appearance(ends),
            ends,
            np.array([code[e.edge_type] for e in edges], dtype=np.int64),
            np.array([e.weight for e in edges], dtype=np.float64),
            names,
        )

    def subgraph_of_nodes(self, nodes: Iterable[NodeId]) -> "HeteroGraph":
        """Graph induced by ``nodes`` and all edges between them."""
        mask = np.zeros(len(self._nodes), dtype=bool)
        indices = self.indices_of(nodes)
        mask[indices[indices >= 0]] = True
        return self.subgraph_of_node_mask(mask)

    def without_edges(self, removed: Iterable[Edge]) -> "HeteroGraph":
        """A copy of this graph with the given edges removed.

        ``removed`` must hold edge objects of this graph (from
        :attr:`edges` or :meth:`edges_of_type`).  Nodes are all kept
        (possibly isolated) so that every node still has an embedding
        after training on the reduced graph — exactly what the
        link-prediction protocol of Section IV-B2 needs.
        """
        removed_ids = {id(edge) for edge in removed}
        e = self._num_edges
        kept = np.fromiter(
            (id(edge) not in removed_ids for edge in self._edge_objects()),
            dtype=bool,
            count=e,
        )
        return self._subgraph(
            np.arange(len(self._nodes)),
            self._ends[:e][kept],
            self._type_codes[:e][kept],
            self._weights[:e][kept],
            self._type_names,
        )

    def to_networkx(self):
        """Export to a ``networkx.MultiGraph`` (for inspection/debugging)."""
        import networkx as nx

        nxg = nx.MultiGraph()
        for node in self._nodes:
            nxg.add_node(node, node_type=self._node_type[node])
        for edge in self._edge_objects():
            nxg.add_edge(
                edge.u, edge.v, edge_type=edge.edge_type, weight=edge.weight
            )
        return nxg

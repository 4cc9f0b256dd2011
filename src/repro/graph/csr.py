"""Flat CSR adjacency shared by every walk engine.

The walkers used to build per-node Python lists of neighbour/weight
arrays — one O(V+E) build *per walker*, with per-step indexing going
through list lookups.  This module stores the same information once per
graph in four flat arrays (the classic CSR layout):

- ``indptr``  (V+1,) — node ``i``'s incident edges live in the half-open
  slot range ``indptr[i]:indptr[i+1]``;
- ``indices`` (2E,)  — neighbour index per slot;
- ``weights`` (2E,)  — edge weight per slot;

plus three per-node caches the walkers need on every step: ``degrees``,
``weight_sums`` (the pi_1 normalizer of Equation 6) and ``delta`` (the
incident-weight spread of Equation 7).

Alias tables for O(1) pi_1 draws are *flattened* into two slot-aligned
arrays (``alias_prob``/``alias_local``) so that a single gather serves an
arbitrary batch of current nodes.  They are built lazily on first access:
uniform walkers never touch weights, so they never pay for the tables.

Type-indexed column views serve the pluggable walk policies
(:mod:`repro.walks.policies`): ``node_type_codes`` maps every node to a
dense type code, ``slot_type_codes``/``slot_edge_type_codes`` annotate
every CSR slot with the neighbour's node-type code and the edge's
edge-type code, and ``edge_keys`` is a sorted packed-pair table enabling
vectorized "is (u, v) an edge?" membership tests (the second-order
node2vec distance-1 check).  All of them are lazy: policies that never
look at types never pay for the columns.

One instance is cached per graph (:func:`csr_adjacency`); every walker —
scalar or batched — over the same graph shares the same build.
"""

from __future__ import annotations

import numpy as np

from repro.graph.alias import AliasSampler
from repro.graph.heterograph import HeteroGraph

_CACHE_ATTR = "_csr_adjacency_cache"


class CSRAdjacency:
    """Flat adjacency arrays of one :class:`HeteroGraph` in index space."""

    def __init__(self, graph: HeteroGraph) -> None:
        self.graph = graph
        n = graph.num_nodes
        degrees = np.fromiter(
            (graph.degree(node) for node in graph.nodes),
            dtype=np.int64,
            count=n,
        )
        self.degrees = degrees
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=self.indptr[1:])
        num_slots = int(self.indptr[-1])
        self.indices = np.empty(num_slots, dtype=np.int64)
        self.weights = np.empty(num_slots, dtype=np.float64)
        index_of = graph.index_of
        pos = 0
        for node in graph.nodes:
            for nbr, weight, _ in graph.incident(node):
                self.indices[pos] = index_of(nbr)
                self.weights[pos] = weight
                pos += 1

        # per-node reductions over the weight segments
        self.weight_sums = np.zeros(n, dtype=np.float64)
        self.delta = np.zeros(n, dtype=np.float64)
        nonempty = degrees > 0
        if num_slots:
            starts = self.indptr[:-1][nonempty]
            self.weight_sums[nonempty] = np.add.reduceat(self.weights, starts)
            self.delta[nonempty] = np.maximum.reduceat(
                self.weights, starts
            ) - np.minimum.reduceat(self.weights, starts)

        self._alias: tuple[np.ndarray, np.ndarray] | None = None
        self._node_types: tuple[np.ndarray, tuple[str, ...]] | None = None
        self._slot_type_codes: np.ndarray | None = None
        self._slot_edge_types: tuple[np.ndarray, tuple[str, ...]] | None = None
        self._edge_keys: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.degrees.size

    def neighbors(self, i: int) -> np.ndarray:
        """Neighbour indices of node ``i`` (a CSR segment view)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def segment_weights(self, i: int) -> np.ndarray:
        """Incident weights of node ``i`` (a CSR segment view)."""
        return self.weights[self.indptr[i] : self.indptr[i + 1]]

    # ------------------------------------------------------------------
    def alias_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Slot-aligned ``(alias_prob, alias_local)``, built on first use.

        For node ``i`` with degree ``d``, drawing ``slot ~ U{0..d-1}`` and
        ``coin ~ U[0,1)`` then picking ``slot`` if
        ``coin < alias_prob[indptr[i] + slot]`` else
        ``alias_local[indptr[i] + slot]`` yields a neighbour *slot*
        distributed proportionally to the segment's weights — the alias
        method, gatherable for whole batches of current nodes at once.
        """
        if self._alias is None:
            prob = np.ones(self.weights.size, dtype=np.float64)
            local = np.zeros(self.weights.size, dtype=np.int64)
            for i in np.flatnonzero(self.degrees):
                lo, hi = self.indptr[i], self.indptr[i + 1]
                segment = self.weights[lo:hi]
                prob[lo:hi], local[lo:hi] = AliasSampler._build(
                    segment / segment.sum()
                )
            self._alias = (prob, local)
        return self._alias

    @property
    def alias_built(self) -> bool:
        """Whether the lazy alias tables exist yet (for tests)."""
        return self._alias is not None

    # -- type-indexed column views (lazy) ------------------------------
    def _type_table(self) -> tuple[np.ndarray, tuple[str, ...]]:
        if self._node_types is None:
            graph = self.graph
            names = tuple(sorted(graph.node_types))
            code = {name: k for k, name in enumerate(names)}
            codes = np.fromiter(
                (code[graph.node_type(node)] for node in graph.nodes),
                dtype=np.int64,
                count=self.num_nodes,
            )
            self._node_types = (codes, names)
        return self._node_types

    @property
    def type_names(self) -> tuple[str, ...]:
        """Node-type names in code order (``code == position``)."""
        return self._type_table()[1]

    @property
    def node_type_codes(self) -> np.ndarray:
        """(V,) dense node-type code per node index."""
        return self._type_table()[0]

    def type_code(self, name: str) -> int:
        """The dense code of node type ``name``."""
        try:
            return self.type_names.index(name)
        except ValueError:
            raise KeyError(
                f"unknown node type {name!r}; graph has {self.type_names}"
            ) from None

    @property
    def slot_type_codes(self) -> np.ndarray:
        """(2E,) node-type code of the *neighbour* in each CSR slot."""
        if self._slot_type_codes is None:
            self._slot_type_codes = self.node_type_codes[self.indices]
        return self._slot_type_codes

    def _edge_type_table(self) -> tuple[np.ndarray, tuple[str, ...]]:
        if self._slot_edge_types is None:
            graph = self.graph
            names = tuple(sorted(graph.edge_types))
            code = {name: k for k, name in enumerate(names)}
            codes = np.empty(self.indices.size, dtype=np.int64)
            pos = 0
            for node in graph.nodes:
                for _, _, edge_type in graph.incident(node):
                    codes[pos] = code[edge_type]
                    pos += 1
            self._slot_edge_types = (codes, names)
        return self._slot_edge_types

    @property
    def edge_type_names(self) -> tuple[str, ...]:
        """Edge-type names in code order (``code == position``)."""
        return self._edge_type_table()[1]

    @property
    def slot_edge_type_codes(self) -> np.ndarray:
        """(2E,) edge-type code of the edge behind each CSR slot."""
        return self._edge_type_table()[0]

    @property
    def edge_keys(self) -> np.ndarray:
        """Sorted packed ``u * V + v`` keys, one per directed slot.

        Supports vectorized adjacency-membership tests
        (:meth:`has_edges`) via binary search — the node2vec
        distance-1 check over whole candidate batches.
        """
        if self._edge_keys is None:
            src = np.repeat(
                np.arange(self.num_nodes, dtype=np.int64), self.degrees
            )
            self._edge_keys = np.sort(
                src * np.int64(self.num_nodes) + self.indices
            )
        return self._edge_keys

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized membership: True where ``(u, v)`` is an edge.

        ``us``/``vs`` are broadcast against each other; both must hold
        valid node indices.
        """
        us, vs = np.broadcast_arrays(
            np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
        )
        keys = us * np.int64(self.num_nodes) + vs
        table = self.edge_keys
        if table.size == 0:
            return np.zeros(keys.shape, dtype=bool)
        pos = np.searchsorted(table, keys)
        found = pos < table.size
        out = np.zeros(keys.shape, dtype=bool)
        out[found] = table[pos[found]] == keys[found]
        return out


def csr_adjacency(graph: HeteroGraph) -> CSRAdjacency:
    """The per-graph cached :class:`CSRAdjacency`.

    Rebuilt only when the (append-only) graph gained nodes or edges since
    the cached build; otherwise every caller shares one instance.
    """
    cached = getattr(graph, _CACHE_ATTR, None)
    if (
        cached is not None
        # identity guard: a cache shared with another graph object (a
        # shallow copy of this one) must not serve it
        and cached.graph is graph
        and cached.num_nodes == graph.num_nodes
        and cached.indices.size == 2 * graph.num_edges
    ):
        return cached
    csr = CSRAdjacency(graph)
    setattr(graph, _CACHE_ATTR, csr)
    return csr


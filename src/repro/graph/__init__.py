"""Heterogeneous graph substrate.

This subpackage provides the typed-graph data structures that every other
part of the reproduction builds on:

- :class:`~repro.graph.heterograph.HeteroGraph` — an undirected graph whose
  nodes carry a node type and whose edges carry an edge type and a finite
  positive weight (Definition 1 of the paper), stored as one edge table.
- :mod:`~repro.graph.views` — view separation by edge type, view-pairs, and
  paired-subviews (Definitions 2-5), as masks over the edge table.
- :class:`~repro.graph.alias.AliasSampler` — O(1) discrete sampling used by
  every random-walk engine.
- :mod:`~repro.graph.csr` — the flat (cached, per-graph) CSR adjacency
  layout shared by the scalar and batched walk engines.
- :mod:`~repro.graph.stats` — dataset statistics in the shape of Table II.
"""

from repro.graph.alias import AliasSampler
from repro.graph.csr import CSRAdjacency, csr_adjacency
from repro.graph.heterograph import HeteroGraph
from repro.graph.io import (
    load_embeddings,
    load_graph,
    save_embeddings,
    save_graph,
)
from repro.graph.stats import GraphStatistics, compute_statistics
from repro.graph.views import (
    View,
    ViewPair,
    build_view_pairs,
    paired_subviews,
    separate_views,
)

__all__ = [
    "AliasSampler",
    "CSRAdjacency",
    "csr_adjacency",
    "HeteroGraph",
    "GraphStatistics",
    "compute_statistics",
    "View",
    "ViewPair",
    "build_view_pairs",
    "paired_subviews",
    "separate_views",
    "save_graph",
    "load_graph",
    "save_embeddings",
    "load_embeddings",
]

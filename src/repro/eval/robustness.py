"""Noise-robustness — extension experiment beyond the paper.

The paper motivates view separation with the observation that individual
views (and, implicitly, real networks) are noisy.  This module measures
that directly: inject a growing fraction of *random* edges of an existing
edge type into the network, retrain, and track classification F1.  A
method that isolates edge types per view should degrade more gracefully
when one type's noise grows than a method that mixes all types into one
context distribution.

``benchmarks/bench_ext_robustness.py`` runs the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.baselines.base import EmbeddingMethod
from repro.eval.node_classification import run_node_classification
from repro.graph.heterograph import HeteroGraph, NodeId


@dataclass(frozen=True)
class RobustnessPoint:
    """One point of the noise sweep."""

    noise_fraction: float
    macro_f1: float
    micro_f1: float
    num_edges: int


def inject_noise_edges(
    graph: HeteroGraph,
    edge_type: str,
    fraction: float,
    seed: int = 0,
) -> HeteroGraph:
    """Copy ``graph`` and add ``fraction * |E_type|`` random edges.

    New edges reuse ``edge_type`` and connect uniformly random node pairs
    whose node types are those of the first edge of that type (so the
    view stays a valid homo-/heter-view).  Weights are drawn uniformly
    from the existing weight range.
    """
    if fraction < 0:
        raise ValueError("fraction must be >= 0")
    table = graph.edge_table()
    if edge_type not in table.type_names:
        raise ValueError(f"graph has no edges of type {edge_type!r}")
    rng = np.random.default_rng(seed)

    of_type = table.type_codes == table.type_names.index(edge_type)
    weights = table.weights[of_type]
    lo, hi = float(weights.min()), float(weights.max())
    first = table.ends[np.argmax(of_type)].tolist()

    # a copy: remove no edge
    noisy = graph.without_edges(np.zeros(graph.num_edges, dtype=bool))

    type_pair = sorted({graph.node_type(graph.node_at(i)) for i in first})
    if len(type_pair) == 1:
        side_a = side_b = graph.nodes_of_type(type_pair[0])
    else:
        side_a = graph.nodes_of_type(type_pair[0])
        side_b = graph.nodes_of_type(type_pair[1])
    num_new = int(round(fraction * weights.size))
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


def run_noise_sweep(
    method_factory: Callable[[], EmbeddingMethod],
    graph: HeteroGraph,
    labels: dict[NodeId, object],
    edge_type: str,
    fractions: list[float],
    seed: int = 0,
    repeats: int = 5,
) -> list[RobustnessPoint]:
    """Retrain and evaluate at each noise fraction."""
    points = []
    for fraction in fractions:
        noisy = (
            graph
            if fraction == 0
            else inject_noise_edges(graph, edge_type, fraction, seed=seed)
        )
        embeddings = method_factory().fit(noisy)
        result = run_node_classification(
            embeddings, labels, repeats=repeats, seed=seed
        )
        points.append(
            RobustnessPoint(
                noise_fraction=fraction,
                macro_f1=result.macro_f1,
                micro_f1=result.micro_f1,
                num_edges=noisy.num_edges,
            )
        )
    return points

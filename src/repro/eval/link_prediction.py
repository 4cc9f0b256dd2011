"""Link prediction (Section IV-B2, Table IV).

Protocol: remove ``removal_fraction`` (paper: 40%) of the edges uniformly
at random; sample an equal number of non-adjacent node pairs as negatives;
train embeddings on the *remaining* subnetwork; score every candidate pair
by the inner product of its end-node embeddings; report ROC-AUC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.baselines.base import EmbeddingMethod
from repro.graph.heterograph import HeteroGraph, NodeId
from repro.ml import roc_auc_score


@dataclass(frozen=True)
class LinkPredictionSplit:
    """A reproducible link-prediction instance."""

    train_graph: HeteroGraph
    positive_pairs: list[tuple[NodeId, NodeId]]
    negative_pairs: list[tuple[NodeId, NodeId]]


@dataclass(frozen=True)
class LinkPredictionResult:
    """AUC of one method on one dataset."""

    auc: float
    num_positive: int
    num_negative: int


def make_split(
    graph: HeteroGraph,
    removal_fraction: float = 0.4,
    seed: int = 0,
) -> LinkPredictionSplit:
    """Build the train graph + positive/negative evaluation pairs.

    The removed edges are ``rng.choice`` draws of edge indices.  Negative
    candidates are drawn as ``(u, v)`` index pairs, ``u`` then ``v``, and
    the first non-adjacent pairs of distinct nodes are kept, at most
    ``100 ×`` as many draws as positives.  Candidates are drawn in chunks
    of one ``rng.integers`` call each; the pairs come out as they would
    one scalar draw at a time.
    """
    if not 0.0 < removal_fraction < 1.0:
        raise ValueError("removal_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    table = graph.edge_table()
    num_edges = graph.num_edges
    num_remove = max(1, int(round(removal_fraction * num_edges)))
    removed_idx = rng.choice(num_edges, size=num_remove, replace=False)
    removed = np.zeros(num_edges, dtype=bool)
    removed[removed_idx] = True
    train_graph = graph.without_edges(removed)

    n = graph.num_nodes
    # one key per edge's unordered pair, sorted for a searchsorted test
    low, high = np.sort(table.ends, axis=1).T
    adjacent = np.sort(low * n + high)
    found: list[np.ndarray] = []
    missing, draws_left = num_remove, 100 * num_remove
    while missing and draws_left:
        size = min(draws_left, 2 * missing + 64)
        pairs = rng.integers(n, size=(size, 2))
        draws_left -= size
        low, high = np.sort(pairs, axis=1).T
        keys = low * n + high
        at = np.minimum(np.searchsorted(adjacent, keys), adjacent.size - 1)
        keep = pairs[(low != high) & (adjacent[at] != keys)][:missing]
        found.append(keep)
        missing -= keep.shape[0]
    if missing:
        raise RuntimeError("could not sample enough non-adjacent pairs")

    ids = np.fromiter(graph.nodes, dtype=object, count=n)

    def named(pairs: np.ndarray) -> list[tuple[NodeId, NodeId]]:
        us, vs = ids[pairs].T.tolist()
        return list(zip(us, vs))

    return LinkPredictionSplit(
        train_graph,
        named(table.ends[removed_idx]),
        named(np.concatenate(found)),
    )


def run_link_prediction(
    method_factory: Callable[[], EmbeddingMethod],
    graph: HeteroGraph,
    removal_fraction: float = 0.4,
    seed: int = 0,
    split: LinkPredictionSplit | None = None,
) -> LinkPredictionResult:
    """Train ``method_factory()`` on the reduced graph and report AUC.

    Passing a precomputed ``split`` lets callers evaluate many methods on
    the identical instance (what the benchmark harness does).
    """
    if split is None:
        split = make_split(graph, removal_fraction, seed)
    method = method_factory()
    embeddings = method.fit(split.train_graph)

    def score(u: NodeId, v: NodeId) -> float:
        return float(np.dot(embeddings[u], embeddings[v]))

    scores = np.array(
        [score(u, v) for u, v in split.positive_pairs]
        + [score(u, v) for u, v in split.negative_pairs]
    )
    truth = np.array(
        [1] * len(split.positive_pairs) + [0] * len(split.negative_pairs)
    )
    return LinkPredictionResult(
        auc=roc_auc_score(truth, scores),
        num_positive=len(split.positive_pairs),
        num_negative=len(split.negative_pairs),
    )

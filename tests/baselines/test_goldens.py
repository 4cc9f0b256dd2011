"""Pinned first-row values of the walk-based baselines.

Like ``tests/core/test_determinism.py`` for TransN: the values pin the
RNG draw order of walks, shuffles and negatives through the shared
corpus pipeline, so a reordering of those draws fails here instead of
silently shifting every baseline number.  They were produced by the
materialized-corpus pipeline that the one-block stream replaced, which
is the evidence that the replacement kept the baselines' bytes.
"""

import numpy as np
import pytest

from repro.baselines import DeepWalk, Metapath2Vec
from repro.datasets import two_view_toy

_KW = dict(dim=8, seed=0, walk_length=10, walks_per_node=4, epochs=3, lr=0.15)

# node "i0", all eight coordinates, rounded to 10 decimals
_GOLDEN = {
    "DeepWalk": (
        lambda: DeepWalk(**_KW),
        [-0.3386253179, 1.1367803839, 0.2585876943, -0.3915686688,
         0.069102841, 0.4252539509, 1.1565970172, 0.6594626903],
        35.45112173660395,
    ),
    "Metapath2Vec": (
        lambda: Metapath2Vec(["item", "tag", "item"], **_KW),
        [-0.1684490118, 0.5130931074, 0.0527002565, 0.0511430186,
         -0.1211822854, 0.2830154358, 0.609850667, 0.4870886785],
        20.7255395317476,
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_first_row_matches_golden(name):
    make, first_row, total = _GOLDEN[name]
    graph, _ = two_view_toy(num_per_side=8)
    embeddings = make().fit(graph)
    np.testing.assert_allclose(embeddings["i0"], first_row, atol=1e-9)
    stacked = np.vstack([embeddings[node] for node in graph.nodes])
    assert float(stacked.sum()) == pytest.approx(total, abs=1e-9)

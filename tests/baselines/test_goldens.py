"""Pinned first-row values of every baseline.

Like ``tests/core/test_determinism.py`` for TransN: the values pin the
RNG draw order of walks, edge samples, shuffles and negatives, so a
reordering of those draws fails here instead of silently shifting every
baseline number.  DeepWalk's and Metapath2Vec's were produced by the
materialized-corpus pipeline that the one-block stream replaced, which
is the evidence that the replacement kept the baselines' bytes; R-GCN's,
SimplE's and HIN2VEC's predate their epochs running as engine phases.
"""

import numpy as np
import pytest

from repro.baselines import (
    LINE,
    MVE,
    RGCN,
    DeepWalk,
    HIN2Vec,
    Metapath2Vec,
    Node2Vec,
    SimplE,
)
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
    "Node2Vec": (
        lambda: Node2Vec(**_KW),
        [-0.331353718, 1.137547612, 0.3370632846, -0.35429015,
         0.1111131049, 0.4407666393, 1.1610379105, 0.6021672628],
        36.783367365977305,
    ),
    "MVE": (
        lambda: MVE(**_KW),
        [-0.272333454, 0.2427106247, 0.1372684455, 0.2310675342,
         0.0550820407, 0.1039242418, 0.4414620173, -0.0592922801],
        13.68637861208666,
    ),
    "HIN2VEC": (
        lambda: HIN2Vec(**_KW),
        [0.0283944987, -0.0480904355, -0.0619921183, -0.0479957013,
         0.0433167175, 0.0530466167, 0.0140252652, 0.0205054662],
        0.037657963737285055,
    ),
    "LINE": (
        lambda: LINE(dim=8, seed=0, num_samples=20_000, lr=0.2),
        [0.1926961385, 1.1267975016, -0.1905892154, -0.7902610134,
         0.2471592765, 0.3104594082, 1.4935216085, 0.6641688559],
        34.982852860466465,
    ),
    "R-GCN": (
        lambda: RGCN(dim=8, seed=0, epochs=10),
        [0.1614930176, -0.3356682808, -0.6161496298, -0.3073730212,
         0.0408202282, 0.3013939815, 0.4619147249, -0.8812761342],
        -9.959655224119572,
    ),
    "SimplE": (
        lambda: SimplE(dim=8, seed=0, epochs=10),
        [0.7127622867, -1.5613993175, -2.1864376971, -1.6903386502,
         -1.3730652068, 1.9485275522, 1.4904525909, -0.826033494],
        16.05243622577715,
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

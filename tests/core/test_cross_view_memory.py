"""Tracemalloc bounds on one cross-view pair epoch under a byte budget.

Without a budget a direction's chunks run as one batch, so a pair epoch
holds activations for ``cross_paths_per_pair × walk_length`` path
positions at once.  Under ``corpus_budget_mb`` the trainer runs them in
micro-batches sized by :func:`repro.engine.pipeline.cross_view_chunks_for_budget`,
and the whole pair epoch — walk sampling included — must peak under the
budget.  Shapes: the benchmark's ``fit-stream`` workload (its 684-node
AMiner graph, d=32, float32, 1000 paths a pair, 1 MiB) and the
published ``paper_scale()`` parameters at 1000 paths under 256 MiB.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.core import TransNConfig
from repro.core.cross_view import CrossViewTrainer
from repro.datasets import AMinerConfig, make_aminer
from repro.graph import build_view_pairs, separate_views

MIB = 1024 * 1024


def _pair_epoch_peak(
    config: TransNConfig, dtype, budget_bytes: int | None
) -> int:
    graph, _ = make_aminer(
        AMinerConfig(
            seed=1, num_authors=300, num_papers=360, num_venues=8,
            num_institutions=12,
        )
    )
    pair = build_view_pairs(separate_views(graph))[0]
    rng = np.random.default_rng(0)
    trainer = CrossViewTrainer(
        pair,
        rng.uniform(-0.1, 0.1, (pair.view_i.num_nodes, config.dim)).astype(dtype),
        rng.uniform(-0.1, 0.1, (pair.view_j.num_nodes, config.dim)).astype(dtype),
        rng=rng,
        dim=config.dim,
        cross_path_len=config.cross_path_len,
        num_encoders=config.num_encoders,
        walk_length=config.walk_length,
        paths_per_epoch=config.cross_paths_per_pair,
        budget_bytes=budget_bytes,
    )
    # build the walkers' CSR/alias caches, which outlive any one epoch
    trainer._sample_chunks(trainer.sub_i, trainer._walker_i, trainer._starts_i)
    trainer._sample_chunks(trainer.sub_j, trainer._walker_j, trainer._starts_j)
    tracemalloc.start()
    try:
        losses = trainer.train_epoch()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert losses.num_paths > 0 and np.isfinite(losses.total)
    return peak


def test_fit_stream_pair_epoch_under_budget():
    config = TransNConfig(cross_paths_per_pair=1000)
    budgeted = _pair_epoch_peak(config, np.float32, MIB)
    assert budgeted <= MIB
    # one batch per direction holds tens of MiB at this shape
    assert _pair_epoch_peak(config, np.float32, None) > 8 * MIB


@pytest.mark.slow
def test_paper_scale_pair_epoch_under_budget():
    config = replace(TransNConfig.paper_scale(), cross_paths_per_pair=1000)
    assert _pair_epoch_peak(config, np.float64, 256 * MIB) <= 256 * MIB

"""The generic lockstep walk engine: one batching loop, any policy.

The scalar walkers in :mod:`repro.walks.walker` advance one walk with one
Python-level step at a time — the dominant cost of Algorithm 1's corpus
resampling.  :class:`LockstepWalker` advances *all* walks of a corpus in
lockstep: every iteration of the step loop asks its
:class:`~repro.walks.policies.WalkPolicy` for one vectorized draw across
the whole batch of active walks, so the per-step cost is a handful of
NumPy gathers instead of a Python loop body per walk.

The engine owns *how* walks advance — the dense walk matrix, lengths,
the live/stuck bookkeeping; the policy owns *what* a step does — the
transition distribution and per-walk state.  Each policy samples exactly
the distribution of its scalar reference (``tests/walks/test_policies.py``
holds the chi-square equivalence evidence per policy).

Walks are returned in *index space* as a dense ``(num_walks, length)``
int64 matrix plus a per-walk length array; slots past a walk's length are
``-1``.  That is precisely the representation
:class:`repro.walks.corpus.WalkCorpus` stores, so corpus construction
never materializes per-walk Python lists.
"""

from __future__ import annotations

import numpy as np

from repro.graph.heterograph import HeteroGraph
from repro.graph.views import View
from repro.walks.policies import WalkPolicy, _resolve_graph

from repro.graph.csr import csr_adjacency

PAD = -1
"""Fill value of walk-matrix slots past a walk's end."""


class LockstepWalker:
    """Executes any :class:`WalkPolicy` over batches of walks in lockstep."""

    def __init__(
        self,
        view_or_graph: View | HeteroGraph,
        policy: WalkPolicy,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.graph = _resolve_graph(view_or_graph)[0]
        self._csr = csr_adjacency(self.graph)
        self.policy = policy.bind(view_or_graph)
        self.rng = rng or np.random.default_rng()

    def _start_state(
        self, starts: np.ndarray, length: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Allocate (matrix, lengths, current, active) for a batch."""
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        if starts.ndim != 1:
            raise ValueError(f"starts must be 1-D, got shape {starts.shape}")
        if length < 1:
            raise ValueError(f"walk length must be >= 1, got {length}")
        matrix = np.full((starts.size, length), PAD, dtype=np.int64)
        matrix[:, 0] = starts
        lengths = np.ones(starts.size, dtype=np.int64)
        active = self._csr.degrees[starts] > 0
        return matrix, lengths, starts.copy(), active

    def walk_batch(
        self,
        starts: np.ndarray,
        length: int,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance ``starts.size`` walks of the bound policy in lockstep.

        Args:
            starts: 1-D int array of start node *indices*.
            length: nodes per walk.  Walks end early at neighbour-less
                nodes or when the policy reports no admissible
                transition (``STUCK``), mirroring the scalar walkers.
            rng: draw from this generator instead of the walker's own —
                the ``workers >= 1`` seed law passes one spawned stream
                per shard through here.

        Returns:
            ``(matrix, lengths)`` — the ``(num_walks, length)`` index
            matrix (``-1`` past each walk's end) and per-walk lengths.
        """
        csr = self._csr
        policy = self.policy
        draw_rng = self.rng if rng is None else rng
        matrix, lengths, current, active = self._start_state(starts, length)
        state = policy.init_state(
            np.ascontiguousarray(starts, dtype=np.int64)
        )
        for step in range(1, length):
            live = np.flatnonzero(active)
            if live.size == 0:
                break
            here = current[live]
            slots = policy.sample_slots(draw_rng, here, live, state)
            stuck = slots < 0
            if stuck.any():
                active[live[stuck]] = False
                live, here, slots = live[~stuck], here[~stuck], slots[~stuck]
                if live.size == 0:
                    continue
            nxt = csr.indices[csr.indptr[here] + slots]
            matrix[live, step] = nxt
            lengths[live] += 1
            current[live] = nxt
            policy.update_state(state, live, here, slots)
            active[live] = csr.degrees[nxt] > 0
        return matrix, lengths

"""Pluggable walk policies: per-step transition logic as vectorized kernels.

ROADMAP item 5.  A :class:`WalkPolicy` owns *what* a walk does at each
step — the transition distribution and whatever per-walk state it needs —
as vectorized operations over the flat :class:`~repro.graph.csr.CSRAdjacency`.
*How* walks advance (the lockstep batching, the dense walk matrix, the
stuck-walk bookkeeping) lives once in
:class:`repro.walks.batched.LockstepWalker`, which executes any policy.

A policy implements two faces of the same distribution:

- :meth:`WalkPolicy.sample_slots` — the fast path: one vectorized draw of
  CSR slot offsets for a whole batch of walks (alias gathers, masked
  row-wise cumsums);
- :meth:`WalkPolicy.slot_probs` — the exact per-slot probability weights
  for a single walk, used by the scalar reference walkers and the
  chi-square equivalence tests.  Both faces share the same weight
  formulas, so scalar/batched equivalence holds by construction.

Policies (see ``docs/walk_policies.md`` for the math):

- :class:`UniformPolicy` — uniform over neighbours (DeepWalk, the
  paper's ``TransN-With-Simple-Walk`` ablation);
- :class:`BiasedCorrelatedPolicy` — the paper's Equations 6-7;
- :class:`Node2VecPolicy` — second-order p/q walks (Grover & Leskovec);
- :class:`MetapathPolicy` — metapath-constrained walks (Dong et al.);
- :class:`HetNode2VecPolicy` — node2vec with type-aware transition
  scaling (Het-node2vec, arXiv:2101.01425);
- :class:`SpaceyMetapathPolicy` — occupancy-reinforced spacey walks
  (HeteSpaceyWalk, arXiv:1909.03228).

The relation-balanced mode (BHIN2vec, arXiv:1912.08925) is not a
per-step policy: it walks with :class:`BiasedCorrelatedPolicy` and
rebalances per-view training shares through
:class:`repro.engine.callbacks.RelationBalancer`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.graph.csr import CSRAdjacency, csr_adjacency
from repro.graph.heterograph import HeteroGraph
from repro.graph.views import View

_PI2_FLOOR = 1e-9
"""pi_2 floor: keeps Equation 7 well-defined when the worst candidate is
the only neighbour (it can reach exactly zero)."""

STUCK = -1
"""Slot value meaning "no admissible transition": the walk ends here."""


def _resolve_graph(
    view_or_graph: View | HeteroGraph,
) -> tuple[HeteroGraph, bool]:
    """Return (graph, is_heter) for a view or a bare graph.

    A bare graph is treated as homogeneous: correlated steps (Equation 7)
    only apply to heter-views.
    """
    if isinstance(view_or_graph, View):
        return view_or_graph.graph, view_or_graph.is_heter
    return view_or_graph, False


# ----------------------------------------------------------------------
# Shared sampling kernels.  These are the *only* implementations of the
# alias draw and the masked-cumsum transition normalizer; scalar walkers,
# batched policies, and the pi_1/pi_2 code paths all call them.
# ----------------------------------------------------------------------
def alias_slot_draw(
    rng: np.random.Generator, csr: CSRAdjacency, here: np.ndarray
) -> np.ndarray:
    """Weight-proportional slot draws (Equation 6) for a batch of nodes.

    One gathered alias sample per walk over the flattened tables:
    ``slot ~ U{0..deg-1}``, then keep it or redirect to its alias local
    depending on one uniform coin.  Every node in ``here`` must have
    degree >= 1.
    """
    prob, local = csr.alias_tables()
    base = csr.indptr[here]
    slot = rng.integers(0, csr.degrees[here])
    coin = rng.random(here.size)
    return np.where(coin < prob[base + slot], slot, local[base + slot])


def padded_segments(
    csr: CSRAdjacency, here: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather per-node CSR segments of ``values`` into a padded matrix.

    Returns ``(matrix, valid, degree)`` where ``matrix`` is
    ``(batch, max_degree)`` (padding cells hold clamped garbage — mask
    with ``valid`` before use) and ``valid`` marks real slots.
    """
    degree = csr.degrees[here]
    width = int(degree.max())
    offsets = np.arange(width, dtype=np.int64)
    slots = csr.indptr[here][:, None] + offsets[None, :]
    valid = offsets[None, :] < degree[:, None]
    matrix = values[np.minimum(slots, values.size - 1)]
    return matrix, valid, degree


def masked_cumsum_draw(
    rng: np.random.Generator,
    probs: np.ndarray,
    valid: np.ndarray,
    degree: np.ndarray,
) -> np.ndarray:
    """One slot draw per row from unnormalized padded distributions.

    The transition normalizer: invalid cells are zeroed, each row is
    inverse-CDF sampled from its masked cumulative sum with a single
    uniform pick.  Rows whose total mass is zero yield :data:`STUCK`.
    """
    probs = np.where(valid, probs, 0.0)
    cumsum = np.cumsum(probs, axis=1)
    total = cumsum[:, -1]
    pick = rng.random(probs.shape[0]) * total
    j = np.minimum((cumsum <= pick[:, None]).sum(axis=1), degree - 1)
    return np.where(total > 0.0, j, STUCK)


# ----------------------------------------------------------------------
# The strategy interface
# ----------------------------------------------------------------------
class WalkPolicy:
    """Per-step transition strategy executed by the lockstep engine.

    A policy is *bound* to one graph (:meth:`bind`) before sampling; the
    engine binds it on construction.  Per-walk state lives in a dict of
    flat arrays indexed by global walk row, created by :meth:`init_state`
    and advanced by :meth:`update_state` — the policy object itself stays
    stateless across batches, so one instance can serve many corpora over
    the same graph.

    Subclasses implement :meth:`sample_slots` (vectorized draws) and
    :meth:`slot_probs` (the exact unnormalized per-slot weights of the
    same distribution, for scalar references and tests).
    """

    name = "policy"

    def __init__(self) -> None:
        self.graph: HeteroGraph | None = None
        self.is_heter: bool = False
        self._csr: CSRAdjacency | None = None

    # -- binding -------------------------------------------------------
    def bind(self, view_or_graph: View | HeteroGraph) -> "WalkPolicy":
        """Attach the policy to a view/graph; idempotent per graph."""
        graph, is_heter = _resolve_graph(view_or_graph)
        if self._csr is not None:
            if self.graph is graph:
                return self
            raise RuntimeError(
                f"{self.name!r} policy is already bound to a different "
                "graph; create one policy instance per graph"
            )
        self.graph = graph
        self.is_heter = bool(is_heter)
        self._csr = csr_adjacency(graph)
        self._on_bind()
        return self

    def _on_bind(self) -> None:
        """Hook for subclass bind-time precomputation.

        Runs with :attr:`graph` and :attr:`csr` set.
        """

    @property
    def csr(self) -> CSRAdjacency:
        if self._csr is None:
            raise RuntimeError(
                f"{self.name!r} policy is not bound to a graph yet; "
                "call bind(view_or_graph) first"
            )
        return self._csr

    # -- per-walk state ------------------------------------------------
    def init_state(self, starts: np.ndarray) -> dict[str, np.ndarray]:
        """Fresh per-walk state arrays for a batch starting at ``starts``."""
        return {}

    def update_state(
        self,
        state: dict[str, np.ndarray],
        rows: np.ndarray,
        here: np.ndarray,
        slots: np.ndarray,
    ) -> None:
        """Advance state for walk ``rows`` that stepped ``here -> slots``."""

    # -- sampling ------------------------------------------------------
    def start_indices(self) -> np.ndarray | None:
        """Node indices walks may start from (None = every node)."""
        return None

    def sample_slots(
        self,
        rng: np.random.Generator,
        here: np.ndarray,
        rows: np.ndarray,
        state: dict[str, np.ndarray],
    ) -> np.ndarray:
        """One vectorized step: a CSR slot offset per walk.

        ``here`` holds current node indices (all with degree >= 1),
        ``rows`` the global walk rows (for state lookups).  Returns
        int64 slot offsets into each node's CSR segment, or
        :data:`STUCK` where no admissible transition exists.
        """
        raise NotImplementedError

    def slot_probs(
        self, here: int, state: dict[str, np.ndarray], row: int = 0
    ) -> np.ndarray:
        """Exact unnormalized per-slot weights of one walk's next step.

        The scalar face of :meth:`sample_slots`'s distribution — shares
        its weight formulas.  An all-zero (or empty) result means the
        walk is stuck.  Consumers normalize.
        """
        raise NotImplementedError


class UniformPolicy(WalkPolicy):
    """Uniform over neighbours, weights ignored (DeepWalk / simple-walk).

    Never touches the alias tables or weight columns, so the lazy CSR
    extensions are never built on its behalf.
    """

    name = "uniform"

    def sample_slots(self, rng, here, rows, state):
        return rng.integers(0, self.csr.degrees[here])

    def slot_probs(self, here, state, row=0):
        degree = int(self.csr.degrees[here])
        return np.full(degree, 1.0, dtype=np.float64)


class BiasedCorrelatedPolicy(WalkPolicy):
    """The paper's walk: weight-biased (Eq. 6), correlated (Eq. 7).

    Per batch step the walks split into two groups:

    - *pi_1* walks (first step, Delta = 0, or correlation off) draw one
      gathered alias sample each (:func:`alias_slot_draw`);
    - *pi_1 * pi_2* walks gather candidate weights into a padded matrix,
      apply Equation 7 against each walk's previous edge weight, and
      draw by masked row-wise cumsum.

    ``correlated=None`` (default) enables Equation 7 exactly on
    heter-views, per the paper.
    """

    name = "biased"

    def __init__(self, correlated: bool | None = None) -> None:
        super().__init__()
        self._correlated_arg = correlated
        self.correlated: bool = False

    def _on_bind(self):
        self.correlated = (
            self.is_heter if self._correlated_arg is None else self._correlated_arg
        )

    def init_state(self, starts):
        return {
            "previous_weight": np.zeros(starts.size, dtype=np.float64),
            "has_previous": np.zeros(starts.size, dtype=bool),
        }

    def pi_weights(
        self, weights: np.ndarray, weight_sum: float, delta: float,
        previous_weight: float | None,
    ) -> np.ndarray:
        """Equation 6 (and 7, when applicable) over one weight segment.

        The single source of the paper's transition formula: the scalar
        reference's ``step_distribution`` and this policy's own
        :meth:`slot_probs` both come here.
        """
        pi1 = weights / weight_sum
        if self.correlated and previous_weight is not None and delta > 0.0:
            pi2 = 1.0 - (weights - previous_weight) / delta
            return pi1 * np.maximum(pi2, _PI2_FLOOR)
        return pi1

    def sample_slots(self, rng, here, rows, state):
        csr = self.csr
        use_pi2 = (
            state["has_previous"][rows] & (csr.delta[here] > 0.0)
            if self.correlated
            else np.zeros(rows.size, dtype=bool)
        )
        slots = np.empty(here.size, dtype=np.int64)
        plain = ~use_pi2
        if plain.any():
            slots[plain] = alias_slot_draw(rng, csr, here[plain])
        if use_pi2.any():
            sub = here[use_pi2]
            previous = state["previous_weight"][rows][use_pi2]
            weights, valid, degree = padded_segments(csr, sub, csr.weights)
            pi1 = weights / csr.weight_sums[sub][:, None]
            pi2 = 1.0 - (weights - previous[:, None]) / csr.delta[sub][:, None]
            probs = np.where(valid, pi1 * np.maximum(pi2, _PI2_FLOOR), 0.0)
            slots[use_pi2] = masked_cumsum_draw(rng, probs, valid, degree)
        return slots

    def update_state(self, state, rows, here, slots):
        csr = self.csr
        state["previous_weight"][rows] = csr.weights[csr.indptr[here] + slots]
        state["has_previous"][rows] = True

    def slot_probs(self, here, state, row=0):
        csr = self.csr
        weights = csr.segment_weights(here)
        if weights.size == 0:
            return weights.astype(np.float64)
        previous: float | None = None
        if state and bool(state["has_previous"][row]):
            previous = float(state["previous_weight"][row])
        return self.pi_weights(
            weights,
            float(csr.weight_sums[here]),
            float(csr.delta[here]),
            previous,
        )


class Node2VecPolicy(WalkPolicy):
    """Second-order p/q walks (node2vec, Grover & Leskovec 2016).

    State is the previous node per walk (-1 on the first step).  First
    steps are plain weight-proportional alias draws; later steps scale
    each candidate edge weight by ``1/p`` (return to the previous node),
    ``1`` (candidate adjacent to the previous node — the vectorized
    distance-1 test via :meth:`CSRAdjacency.has_edges`), or ``1/q``
    (moving outward), then draw by masked cumsum.
    """

    name = "node2vec"

    def __init__(self, p: float = 1.0, q: float = 1.0) -> None:
        super().__init__()
        if p <= 0 or q <= 0:
            raise ValueError(f"p and q must be positive, got p={p}, q={q}")
        self.p = float(p)
        self.q = float(q)

    def init_state(self, starts):
        return {"previous": np.full(starts.size, -1, dtype=np.int64)}

    def _pq_factors(
        self, cand: np.ndarray, prev: np.ndarray, current: np.ndarray
    ) -> np.ndarray:
        """Elementwise p/q bias factor; arrays broadcast together."""
        returning = cand == prev
        linked = self.csr.has_edges(prev, cand)
        return np.where(
            returning, 1.0 / self.p, np.where(linked, 1.0, 1.0 / self.q)
        )

    def _first_order_weights(self, here: np.ndarray) -> np.ndarray | None:
        """Padded first-step weights, or None for the alias fast path."""
        return None

    def _first_order_row(self, here: int) -> np.ndarray:
        """Exact first-step weights of one node's segment."""
        return self.csr.segment_weights(here).astype(np.float64)

    def _second_order_weights(
        self, sub: np.ndarray, prev: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Padded ``(weights, valid, degree)`` for second-order rows."""
        csr = self.csr
        weights, valid, degree = padded_segments(csr, sub, csr.weights)
        cand, _, _ = padded_segments(csr, sub, csr.indices)
        factors = self._pq_factors(cand, prev[:, None], sub[:, None])
        return weights * factors, valid, degree

    def sample_slots(self, rng, here, rows, state):
        csr = self.csr
        prev = state["previous"][rows]
        second = prev >= 0
        slots = np.empty(here.size, dtype=np.int64)
        first = ~second
        if first.any():
            fw = self._first_order_weights(here[first])
            if fw is None:
                slots[first] = alias_slot_draw(rng, csr, here[first])
            else:
                _, valid, degree = padded_segments(csr, here[first], csr.weights)
                slots[first] = masked_cumsum_draw(rng, fw, valid, degree)
        if second.any():
            probs, valid, degree = self._second_order_weights(
                here[second], prev[second]
            )
            slots[second] = masked_cumsum_draw(rng, probs, valid, degree)
        return slots

    def update_state(self, state, rows, here, slots):
        state["previous"][rows] = here

    def slot_probs(self, here, state, row=0):
        csr = self.csr
        prev = int(state["previous"][row]) if state else -1
        if prev < 0:
            return self._first_order_row(here)
        weights = csr.segment_weights(here).astype(np.float64)
        if weights.size == 0:
            return weights
        cand = csr.neighbors(here)
        factors = self._pq_factors(
            cand, np.full(cand.size, prev, dtype=np.int64),
            np.full(cand.size, here, dtype=np.int64),
        )
        return weights * factors


class HetNode2VecPolicy(Node2VecPolicy):
    """node2vec with type-aware transition scaling (arXiv:2101.01425).

    Candidate weights gain an extra ``type_switch`` factor whenever the
    candidate's node type differs from the current node's — on *every*
    step, including the first.  ``type_switch > 1`` pushes walks across
    type boundaries (more heterogeneous context windows),
    ``type_switch < 1`` keeps them within a type.
    """

    name = "het-node2vec"

    def __init__(
        self, p: float = 1.0, q: float = 1.0, type_switch: float = 2.0
    ) -> None:
        super().__init__(p=p, q=q)
        if type_switch <= 0:
            raise ValueError(
                f"type_switch must be positive, got {type_switch}"
            )
        self.type_switch = float(type_switch)

    def _switch_factors(
        self, cand: np.ndarray, current: np.ndarray
    ) -> np.ndarray:
        codes = self.csr.node_type_codes
        return np.where(codes[cand] != codes[current], self.type_switch, 1.0)

    def _pq_factors(self, cand, prev, current):
        return super()._pq_factors(cand, prev, current) * self._switch_factors(
            cand, current
        )

    def _first_order_weights(self, here):
        csr = self.csr
        weights, valid, _ = padded_segments(csr, here, csr.weights)
        cand, _, _ = padded_segments(csr, here, csr.indices)
        return weights * self._switch_factors(cand, here[:, None])

    def _first_order_row(self, here):
        csr = self.csr
        weights = csr.segment_weights(here).astype(np.float64)
        if weights.size == 0:
            return weights
        cand = csr.neighbors(here)
        return weights * self._switch_factors(
            cand, np.full(cand.size, here, dtype=np.int64)
        )


def _validate_metapath(metapath: list[str]) -> list[str]:
    if len(metapath) < 2:
        raise ValueError("a metapath needs at least two node types")
    if metapath[0] != metapath[-1]:
        raise ValueError(
            "metapaths must be cyclic (first type == last type), got "
            f"{metapath}"
        )
    return list(metapath)


def _derive_metapath(type_names) -> list[str]:
    """A default cyclic metapath from a collection of node-type names.

    One type -> ``[t, t]``; two types -> ``[a, b, a]`` (sorted order).
    More than two types is ambiguous — callers must pass an explicit
    metapath.
    """
    types = sorted(type_names)
    if len(types) == 1:
        return [types[0], types[0]]
    if len(types) == 2:
        return [types[0], types[1], types[0]]
    raise ValueError(
        "cannot derive a default metapath for a graph with "
        f"{len(types)} node types; pass metapath= explicitly"
    )


class MetapathPolicy(WalkPolicy):
    """Metapath-constrained walks (metapath2vec, Dong et al. 2017).

    State is each walk's position in the (cyclic) metapath body; a step
    moves to a uniformly random neighbour whose type matches the next
    type on the path, wrapping around.  Walks with no matching
    neighbour end (:data:`STUCK`).  ``metapath=None`` derives a default
    cycle from the bound graph's types (1 or 2 types only).

    :meth:`start_indices` restricts corpus starts to the path's first
    type (the metapath2vec protocol), but walks started elsewhere — the
    cross-view trainer launches from arbitrary shared nodes — enter the
    cycle at the first position matching their start type; only a start
    whose type never appears on the path is rejected.
    """

    name = "metapath"

    def __init__(self, metapath: list[str] | None = None) -> None:
        super().__init__()
        self.metapath = (
            None if metapath is None else _validate_metapath(metapath)
        )
        self._body_codes: np.ndarray | None = None

    def _on_bind(self):
        csr = self.csr
        if self.metapath is None:
            self.metapath = _derive_metapath(csr.type_names)
        unknown = set(self.metapath) - set(csr.type_names)
        if unknown:
            raise ValueError(
                f"metapath mentions unknown node types {unknown}"
            )
        # the pattern body excludes the duplicated final type
        self._body_codes = np.array(
            [csr.type_code(t) for t in self.metapath[:-1]], dtype=np.int64
        )

    def start_indices(self):
        return np.flatnonzero(
            self.csr.node_type_codes == self._body_codes[0]
        )

    def init_state(self, starts):
        codes = self.csr.node_type_codes[starts]
        body = self._body_codes
        # first metapath position whose type matches each start's type
        matches = codes[:, None] == body[None, :]
        bad = ~matches.any(axis=1)
        if bad.any():
            index = int(starts[np.argmax(bad)])
            type_name = self.csr.type_names[int(codes[np.argmax(bad)])]
            offender = (
                repr(self.graph.node_at(index))
                if self.graph is not None
                else f"at index {index}"
            )
            raise ValueError(
                f"start node {offender} has type {type_name!r}, which "
                f"the metapath {self.metapath!r} never visits"
            )
        return {"position": np.argmax(matches, axis=1).astype(np.int64)}

    def _next_codes(self, position: np.ndarray) -> np.ndarray:
        body = self._body_codes
        return body[(position + 1) % body.size]

    def sample_slots(self, rng, here, rows, state):
        csr = self.csr
        types, valid, degree = padded_segments(csr, here, csr.slot_type_codes)
        allowed = valid & (types == self._next_codes(state["position"][rows])[:, None])
        return masked_cumsum_draw(
            rng, allowed.astype(np.float64), allowed, degree
        )

    def update_state(self, state, rows, here, slots):
        state["position"][rows] += 1

    def slot_probs(self, here, state, row=0):
        csr = self.csr
        position = state["position"][row : row + 1] if state else np.zeros(1, np.int64)
        next_code = int(self._next_codes(position)[0])
        types = csr.slot_type_codes[csr.indptr[here] : csr.indptr[here + 1]]
        return (types == next_code).astype(np.float64)


class SpaceyMetapathPolicy(WalkPolicy):
    """Occupancy-reinforced spacey walks (HeteSpaceyWalk, arXiv:1909.03228).

    Each walk carries an *occupancy vector* counting how often every node
    type appeared on its history.  A candidate edge's weight is scaled by
    ``(occupancy[cand_type] + 1) ** reinforcement`` — the walk
    preferentially revisits types it has spent time in, the vertex-
    reinforced "spacey" approximation of a metapath scheme.

    With a ``metapath``, candidates are first restricted to the types
    the path admits as successors of the current node's type (the walk
    is "spacey": it forgets its exact position and only honours the
    type-transition structure); if no admissible candidate exists the
    restriction is dropped for that step rather than killing the walk.
    """

    name = "spacey"

    def __init__(
        self,
        metapath: list[str] | None = None,
        reinforcement: float = 1.0,
    ) -> None:
        super().__init__()
        if reinforcement < 0:
            raise ValueError(
                f"reinforcement must be >= 0, got {reinforcement}"
            )
        self.metapath = (
            None if metapath is None else _validate_metapath(metapath)
        )
        self.reinforcement = float(reinforcement)
        self._successors: np.ndarray | None = None  # (T, T) admissibility

    def _on_bind(self):
        csr = self.csr
        num_types = len(csr.type_names)
        if self.metapath is None:
            self._successors = np.ones((num_types, num_types), dtype=bool)
            return
        unknown = set(self.metapath) - set(csr.type_names)
        if unknown:
            raise ValueError(
                f"metapath mentions unknown node types {unknown}"
            )
        successors = np.zeros((num_types, num_types), dtype=bool)
        body = [csr.type_code(t) for t in self.metapath[:-1]]
        for k, code in enumerate(body):
            successors[code, body[(k + 1) % len(body)]] = True
        self._successors = successors

    def init_state(self, starts):
        num_types = len(self.csr.type_names)
        occupancy = np.zeros((starts.size, num_types), dtype=np.float64)
        codes = self.csr.node_type_codes[starts]
        occupancy[np.arange(starts.size), codes] = 1.0
        return {"occupancy": occupancy}

    def _occupancy_factors(
        self, occupancy: np.ndarray, cand_types: np.ndarray
    ) -> np.ndarray:
        """``(occ[type] + 1) ** reinforcement`` per candidate."""
        boosted = (occupancy + 1.0) ** self.reinforcement
        return np.take_along_axis(boosted, cand_types, axis=1)

    def sample_slots(self, rng, here, rows, state):
        csr = self.csr
        types, valid, degree = padded_segments(csr, here, csr.slot_type_codes)
        weights, _, _ = padded_segments(csr, here, csr.weights)
        clipped = np.clip(types, 0, len(csr.type_names) - 1)
        admissible = np.take_along_axis(
            self._successors[csr.node_type_codes[here]], clipped, axis=1
        )
        allowed = valid & admissible
        # spacey fallback: rows with no admissible type keep all slots
        mask = np.where(allowed.any(axis=1)[:, None], allowed, valid)
        probs = weights * self._occupancy_factors(
            state["occupancy"][rows], clipped
        )
        return masked_cumsum_draw(rng, np.where(mask, probs, 0.0), mask, degree)

    def update_state(self, state, rows, here, slots):
        csr = self.csr
        nxt = csr.indices[csr.indptr[here] + slots]
        state["occupancy"][rows, csr.node_type_codes[nxt]] += 1.0

    def slot_probs(self, here, state, row=0):
        csr = self.csr
        weights = csr.segment_weights(here).astype(np.float64)
        if weights.size == 0:
            return weights
        types = csr.slot_type_codes[csr.indptr[here] : csr.indptr[here + 1]]
        admissible = self._successors[int(csr.node_type_codes[here])][types]
        if not admissible.any():
            admissible = np.ones(types.size, dtype=bool)
        if state:
            occupancy = state["occupancy"][row : row + 1]
        else:
            occupancy = np.zeros((1, len(csr.type_names)))
        factors = self._occupancy_factors(occupancy, types[None, :])[0]
        return np.where(admissible, weights * factors, 0.0)


# ----------------------------------------------------------------------
# Policy registry
# ----------------------------------------------------------------------
_FACTORIES: dict[str, Callable[..., WalkPolicy]] = {
    "uniform": lambda **kw: UniformPolicy(),
    "biased": lambda **kw: BiasedCorrelatedPolicy(
        correlated=kw.get("correlated")
    ),
    "node2vec": lambda **kw: Node2VecPolicy(
        p=kw.get("p", 1.0), q=kw.get("q", 1.0)
    ),
    "metapath": lambda **kw: MetapathPolicy(metapath=kw.get("metapath")),
    "het-node2vec": lambda **kw: HetNode2VecPolicy(
        p=kw.get("p", 1.0),
        q=kw.get("q", 1.0),
        type_switch=kw.get("type_switch", 2.0),
    ),
    "spacey": lambda **kw: SpaceyMetapathPolicy(
        metapath=kw.get("metapath"),
        reinforcement=kw.get("reinforcement", 1.0),
    ),
    # relation-balanced walks with the paper's policy; the balancing
    # itself happens in the training loop (RelationBalancer callback)
    "relation-balanced": lambda **kw: BiasedCorrelatedPolicy(
        correlated=kw.get("correlated")
    ),
}

POLICY_NAMES: tuple[str, ...] = tuple(sorted(_FACTORIES))
"""Valid ``walk_policy`` names, in the order the CLI advertises them."""


def make_policy(name: str, **kwargs) -> WalkPolicy:
    """Instantiate a fresh (unbound) policy by registry name.

    Recognized keyword knobs (ignored by policies that don't use them):
    ``p``, ``q`` (node2vec family), ``type_switch`` (het-node2vec),
    ``metapath`` (metapath/spacey), ``reinforcement`` (spacey),
    ``correlated`` (biased).
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown walk policy {name!r}; choose from {POLICY_NAMES}"
        ) from None
    return factory(**kwargs)

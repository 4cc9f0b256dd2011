"""First-order optimizers.

Two families live here:

- dense optimizers over :mod:`repro.autograd` parameters (:class:`SGD`,
  :class:`Adam`) — used by the cross-view translators;
- sparse *row* optimizers over a numpy embedding matrix
  (:class:`RowSGD`, :class:`RowAdam`) — used wherever a batch touches only
  a few rows of a large matrix: the skip-gram hot loop and the cross-view
  updates of the common nodes' embeddings.

Row optimizers share the :class:`RowOptimizer` interface
(``update(rows, grads, lr=None)``, or ``apply(unique, sums, counts,
lr=None)`` on rows already summed), so trainers can swap SGD for Adam
without changing their update code; :func:`make_row_optimizer` resolves a
name to an instance.  Both aggregate a batch's repeated rows with
:func:`segment_sum`, the one sparse row-update kernel of the package.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np
import scipy.sparse

from repro.autograd import Tensor


def segment_sum(
    rows: np.ndarray, grads: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum the gradient rows that share a row index.

    Args:
        rows: integer array of row indices (flattened; repeats allowed).
        grads: one gradient per entry of ``rows``, shape
            ``(rows.size, ...)``; the sums accumulate in its dtype.

    Returns:
        ``(unique_rows, sums, counts)``: the distinct rows in ascending
        order, their summed gradients of shape ``(unique_rows.size, ...)``
        and how many occurrences each sum covers (int64).

    A stable argsort lays each row's occurrences out in batch order; the
    sums are then the product of an all-ones CSR matrix (one matrix row per
    distinct row, column indices = that order) with ``grads``.  scipy adds
    a CSR row's terms one after another in column order, so every sum is
    bit-identical to adding the gradients into zeros one occurrence at a
    time (the unbuffered ``add.at`` scatter).  ``np.add.reduceat`` is not:
    its inner loop reassociates the additions and changes the low bits of
    float32 sums.

    When every row lies in ``[0, 65536)`` the argsort runs on a ``uint16``
    copy of the rows, which numpy sorts by radix; a stable sort of the
    same keys gives the same order whatever their width.  Wider rows are
    sorted as they are.
    """
    rows = np.asarray(rows).reshape(-1)
    grads = np.asarray(grads)
    size = rows.size
    order = np.argsort(_narrow_keys(rows), kind="stable")
    sorted_rows = rows[order]
    starts = np.empty(size, dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=starts[1:])
    firsts = np.flatnonzero(starts)
    num_unique = firsts.size
    indptr = np.empty(num_unique + 1, dtype=np.int64)
    indptr[:-1] = firsts
    indptr[-1] = size
    segments = scipy.sparse.csr_array(
        (np.ones(size, dtype=grads.dtype), order, indptr),
        shape=(num_unique, size),
    )
    sums = segments @ grads.reshape(size, math.prod(grads.shape[1:]))
    return (
        sorted_rows[firsts],
        sums.reshape((num_unique,) + grads.shape[1:]),
        np.subtract(indptr[1:], firsts),
    )


def _narrow_keys(rows: np.ndarray) -> np.ndarray:
    """``rows`` as ``uint16`` when all of them lie in ``[0, 65536)``,
    else ``rows`` itself: the sort keys of :func:`segment_sum`."""
    if rows.size == 0 or rows.dtype.kind not in "iu":
        return rows
    # read as unsigned, a negative row is huge, so one max checks both ends
    if rows.view(rows.dtype.str.replace("i", "u")).max() < 65536:
        return rows.astype(np.uint16)
    return rows


def check_lr(lr: float) -> float:
    """Return ``lr`` if it is a finite positive number.

    The one learning-rate check of the optimizers and the baselines:
    ``lr <= 0`` alone lets NaN through, which trains every parameter to
    NaN.

    Raises:
        ValueError: for NaN, infinite, zero or negative ``lr``.
    """
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(
            f"learning rate must be finite and positive, got {lr}"
        )
    return lr


def gradient_norm(grads: Iterable[np.ndarray | None]) -> float:
    """The global L2 norm over a collection of gradient arrays.

    ``None`` entries (parameters without a gradient yet) are skipped, so
    this can be fed ``param.grad`` straight off an optimizer's parameter
    list.  Used by the observability layer to report per-phase gradient
    magnitudes without each trainer re-deriving the reduction.

    Each array reduces in its own dtype — a float32 gradient must not be
    silently copied up to float64 just to be measured (the accumulator is
    a Python float either way).
    """
    total = 0.0
    for grad in grads:
        if grad is None:
            continue
        array = np.asarray(grad)
        total += float(np.dot(array.ravel(), array.ravel()))
    return float(np.sqrt(total))


class Optimizer:
    """Base class holding a parameter list and the zero-grad helper."""

    def __init__(self, parameters: Iterable[Tensor], lr: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = check_lr(lr)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # -- checkpoint protocol -------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of the optimizer's internal state (moments, step
        counters, learning rate) — *not* the parameters themselves, which
        belong to their module."""
        raise NotImplementedError

    def load_state_dict(self, state: dict) -> None:
        raise NotImplementedError

    def _check_kind(self, state: dict, kind: str) -> None:
        got = state.get("kind")
        if got != kind:
            raise ValueError(
                f"optimizer state kind mismatch: checkpoint holds "
                f"{got!r}, this optimizer is {kind!r}"
            )

    def _check_buffer_count(self, buffers: list, name: str) -> None:
        if len(buffers) != len(self.parameters):
            raise ValueError(
                f"optimizer state {name!r} holds {len(buffers)} buffers "
                f"for {len(self.parameters)} parameters"
            )


class SGD(Optimizer):
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 0.01,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            if self.momentum:
                velocity *= self.momentum
                velocity += param.grad
                param.data -= self.lr * velocity
            else:
                param.data -= self.lr * param.grad

    def state_dict(self) -> dict:
        return {
            "kind": "sgd",
            "lr": self.lr,
            "momentum": self.momentum,
            "velocity": [v.copy() for v in self._velocity],
        }

    def load_state_dict(self, state: dict) -> None:
        self._check_kind(state, "sgd")
        self._check_buffer_count(state["velocity"], "velocity")
        self.lr = float(state["lr"])
        self.momentum = float(state["momentum"])
        for buffer, saved in zip(self._velocity, state["velocity"]):
            buffer[:] = saved


class Adam(Optimizer):
    """Adam (Kingma & Ba 2014) — the optimizer Algorithm 1 prescribes."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        return {
            "kind": "adam",
            "lr": self.lr,
            "step_count": self._step_count,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        self._check_kind(state, "adam")
        self._check_buffer_count(state["m"], "m")
        self._check_buffer_count(state["v"], "v")
        self.lr = float(state["lr"])
        self._step_count = int(state["step_count"])
        for buffer, saved in zip(self._m, state["m"]):
            buffer[:] = saved
        for buffer, saved in zip(self._v, state["v"]):
            buffer[:] = saved


# ----------------------------------------------------------------------
# sparse row optimizers
# ----------------------------------------------------------------------
class RowOptimizer:
    """Optimizer over an embedding matrix receiving sparse row gradients.

    ``update(rows, grads)`` applies one step to the listed rows given one
    gradient row per occurrence (rows may repeat within a batch): it sums
    repeats with :func:`segment_sum` and hands the result to
    :meth:`apply`, where each subclass turns ``(unique, sums, counts)``
    into its step.  A caller that has already run :func:`segment_sum`
    (the SGNS trainer sums both of its matrices in one call) goes to
    :meth:`apply` directly.  ``lr`` overrides the constructor default for
    that step, which is how learning-rate schedules reach the hot loop.
    """

    def __init__(self, matrix: np.ndarray, lr: float) -> None:
        if matrix.ndim != 2:
            raise ValueError("row optimizers need a 2-D matrix")
        self.matrix = matrix
        self.lr = check_lr(lr)

    def update(
        self, rows: np.ndarray, grads: np.ndarray, lr: float | None = None
    ) -> None:
        self.apply(
            *segment_sum(rows, np.asarray(grads, dtype=self.matrix.dtype)),
            lr=lr,
        )

    def apply(
        self,
        unique: np.ndarray,
        sums: np.ndarray,
        counts: np.ndarray,
        lr: float | None = None,
    ) -> None:
        """One step on the distinct rows ``unique`` from their summed
        gradients (overwritten) and occurrence counts, as returned by
        :func:`segment_sum`."""
        raise NotImplementedError

    # -- checkpoint protocol -------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of moment buffers and lr — never of ``matrix``, which
        is owned (and saved) by the trainer holding it."""
        raise NotImplementedError

    def load_state_dict(self, state: dict) -> None:
        raise NotImplementedError


class RowSGD(RowOptimizer):
    """Plain SGD on rows; repeated rows receive the *mean* of their
    per-occurrence gradients.

    On small graphs a node can appear dozens of times per batch; summing
    would multiply the effective learning rate by that count and
    demonstrably diverges, while the mean matches the sequential word2vec
    update in expectation.
    """

    def apply(
        self,
        unique: np.ndarray,
        sums: np.ndarray,
        counts: np.ndarray,
        lr: float | None = None,
    ) -> None:
        """``matrix[unique] -= lr * sums / counts``, computed in the dtype
        of ``sums``.

        Dividing a float32 sum by the float32 count gives the same bits
        as dividing in float64 and rounding to float32: float64 carries
        at least 2·24 + 2 bits, so rounding twice gives the correctly
        rounded float32 quotient (counts below 2**24 are exact in
        float32).
        """
        step = self.lr if lr is None else lr
        sums /= counts.astype(sums.dtype)[:, None]
        sums *= step
        self.matrix[unique] -= sums

    def state_dict(self) -> dict:
        return {"kind": "sgd", "lr": self.lr}

    def load_state_dict(self, state: dict) -> None:
        if state.get("kind") != "sgd":
            raise ValueError(
                f"row-optimizer state kind mismatch: checkpoint holds "
                f"{state.get('kind')!r}, this optimizer is 'sgd'"
            )
        self.lr = float(state["lr"])


class RowAdam(RowOptimizer):
    """Adam over an embedding matrix receiving sparse row gradients.

    Repeated rows are *sum*-aggregated (one Adam step per batch per row);
    bias correction uses a global step count (the usual sparse-Adam
    simplification).
    """

    def __init__(
        self,
        matrix: np.ndarray,
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(matrix, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = np.zeros_like(matrix)
        self._v = np.zeros_like(matrix)
        self._t = 0

    def apply(
        self,
        unique: np.ndarray,
        sums: np.ndarray,
        counts: np.ndarray,
        lr: float | None = None,
    ) -> None:
        step = self.lr if lr is None else lr
        self._t += 1
        # in place on the gathered rows, op for op the textbook update:
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2;
        # x -= lr m_hat / (sqrt(v_hat) + eps)
        m = self._m[unique]
        m *= self.beta1
        m += (1.0 - self.beta1) * sums
        v = self._v[unique]
        v *= self.beta2
        np.square(sums, out=sums)
        sums *= 1.0 - self.beta2
        v += sums
        self._m[unique] = m
        self._v[unique] = v
        m /= 1.0 - self.beta1**self._t
        m *= step
        v /= 1.0 - self.beta2**self._t
        np.sqrt(v, out=v)
        v += self.eps
        m /= v
        self.matrix[unique] -= m

    def state_dict(self) -> dict:
        return {
            "kind": "adam",
            "lr": self.lr,
            "t": self._t,
            "m": self._m.copy(),
            "v": self._v.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        if state.get("kind") != "adam":
            raise ValueError(
                f"row-optimizer state kind mismatch: checkpoint holds "
                f"{state.get('kind')!r}, this optimizer is 'adam'"
            )
        for name in ("m", "v"):
            if state[name].shape != self.matrix.shape:
                raise ValueError(
                    f"RowAdam buffer {name!r} shape {state[name].shape} "
                    f"does not match matrix shape {self.matrix.shape}"
                )
        self.lr = float(state["lr"])
        self._t = int(state["t"])
        self._m[:] = state["m"]
        self._v[:] = state["v"]


_ROW_OPTIMIZERS = {"sgd": RowSGD, "adam": RowAdam}


def make_row_optimizer(
    kind: str | RowOptimizer, matrix: np.ndarray, lr: float
) -> RowOptimizer:
    """Resolve ``"sgd"``/``"adam"`` (or pass an instance through)."""
    if isinstance(kind, RowOptimizer):
        return kind
    try:
        cls = _ROW_OPTIMIZERS[kind.lower()]
    except (KeyError, AttributeError):
        raise ValueError(
            f"unknown row optimizer {kind!r}; choose from "
            + ", ".join(sorted(_ROW_OPTIMIZERS))
        ) from None
    return cls(matrix, lr=lr)

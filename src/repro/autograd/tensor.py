"""The :class:`Tensor` primitive: numpy arrays with a gradient tape.

The implementation is deliberately small and explicit: every primitive op
creates a child tensor holding a closure that knows how to push the child's
gradient back to its parents.  ``backward()`` topologically sorts the tape
and runs the closures once each.

Broadcasting is fully supported: gradients flowing into a parent whose
shape was broadcast are summed over the broadcast axes (``_unbroadcast``).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables tape recording (like torch.no_grad)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # sum over leading axes added by broadcasting
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # sum over axes that were 1 in the original shape
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus (optionally) a gradient and a tape entry.

    Example:
        >>> x = Tensor([[1.0, 2.0]], requires_grad=True)
        >>> y = (x * x).sum()
        >>> y.backward()
        >>> x.grad.tolist()
        [[2.0, 4.0]]
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        # floating dtypes pass through (float32 mode); everything else —
        # ints, bools, python lists — lands on the float64 default
        array = np.asarray(data)
        if not np.issubdtype(array.dtype, np.floating):
            array = array.astype(np.float64)
        self.data = array
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """A view of the same data cut off from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    # ------------------------------------------------------------------
    # autograd driver
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor.

        ``grad`` defaults to 1 for scalar tensors; non-scalar roots must
        pass an explicit output gradient.  Gradients accumulate into the
        ``.grad`` of *leaf* tensors only (parameters and inputs created
        with ``requires_grad=True``); interior results of ops keep
        ``.grad is None``, so a finished backward pass holds no per-node
        gradient copies.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient is only "
                    "defined for scalar tensors"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor "
                f"shape {self.data.shape}"
            )

        ordered: list[Tensor] = []
        seen: set[int] = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, iter(node._parents))]
            if id(node) in seen:
                return
            seen.add(id(node))
            while stack:
                current, parents = stack[-1]
                advanced = False
                for parent in parents:
                    if id(parent) not in seen and parent.requires_grad:
                        seen.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                if not advanced:
                    ordered.append(current)
                    stack.pop()

        visit(self)

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(ordered):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                # only leaves keep .grad; an interior gradient is consumed
                # by its closure and freed with the rest of the tape
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            for parent, parent_grad in node._backward(node_grad):
                if not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + parent_grad
                else:
                    grads[key] = parent_grad

    # ------------------------------------------------------------------
    # primitive ops
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        # scalars adopt this tensor's dtype: a python float becomes a 0-d
        # float64 array under plain asarray, which NEP 50 would promote a
        # float32 operand against, silently upcasting every scalar op
        if np.isscalar(other):
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return Tensor(other)

    def _make(
        self,
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], list],
    ) -> "Tensor":
        parents = tuple(parents)
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad):
            return [
                (self, _unbroadcast(grad, self.shape)),
                (other, _unbroadcast(grad, other.shape)),
            ]

        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            return [(self, -grad)]

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad):
            return [
                (self, _unbroadcast(grad, self.shape)),
                (other, _unbroadcast(-grad, other.shape)),
            ]

        return self._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad):
            return [
                (self, _unbroadcast(grad * other.data, self.shape)),
                (other, _unbroadcast(grad * self.data, other.shape)),
            ]

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad):
            return [
                (self, _unbroadcast(grad / other.data, self.shape)),
                (
                    other,
                    _unbroadcast(
                        -grad * self.data / (other.data**2), other.shape
                    ),
                ),
            ]

        return self._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def backward(grad):
            return [(self, grad * exponent * self.data ** (exponent - 1))]

        return self._make(self.data**exponent, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        """Matrix product with numpy's batching semantics.

        Both operands may carry leading batch axes: ``(N, p, d) @ (N, d, p)``
        multiplies per batch element, and a 2-D operand broadcasts against a
        batched one (``(p, p) @ (N, p, d)``).  Gradients of broadcast
        operands are reduced over the batch axes by :func:`_unbroadcast`.
        """
        other = self._coerce(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ValueError("matmul requires tensors with ndim >= 2")

        def backward(grad):
            grad_self = grad @ np.swapaxes(other.data, -1, -2)
            grad_other = np.swapaxes(self.data, -1, -2) @ grad
            return [
                (self, _unbroadcast(grad_self, self.shape)),
                (other, _unbroadcast(grad_other, other.shape)),
            ]

        return self._make(self.data @ other.data, (self, other), backward)

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def transpose(self, axis1: int = -2, axis2: int = -1) -> "Tensor":
        """Swap two axes (default: the last two, batch axes untouched)."""

        def backward(grad):
            return [(self, np.swapaxes(grad, axis1, axis2))]

        return self._make(np.swapaxes(self.data, axis1, axis2), (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        original = self.shape

        def backward(grad):
            return [(self, grad.reshape(original))]

        return self._make(self.data.reshape(*shape), (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        def backward(grad):
            if axis is None:
                return [(self, np.broadcast_to(grad, self.shape).copy())]
            g = grad
            if not keepdims:
                g = np.expand_dims(g, axis)
            return [(self, np.broadcast_to(g, self.shape).copy())]

        return self._make(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), backward
        )

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad):
            return [(self, grad * mask)]

        return self._make(self.data * mask, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad):
            return [(self, grad * out_data)]

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad):
            return [(self, grad / self.data)]

        return self._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad):
            return [(self, grad * 0.5 / out_data)]

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            return [(self, grad * (1.0 - out_data**2))]

        return self._make(out_data, (self,), backward)

    def clip_min(self, minimum: float) -> "Tensor":
        """Elementwise max(x, minimum) — used to stabilize norms/logs."""
        mask = self.data > minimum

        def backward(grad):
            return [(self, grad * mask)]

        return self._make(np.maximum(self.data, minimum), (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad):
            return [(self, grad * sign)]

        return self._make(np.abs(self.data), (self,), backward)

    def maximum(self, other) -> "Tensor":
        """Elementwise max; ties route gradient to ``self`` (like numpy's
        left-bias convention in subgradient choices)."""
        other = self._coerce(other)
        take_self = self.data >= other.data

        def backward(grad):
            return [
                (self, _unbroadcast(grad * take_self, self.shape)),
                (other, _unbroadcast(grad * ~take_self, other.shape)),
            ]

        return self._make(
            np.maximum(self.data, other.data), (self, other), backward
        )

    def minimum(self, other) -> "Tensor":
        other = self._coerce(other)
        take_self = self.data <= other.data

        def backward(grad):
            return [
                (self, _unbroadcast(grad * take_self, self.shape)),
                (other, _unbroadcast(grad * ~take_self, other.shape)),
            ]

        return self._make(
            np.minimum(self.data, other.data), (self, other), backward
        )

    # ------------------------------------------------------------------
    # indexing and joining
    # ------------------------------------------------------------------
    @staticmethod
    def concat(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate tensors along ``axis`` with split backward."""
        if not tensors:
            raise ValueError("concat needs at least one tensor")
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad):
            out = []
            for tensor, start, stop in zip(tensors, offsets, offsets[1:]):
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                out.append((tensor, grad[tuple(slicer)]))
            return out

        data = np.concatenate([t.data for t in tensors], axis=axis)
        result = tensors[0]._make(data, tensors, backward)
        return result

    @staticmethod
    def stack(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        """Stack same-shaped tensors along a new axis."""
        if not tensors:
            raise ValueError("stack needs at least one tensor")

        def backward(grad):
            return [
                (tensor, np.take(grad, k, axis=axis))
                for k, tensor in enumerate(tensors)
            ]

        data = np.stack([t.data for t in tensors], axis=axis)
        return tensors[0]._make(data, tensors, backward)

    def take_rows(self, indices) -> "Tensor":
        """Gather rows (axis 0) by integer index, with scatter-add backward.

        This is the embedding-lookup primitive: duplicated indices
        accumulate gradient.
        """
        indices = np.asarray(indices, dtype=np.int64)

        def backward(grad):
            # imported here: repro.nn.optim itself imports this module
            from repro.nn.optim import segment_sum

            rows = np.where(indices < 0, indices + self.shape[0], indices)
            unique, sums, _ = segment_sum(
                rows,
                np.asarray(grad, dtype=self.data.dtype).reshape(
                    (indices.size,) + self.shape[1:]
                ),
            )
            full = np.zeros_like(self.data)
            full[unique] = sums
            return [(self, full)]

        return self._make(self.data[indices], (self,), backward)

"""Unit + gradcheck tests for the autograd engine."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck, no_grad


def leaf(shape, rng, scale=1.0):
    return Tensor(rng.normal(0, scale, size=shape), requires_grad=True)


class TestBasics:
    def test_data_coerced_to_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64

    def test_item_and_shape(self):
        t = Tensor([[2.0]])
        assert t.item() == 2.0
        assert t.shape == (1, 1)
        assert t.ndim == 2
        assert t.size == 1

    def test_detach_cuts_tape(self, rng):
        x = leaf((2, 2), rng)
        y = x.detach()
        assert not y.requires_grad
        assert y.data is x.data

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_non_scalar_needs_grad(self, rng):
        x = leaf((3,), rng)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_grad_shape_checked(self, rng):
        x = leaf((3,), rng)
        y = x * 2
        with pytest.raises(ValueError):
            y.backward(np.ones((2,)))

    def test_no_grad_context(self, rng):
        x = leaf((2,), rng)
        with no_grad():
            y = x * x
        assert not y.requires_grad

    def test_grad_accumulates_across_backwards(self, rng):
        x = leaf((2,), rng)
        (x.sum()).backward()
        (x.sum()).backward()
        assert np.allclose(x.grad, 2.0)

    def test_zero_grad(self, rng):
        x = leaf((2,), rng)
        x.sum().backward()
        x.zero_grad()
        assert x.grad is None


class TestGradcheckPrimitives:
    """Every primitive against central finite differences."""

    def test_add(self, rng):
        a, b = leaf((3, 2), rng), leaf((3, 2), rng)
        gradcheck(lambda a, b: (a + b).sum(), [a, b])

    def test_add_broadcast(self, rng):
        a, b = leaf((3, 2), rng), leaf((1, 2), rng)
        gradcheck(lambda a, b: (a + b).sum(), [a, b])

    def test_sub(self, rng):
        a, b = leaf((2, 2), rng), leaf((2, 2), rng)
        gradcheck(lambda a, b: (a - b).sum(), [a, b])

    def test_rsub_scalar(self, rng):
        a = leaf((2, 2), rng)
        gradcheck(lambda a: (1.0 - a).sum(), [a])

    def test_mul(self, rng):
        a, b = leaf((2, 3), rng), leaf((2, 3), rng)
        gradcheck(lambda a, b: (a * b).sum(), [a, b])

    def test_mul_broadcast_scalar(self, rng):
        a = leaf((2, 3), rng)
        gradcheck(lambda a: (a * 3.5).sum(), [a])

    def test_div(self, rng):
        a = leaf((2, 2), rng)
        b = Tensor(rng.uniform(0.5, 2.0, size=(2, 2)), requires_grad=True)
        gradcheck(lambda a, b: (a / b).sum(), [a, b])

    def test_pow(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(3,)), requires_grad=True)
        gradcheck(lambda a: (a**3).sum(), [a])

    def test_neg(self, rng):
        a = leaf((3,), rng)
        gradcheck(lambda a: (-a).sum(), [a])

    def test_matmul(self, rng):
        a, b = leaf((3, 4), rng), leaf((4, 2), rng)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_matmul_chain(self, rng):
        a, b, c = leaf((2, 3), rng), leaf((3, 3), rng), leaf((3, 2), rng)
        gradcheck(lambda a, b, c: ((a @ b) @ c).sum(), [a, b, c])

    def test_transpose(self, rng):
        a = leaf((2, 4), rng)
        gradcheck(lambda a: (a.T @ a).sum(), [a])

    def test_reshape(self, rng):
        a = leaf((2, 6), rng)
        gradcheck(lambda a: (a.reshape(3, 4) ** 2).sum(), [a])

    def test_sum_axis(self, rng):
        a = leaf((3, 4), rng)
        gradcheck(lambda a: (a.sum(axis=0) ** 2).sum(), [a])

    def test_sum_keepdims(self, rng):
        a = leaf((3, 4), rng)
        gradcheck(lambda a: (a.sum(axis=1, keepdims=True) * a).sum(), [a])

    def test_mean(self, rng):
        a = leaf((4, 2), rng)
        gradcheck(lambda a: (a.mean(axis=0) ** 2).sum(), [a])

    def test_mean_all(self, rng):
        a = leaf((4, 2), rng)
        gradcheck(lambda a: (a * a).mean(), [a])

    def test_relu(self, rng):
        # keep values away from the kink
        a = Tensor(
            rng.choice([-1.0, -0.5, 0.5, 1.0], size=(3, 3)),
            requires_grad=True,
        )
        gradcheck(lambda a: (a.relu() * a).sum(), [a])

    def test_exp_log(self, rng):
        a = Tensor(rng.uniform(0.5, 1.5, size=(3,)), requires_grad=True)
        gradcheck(lambda a: (a.exp().log() * a).sum(), [a])

    def test_sqrt(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(3,)), requires_grad=True)
        gradcheck(lambda a: a.sqrt().sum(), [a])

    def test_tanh(self, rng):
        a = leaf((3,), rng)
        gradcheck(lambda a: a.tanh().sum(), [a])

    def test_clip_min(self, rng):
        a = Tensor(
            rng.choice([-2.0, -1.0, 1.0, 2.0], size=(4,)), requires_grad=True
        )
        gradcheck(lambda a: (a.clip_min(0.5) * a).sum(), [a])

    def test_take_rows(self, rng):
        a = leaf((5, 3), rng)
        idx = np.array([0, 2, 2, 4])
        gradcheck(lambda a: (a.take_rows(idx) ** 2).sum(), [a])

    def test_shared_subexpression(self, rng):
        """A tensor used twice accumulates both gradient paths."""
        a = leaf((3,), rng)
        gradcheck(lambda a: (a * a + a * 2.0).sum(), [a])


class TestGradValues:
    def test_quadratic_gradient(self):
        x = Tensor([[1.0, -2.0]], requires_grad=True)
        (x * x).sum().backward()
        assert np.allclose(x.grad, [[2.0, -4.0]])

    def test_matmul_gradient_value(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0], [4.0]], requires_grad=True)
        (a @ b).sum().backward()
        assert np.allclose(a.grad, [[3.0, 4.0]])
        assert np.allclose(b.grad, [[1.0], [2.0]])

    def test_take_rows_duplicates_accumulate(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        a.take_rows([1, 1, 1]).sum().backward()
        assert np.allclose(a.grad, [[0, 0], [3, 3], [0, 0]])

    def test_constants_get_no_grad(self, rng):
        a = leaf((2,), rng)
        c = Tensor([1.0, 2.0])
        (a * c).sum().backward()
        assert c.grad is None


def tape_nodes(root):
    """Every tensor on ``root``'s tape, parents before children."""
    ordered, seen = [], set()

    def visit(node):
        if id(node) in seen or not node.requires_grad:
            return
        seen.add(id(node))
        for parent in node._parents:
            visit(parent)
        ordered.append(node)

    visit(root)
    return ordered


def keep_every_grad_backward(root):
    """``Tensor.backward``'s traversal, keeping every node's total
    gradient (returned by id) instead of the leaves' only."""
    totals = {}
    pending = {id(root): np.ones_like(root.data)}
    for node in reversed(tape_nodes(root)):
        grad = pending.pop(id(node), None)
        if grad is None:
            continue
        totals[id(node)] = grad.copy()
        if node._backward is None:
            continue
        for parent, parent_grad in node._backward(grad):
            if not parent.requires_grad:
                continue
            key = id(parent)
            pending[key] = (
                pending[key] + parent_grad if key in pending else parent_grad
            )
    return totals


class TestLeafOnlyGrad:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_translator_tape(self, rng, dtype):
        from repro.core.cross_view import similarity_loss
        from repro.core.translator import Translator

        forward = Translator(3, 4, num_encoders=2, rng=rng, dtype=dtype)
        backward = Translator(3, 4, num_encoders=2, rng=rng, dtype=dtype)
        a_src, a_tgt = (
            Tensor(rng.normal(size=(5, 3, 4)).astype(dtype), True)
            for _ in range(2)
        )
        translated = forward.forward(a_src)
        loss = similarity_loss(translated, a_tgt) + similarity_loss(
            backward.forward(translated), a_src
        )
        nodes = tape_nodes(loss)
        expected = keep_every_grad_backward(loss)
        loss.backward()

        leaves = [a_src, a_tgt, *forward.parameters(), *backward.parameters()]
        assert {id(n) for n in nodes if n._backward is None} == {
            id(n) for n in leaves
        }
        for tensor in leaves:
            assert tensor.grad.dtype == dtype
            assert tensor.grad.tobytes() == expected[id(tensor)].tobytes()
        interior = [n for n in nodes if n._backward is not None]
        assert interior and all(n.grad is None for n in interior)

    def test_root_is_interior(self, rng):
        a = leaf((3,), rng)
        out = (a * 2.0).sum()
        out.backward()
        assert out.grad is None
        assert np.array_equal(a.grad, [2.0, 2.0, 2.0])


class TestTakeRowsScatter:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_scatter_add_byte_for_byte(self, rng, dtype):
        data = rng.normal(size=(6, 3)).astype(dtype)
        indices = np.array([[4, 1, 4], [-2, 0, 4]])  # -2 is row 4 again
        grad = rng.normal(size=(2, 3, 3)).astype(dtype)
        a = Tensor(data, requires_grad=True)
        a.take_rows(indices).backward(grad)
        expected = np.zeros_like(data)
        np.add.at(expected, indices, grad)
        assert a.grad.dtype == dtype
        assert a.grad.tobytes() == expected.tobytes()

    def test_empty_indices(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        a.take_rows(np.zeros(0, dtype=np.int64)).backward(np.zeros((0, 2)))
        assert np.array_equal(a.grad, np.zeros((3, 2)))

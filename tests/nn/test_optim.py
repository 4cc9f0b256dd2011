"""Tests for the SGD and Adam optimizers."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import SGD, Adam, RowAdam, RowSGD


def quadratic_param(start):
    return Tensor(np.asarray(start, dtype=float), requires_grad=True)


def step_quadratic(optimizer, param, steps):
    """Minimize ||x||^2; returns final norm."""
    for _ in range(steps):
        optimizer.zero_grad()
        (param * param).sum().backward()
        optimizer.step()
    return float(np.linalg.norm(param.data))


class TestValidation:
    def test_no_parameters_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_nonpositive_lr_rejected(self):
        p = quadratic_param([1.0])
        with pytest.raises(ValueError):
            SGD([p], lr=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("make", [SGD, Adam])
    def test_non_finite_lr_rejected(self, make, lr):
        with pytest.raises(ValueError, match="finite and positive"):
            make([quadratic_param([1.0])], lr=lr)

    @pytest.mark.parametrize("lr", [0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("make", [RowSGD, RowAdam])
    def test_row_optimizers_reject_bad_lr(self, make, lr):
        with pytest.raises(ValueError, match="finite and positive"):
            make(np.zeros((3, 2)), lr=lr)

    def test_bad_momentum_rejected(self):
        p = quadratic_param([1.0])
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)

    def test_bad_betas_rejected(self):
        p = quadratic_param([1.0])
        with pytest.raises(ValueError):
            Adam([p], lr=0.1, betas=(1.0, 0.9))


class TestSGD:
    def test_single_step_value(self):
        p = quadratic_param([2.0])
        SGD([p], lr=0.1).zero_grad()
        opt = SGD([p], lr=0.1)
        (p * p).sum().backward()
        opt.step()
        # x <- x - lr * 2x = 2 - 0.1*4 = 1.6
        assert p.data[0] == pytest.approx(1.6)

    def test_converges_on_quadratic(self):
        p = quadratic_param([3.0, -4.0])
        assert step_quadratic(SGD([p], lr=0.1), p, 100) < 1e-6

    def test_momentum_accelerates(self):
        p1 = quadratic_param([3.0])
        p2 = quadratic_param([3.0])
        plain = step_quadratic(SGD([p1], lr=0.01), p1, 50)
        momentum = step_quadratic(SGD([p2], lr=0.01, momentum=0.9), p2, 50)
        assert momentum < plain

    def test_skips_parameters_without_grad(self):
        p = quadratic_param([1.0])
        opt = SGD([p], lr=0.1)
        opt.step()  # no backward happened
        assert p.data[0] == 1.0


class TestAdam:
    def test_converges_on_quadratic(self):
        p = quadratic_param([3.0, -4.0])
        assert step_quadratic(Adam([p], lr=0.1), p, 300) < 1e-4

    def test_first_step_is_lr_sized(self):
        """Adam's bias-corrected first step has magnitude ~lr."""
        p = quadratic_param([5.0])
        opt = Adam([p], lr=0.1)
        (p * p).sum().backward()
        opt.step()
        assert p.data[0] == pytest.approx(5.0 - 0.1, abs=1e-6)

    def test_handles_ill_conditioned(self):
        """Adam equalizes very different curvatures."""
        p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        scale = Tensor(np.array([100.0, 0.01]))
        opt = Adam([p], lr=0.05)
        for _ in range(500):
            opt.zero_grad()
            (p * p * scale).sum().backward()
            opt.step()
        assert np.abs(p.data).max() < 0.05

    def test_zero_grad_clears_all(self):
        p = quadratic_param([1.0])
        opt = Adam([p], lr=0.1)
        (p * p).sum().backward()
        opt.zero_grad()
        assert p.grad is None


class TestGradientNorm:
    def test_matches_manual_norm(self):
        from repro.nn.optim import gradient_norm

        grads = [np.array([3.0, 4.0]), None, np.array([[0.0]])]
        assert gradient_norm(grads) == pytest.approx(5.0)

    def test_empty_and_all_none(self):
        from repro.nn.optim import gradient_norm

        assert gradient_norm([]) == 0.0
        assert gradient_norm([None, None]) == 0.0

    def test_reduces_in_parameter_dtype(self):
        """A float32 gradient is measured in float32 — no silent float64
        copy of a potentially huge array just to take its norm."""
        from repro.nn.optim import gradient_norm

        grad = np.array([0.1, 0.2, 0.3], dtype=np.float32)
        in_dtype = float(np.sqrt(float(np.dot(grad, grad))))
        upcast = float(np.sqrt(np.dot(grad.astype(np.float64), grad.astype(np.float64))))
        assert gradient_norm([grad]) == in_dtype
        assert gradient_norm([grad]) != upcast

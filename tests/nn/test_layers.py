"""Finite-difference gradient checks for every layer's reference passes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_nn import reference

from repro.nn.layers import AvgPool2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU, Tanh


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = f()
        x[idx] = orig - eps
        lo = f()
        x[idx] = orig
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


def check_layer_gradients(layer, x, atol=1e-5):
    """Check input and parameter gradients against finite differences."""
    rng = np.random.default_rng(0)
    layer = reference(layer)
    out = layer.forward(x)
    upstream = rng.standard_normal(out.shape)

    def scalar_loss():
        return float(np.sum(layer.forward(x) * upstream))

    layer.zero_grad()
    layer.forward(x)
    dx = layer.backward(upstream)

    np.testing.assert_allclose(dx, numeric_grad(scalar_loss, x), atol=atol)
    for p, g in zip(layer.params, layer.grads):
        np.testing.assert_allclose(g, numeric_grad(scalar_loss, p), atol=atol)


class TestLinear:
    def test_gradients(self):
        rng = np.random.default_rng(1)
        layer = Linear(5, 3, rng)
        check_layer_gradients(layer, rng.standard_normal((4, 5)))

    def test_output_shape(self):
        rng = np.random.default_rng(2)
        layer = reference(Linear(7, 2, rng))
        assert layer.forward(rng.standard_normal((10, 7))).shape == (10, 2)

    def test_grads_accumulate(self):
        rng = np.random.default_rng(3)
        layer = reference(Linear(3, 2, rng))
        x = rng.standard_normal((2, 3))
        g = np.ones((2, 2))
        layer.forward(x)
        layer.backward(g)
        once = layer.grads[0].copy()
        layer.forward(x)
        layer.backward(g)
        np.testing.assert_allclose(layer.grads[0], 2 * once)

    def test_backward_before_forward_raises(self):
        layer = reference(Linear(3, 2, np.random.default_rng(0)))
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))


class TestActivations:
    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_relu_gradients(self, n, d):
        rng = np.random.default_rng(n * 100 + d)
        # Shift away from 0 to avoid the kink in finite differences.
        x = rng.standard_normal((n, d))
        x[np.abs(x) < 0.05] += 0.1
        check_layer_gradients(ReLU(), x)

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_tanh_gradients(self, n, d):
        rng = np.random.default_rng(n * 100 + d)
        check_layer_gradients(Tanh(), rng.standard_normal((n, d)))

    def test_relu_clamps(self):
        out = reference(ReLU()).forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])


class TestFlatten:
    def test_roundtrip(self):
        layer = reference(Flatten())
        x = np.arange(24.0).reshape(2, 3, 2, 2)
        out = layer.forward(x)
        assert out.shape == (2, 12)
        back = layer.backward(out)
        np.testing.assert_array_equal(back, x)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_gradients(self, stride, padding):
        rng = np.random.default_rng(4)
        layer = Conv2d(2, 3, 3, rng, stride=stride, padding=padding)
        check_layer_gradients(layer, rng.standard_normal((2, 2, 6, 6)))

    def test_output_shape(self):
        rng = np.random.default_rng(5)
        layer = reference(Conv2d(1, 4, 3, rng, padding=1))
        assert layer.forward(rng.standard_normal((3, 1, 8, 8))).shape == (3, 4, 8, 8)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(6)
        layer = reference(Conv2d(1, 1, 2, rng))
        x = rng.standard_normal((1, 1, 3, 3))
        out = layer.forward(x)
        w, b = layer.weight[0, 0], layer.bias[0]
        for i in range(2):
            for j in range(2):
                expected = np.sum(x[0, 0, i : i + 2, j : j + 2] * w) + b
                assert out[0, 0, i, j] == pytest.approx(expected)


class TestPooling:
    def test_maxpool_gradients(self):
        rng = np.random.default_rng(7)
        # Distinct values avoid max ties, keeping finite differences valid.
        x = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)
        check_layer_gradients(MaxPool2d(2), x)

    def test_avgpool_gradients(self):
        rng = np.random.default_rng(8)
        check_layer_gradients(AvgPool2d(2), rng.standard_normal((2, 3, 4, 4)))

    def test_maxpool_values(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert reference(MaxPool2d(2)).forward(x)[0, 0, 0, 0] == 4.0

    def test_maxpool_tie_splits_gradient(self):
        x = np.ones((1, 1, 2, 2))
        layer = reference(MaxPool2d(2))
        layer.forward(x)
        dx = layer.backward(np.ones((1, 1, 1, 1)))
        # Gradient mass preserved across the tied maxima.
        assert dx.sum() == pytest.approx(1.0)

    def test_odd_input_cropped(self):
        x = np.arange(25.0).reshape(1, 1, 5, 5)
        out = reference(MaxPool2d(2)).forward(x)
        assert out.shape == (1, 1, 2, 2)

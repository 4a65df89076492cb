"""Tests for Sequential, parameter flattening, training, and DP-SGD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_nn import l2_clip, per_sample_clipped_gradient_sum, reference, train_epochs

from repro.core.metrics import accuracy_of
from repro.nn.dpsgd import dpsgd_train
from repro.nn.layers import TRAIN_DTYPE
from repro.nn.losses import BCEWithLogitsLoss, SoftmaxCrossEntropyLoss
from repro.nn.model import (
    Sequential,
    build_cox_linear,
    build_creditcard_mlp,
    build_logistic,
    build_mnist_cnn,
    build_tiny_mlp,
)


class TestFlattening:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        model = build_tiny_mlp(4, 8, 2, rng)
        flat = model.get_flat_params()
        assert flat.size == model.num_params
        model.set_flat_params(np.zeros_like(flat))
        assert np.all(model.get_flat_params() == 0)
        model.set_flat_params(flat)
        np.testing.assert_array_equal(model.get_flat_params(), flat)

    def test_set_preserves_layer_views(self):
        rng = np.random.default_rng(1)
        model = build_tiny_mlp(3, 4, 2, rng)
        first_weight = model.layers[0].weight
        model.set_flat_params(np.ones(model.num_params))
        # The layer's array object must be updated in place, not replaced.
        assert first_weight is model.layers[0].weight
        assert np.all(first_weight == 1.0)

    def test_rejects_wrong_size(self):
        model = build_tiny_mlp(3, 4, 2, np.random.default_rng(2))
        with pytest.raises(ValueError):
            model.set_flat_params(np.zeros(model.num_params + 1))

    def test_clone_is_independent(self):
        rng = np.random.default_rng(3)
        model = build_tiny_mlp(3, 4, 2, rng)
        clone = model.clone()
        clone.set_flat_params(np.zeros(clone.num_params))
        assert not np.all(model.get_flat_params() == 0)

    def test_flat_grads_match_layer_grads(self):
        rng = np.random.default_rng(4)
        model = reference(build_tiny_mlp(3, 4, 2, rng))
        x = rng.standard_normal((5, 3))
        loss = reference(SoftmaxCrossEntropyLoss())
        model.zero_grad()
        loss.forward(model.forward(x), np.zeros(5, dtype=int))
        model.backward(loss.backward())
        flat = model.get_flat_grads()
        assert flat.size == model.num_params
        assert np.linalg.norm(flat) > 0


class TestModelFactories:
    def test_creditcard_mlp_size(self):
        model = build_creditcard_mlp(np.random.default_rng(0))
        assert 3500 <= model.num_params <= 4500  # paper: ~4K params

    def test_mnist_cnn_size(self):
        model = build_mnist_cnn(np.random.default_rng(0))
        assert 15000 <= model.num_params <= 25000  # paper: ~20K params

    def test_small_medical_models(self):
        assert build_logistic(np.random.default_rng(0)).num_params < 100
        assert build_cox_linear(np.random.default_rng(0)).num_params < 100

    def test_mnist_cnn_forward_shape(self):
        rng = np.random.default_rng(1)
        model = build_mnist_cnn(rng)
        out = reference(model).forward(rng.standard_normal((3, 1, 14, 14)))
        assert out.shape == (3, 10)


class TestTraining:
    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(5)
        n = 120
        x = rng.standard_normal((n, 4))
        y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
        model = reference(build_tiny_mlp(4, 16, 2, rng))
        loss = SoftmaxCrossEntropyLoss()
        before = loss.forward(model.forward(x), y)
        train_epochs(model, loss, x, y, lr=0.5, epochs=30, rng=rng, batch_size=32)
        after = loss.forward(model.forward(x), y)
        assert after < before
        assert accuracy_of(model.forward(x), y) > 0.85

    def test_full_batch_deterministic(self):
        rng1 = np.random.default_rng(6)
        x = rng1.standard_normal((20, 3))
        y = rng1.integers(0, 2, 20)
        m1 = build_tiny_mlp(3, 5, 2, np.random.default_rng(7))
        m2 = build_tiny_mlp(3, 5, 2, np.random.default_rng(7))
        train_epochs(m1, SoftmaxCrossEntropyLoss(), x, y, 0.1, 5, np.random.default_rng(8))
        train_epochs(m2, SoftmaxCrossEntropyLoss(), x, y, 0.1, 5, np.random.default_rng(9))
        # Full-batch (batch_size=None) ignores shuffling, so results agree
        # despite different rngs.
        np.testing.assert_allclose(m1.get_flat_params(), m2.get_flat_params())

    def test_rejects_empty_dataset(self):
        model = build_tiny_mlp(3, 4, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            train_epochs(
                model,
                SoftmaxCrossEntropyLoss(),
                np.zeros((0, 3)),
                np.zeros(0),
                0.1,
                1,
                np.random.default_rng(0),
            )

    def test_binary_accuracy_single_logit(self):
        rng = np.random.default_rng(11)
        model = build_logistic(rng, in_features=2)
        model.set_flat_params(np.array([1.0, 0.0, 0.0]))  # w=(1,0), b=0
        x = np.array([[2.0, 0.0], [-2.0, 0.0]])
        assert accuracy_of(reference(model).forward(x), np.array([1, 0])) == 1.0


class TestDpSgd:
    def test_per_sample_clipping_bounds_sum(self):
        rng = np.random.default_rng(12)
        model = build_tiny_mlp(3, 4, 2, rng)
        x = rng.standard_normal((6, 3)) * 100  # force large gradients
        y = rng.integers(0, 2, 6)
        clip = 0.5
        total = per_sample_clipped_gradient_sum(
            model, SoftmaxCrossEntropyLoss(), x, y, clip
        )
        assert np.linalg.norm(total) <= 6 * clip + 1e-9

    def test_zero_noise_full_sampling_is_clipped_gd(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((8, 3))
        y = rng.integers(0, 2, 8)
        m1 = build_tiny_mlp(3, 4, 2, np.random.default_rng(14))
        m2 = m1.clone()
        loss = SoftmaxCrossEntropyLoss()
        dpsgd_train(
            m1, loss, x, y, lr=0.1, steps=1, clip=1e9, noise_multiplier=0.0,
            sample_rate=1.0, rng=np.random.default_rng(15),
        )
        # Manual: plain full-batch mean gradient step (clip too large to
        # bind), the gradient taken in TRAIN_DTYPE like the per-sample walk.
        ref = reference(m2.astype(TRAIN_DTYPE))
        loss2 = reference(SoftmaxCrossEntropyLoss())
        loss2.forward(ref.forward(x.astype(TRAIN_DTYPE)), y)
        ref.zero_grad()
        ref.backward(loss2.backward())
        m2.set_flat_params(m2.get_flat_params() - 0.1 * ref.get_flat_grads())
        # The walk's 8 per-sample float32 gradients, averaged in float64,
        # against one float32 mean: at most 1.2 float32 ulps of an O(1)
        # gradient entry apart over 200 seeds, times lr = 0.1.
        eps32 = np.finfo(TRAIN_DTYPE).eps
        np.testing.assert_allclose(
            m1.get_flat_params(), m2.get_flat_params(), rtol=0, atol=0.1 * 16 * eps32)

    def test_noise_changes_parameters(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((5, 3))
        y = rng.integers(0, 2, 5)
        model = build_tiny_mlp(3, 4, 2, rng)
        before = model.get_flat_params()
        dpsgd_train(
            model, SoftmaxCrossEntropyLoss(), x, y, lr=0.1, steps=1, clip=1.0,
            noise_multiplier=1.0, sample_rate=0.5, rng=np.random.default_rng(17),
        )
        assert not np.allclose(before, model.get_flat_params())

    def test_rejects_bad_parameters(self):
        rng = np.random.default_rng(18)
        model = build_tiny_mlp(3, 4, 2, rng)
        x, y = np.zeros((2, 3)), np.zeros(2)
        loss = SoftmaxCrossEntropyLoss()
        with pytest.raises(ValueError):
            dpsgd_train(model, loss, x, y, 0.1, 1, clip=1.0, noise_multiplier=1.0,
                        sample_rate=0.0, rng=rng)
        with pytest.raises(ValueError):
            dpsgd_train(model, loss, x, y, 0.1, 1, clip=-1.0, noise_multiplier=1.0,
                        sample_rate=0.5, rng=rng)
        with pytest.raises(ValueError):
            dpsgd_train(model, loss, x, y, 0.1, 1, clip=1.0, noise_multiplier=-1.0,
                        sample_rate=0.5, rng=rng)


class TestClipping:
    @given(st.integers(1, 30), st.floats(0.1, 10.0))
    @settings(max_examples=50)
    def test_clip_norm_bound(self, dim, clip):
        rng = np.random.default_rng(dim)
        v = rng.standard_normal(dim) * 10
        clipped = l2_clip(v, clip)
        assert np.linalg.norm(clipped) <= clip + 1e-9

    def test_short_vector_unchanged(self):
        v = np.array([0.1, 0.2])
        np.testing.assert_array_equal(l2_clip(v, 10.0), v)

    def test_direction_preserved(self):
        v = np.array([3.0, 4.0])
        clipped = l2_clip(v, 1.0)
        np.testing.assert_allclose(clipped, v / 5.0)

    def test_zero_vector(self):
        np.testing.assert_array_equal(l2_clip(np.zeros(3), 1.0), np.zeros(3))

    def test_returns_copy(self):
        v = np.array([1.0, 2.0])
        out = l2_clip(v, 10.0)
        out[0] = 99.0
        assert v[0] == 1.0

    def test_rejects_nonpositive_clip(self):
        with pytest.raises(ValueError):
            l2_clip(np.ones(2), 0.0)

    def test_nonfinite_vector_clipped_to_zero(self):
        # inf * min(1, C/inf) would be NaN; the clip must instead drop the
        # diverged update entirely (sensitivity-preserving).
        out = l2_clip(np.array([np.inf, 1.0]), 1.0)
        np.testing.assert_array_equal(out, [0.0, 0.0])
        out = l2_clip(np.array([np.nan, 1.0]), 1.0)
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_nonfinite_clip_factor_is_zero(self):
        from repro.nn.clip import clip_factor_rows

        assert clip_factor_rows(np.array([[np.inf]]), 1.0)[0] == 0.0

"""Unit tests for the batched-leading-axis nn substrate.

Covers the per-group-parameters machinery (``Batched*`` layers,
:class:`BatchedSequential`) and the shared-weight per-group gradient
engine (:func:`repro.nn.batched.per_group_gradients`) against per-group
reference computations with the standard layers.
"""

import numpy as np
import pytest

from repro.nn.batched import per_group_gradients
from repro.nn.clip import clip_factor_rows, l2_clip, l2_clip_rows
from repro.nn.layers import (
    AvgPool2d,
    BatchedLinear,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Tanh,
)
from repro.nn.losses import (
    BCEWithLogitsLoss,
    CoxPHLoss,
    DegenerateBatchError,
    SoftmaxCrossEntropyLoss,
)
from repro.nn.model import Sequential, batch_model, build_mnist_cnn, build_tiny_mlp


def reference_gradients(model, loss_factory, datasets):
    """Per-group gradients via one standard forward/backward per group."""
    rows = []
    for x, y in datasets:
        local = model.clone()
        loss = loss_factory()
        local.zero_grad()
        try:
            loss.forward(local.forward(x), y)
            local.backward(loss.backward())
            rows.append(local.get_flat_grads())
        except DegenerateBatchError:
            rows.append(np.zeros(local.num_params))
    return np.stack(rows)


class TestBatchedSequential:
    def test_flat_params_roundtrip(self):
        model = build_tiny_mlp(5, 4, 3, np.random.default_rng(0))
        bm = batch_model(model, groups=3)
        bm.set_flat_params(model.get_flat_params())
        flat = bm.get_flat_params()
        assert flat.shape == (3, model.num_params)
        np.testing.assert_array_equal(flat[0], model.get_flat_params())
        np.testing.assert_array_equal(flat[1], flat[2])
        per_group = np.arange(3 * model.num_params, dtype=float).reshape(3, -1)
        bm.set_flat_params(per_group)
        np.testing.assert_array_equal(bm.get_flat_params(), per_group)

    def test_wrong_param_shape_rejected(self):
        model = build_tiny_mlp(5, 4, 3, np.random.default_rng(0))
        bm = batch_model(model, groups=2)
        with pytest.raises(ValueError):
            bm.set_flat_params(np.zeros(7))
        with pytest.raises(ValueError):
            bm.set_flat_params(np.zeros((3, model.num_params)))

    def test_forward_matches_per_group_models(self):
        rng = np.random.default_rng(1)
        model = build_tiny_mlp(6, 5, 2, np.random.default_rng(2))
        bm = batch_model(model, groups=4)
        params = np.stack(
            [model.get_flat_params() + 0.1 * g for g in range(4)]
        )
        bm.set_flat_params(params)
        x = rng.standard_normal((4, 7, 6))
        out = bm.forward(x)
        for g in range(4):
            local = model.clone()
            local.set_flat_params(params[g])
            np.testing.assert_allclose(out[g], local.forward(x[g]), atol=1e-12)

    def test_cnn_forward_backward_matches(self):
        rng = np.random.default_rng(3)
        model = build_mnist_cnn(np.random.default_rng(4), image_size=14, n_classes=3)
        bm = batch_model(model, groups=2)
        bm.set_flat_params(model.get_flat_params())
        x = rng.standard_normal((2, 3, 1, 14, 14))
        out = bm.forward(x)
        bm.zero_grad()
        bm.backward(np.ones_like(out))
        grads = bm.get_flat_grads()
        for g in range(2):
            local = model.clone()
            ref_out = local.forward(x[g])
            local.zero_grad()
            local.backward(np.ones_like(ref_out))
            np.testing.assert_allclose(out[g], ref_out, atol=1e-12)
            np.testing.assert_allclose(grads[g], local.get_flat_grads(), atol=1e-12)

    def test_unsupported_layer_rejected(self):
        from repro.nn.model import Sequential

        with pytest.raises(TypeError):
            batch_model(Sequential([BatchedLinear(2, 2, 1)]), groups=2)


class TestBatchedLinear:
    def test_shape_validation(self):
        layer = BatchedLinear(3, 2, groups=2)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((3, 4, 3)))  # wrong group count
        with pytest.raises(ValueError):
            BatchedLinear(3, 2, groups=0)


class TestPerGroupGradients:
    @pytest.mark.parametrize("hidden", [4, 8])
    def test_matches_reference_mlp(self, hidden):
        rng = np.random.default_rng(0)
        model = build_tiny_mlp(6, hidden, 3, np.random.default_rng(1))
        datasets = []
        for _ in range(5):
            n = int(rng.integers(1, 7))
            datasets.append(
                (rng.standard_normal((n, 6)), rng.integers(0, 3, size=n))
            )
        ref = reference_gradients(model, SoftmaxCrossEntropyLoss, datasets)
        x = np.concatenate([d[0] for d in datasets])
        y = np.concatenate([d[1] for d in datasets])
        out = per_group_gradients(
            model, SoftmaxCrossEntropyLoss(), x, y, [len(d[0]) for d in datasets]
        )
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_matches_reference_cnn(self):
        rng = np.random.default_rng(2)
        model = build_mnist_cnn(np.random.default_rng(3), image_size=14, n_classes=4)
        datasets = []
        for _ in range(4):
            n = int(rng.integers(1, 5))
            datasets.append(
                (rng.standard_normal((n, 1, 14, 14)), rng.integers(0, 4, size=n))
            )
        ref = reference_gradients(model, SoftmaxCrossEntropyLoss, datasets)
        x = np.concatenate([d[0] for d in datasets])
        y = np.concatenate([d[1] for d in datasets])
        out = per_group_gradients(
            model, SoftmaxCrossEntropyLoss(), x, y, [len(d[0]) for d in datasets]
        )
        np.testing.assert_allclose(out, ref, atol=1e-12)

    @pytest.mark.parametrize("variant", ["strided-avgpool-tanh", "pool-then-relu", "flatten-mlp"])
    def test_matches_reference_other_stacks(self, variant):
        """The stage kinds the MNIST CNN does not have: stride 2 without
        padding, average pooling, Tanh, an activation *after* a pool (which
        must not run in place on the pool's cached output), and a
        parameterless layer the dense walk hands to its own forward."""
        init = np.random.default_rng(8)
        if variant == "strided-avgpool-tanh":
            layers = [
                Conv2d(1, 4, 3, init, stride=2), Tanh(), AvgPool2d(2),
                Conv2d(4, 6, 3, init, padding=1), ReLU(),
                Flatten(), Linear(54, 5, init), Tanh(), Linear(5, 3, init),
            ]
        elif variant == "pool-then-relu":
            layers = [
                Conv2d(1, 3, 3, init, padding=1), MaxPool2d(2), ReLU(),
                Conv2d(3, 4, 3, init), AvgPool2d(2), Tanh(),
                Flatten(), Linear(16, 3, init),
            ]
        else:
            layers = [Flatten(), Linear(196, 6, init), ReLU(), Linear(6, 3, init)]
        model = Sequential(layers)
        rng = np.random.default_rng(9)
        sizes = [1, 3, 1, 2]
        datasets = [
            (rng.standard_normal((n, 1, 14, 14)), rng.integers(0, 3, size=n))
            for n in sizes
        ]
        ref = reference_gradients(model, SoftmaxCrossEntropyLoss, datasets)
        x = np.concatenate([d[0] for d in datasets])
        y = np.concatenate([d[1] for d in datasets])
        for _ in range(2):  # overflowing first call, slab-served second
            out = per_group_gradients(model, SoftmaxCrossEntropyLoss(), x, y, sizes)
            np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_no_groups_and_single_record_groups(self):
        model = build_mnist_cnn(np.random.default_rng(3), image_size=14, n_classes=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 1, 14, 14))
        y = rng.integers(0, 4, size=5)
        empty = per_group_gradients(model, SoftmaxCrossEntropyLoss(), x[:0], y[:0], [])
        assert empty.shape == (0, model.num_params)
        ref = reference_gradients(
            model, SoftmaxCrossEntropyLoss, [(x[i : i + 1], y[i : i + 1]) for i in range(5)]
        )
        out = per_group_gradients(model, SoftmaxCrossEntropyLoss(), x, y, [1] * 5)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    @pytest.mark.parametrize("variant", ["no-flatten", "two-flattens"])
    def test_matches_reference_conv_outside_a_recognised_stack(self, variant):
        """A Conv2d the channels-last walk does not claim goes through the
        generic walk's own (NCHW) convolution rule: padded and strided
        convolutions, a first layer (no input gradient) and inner ones."""
        init = np.random.default_rng(8)
        if variant == "no-flatten":
            layers = [
                Conv2d(2, 3, 3, init, padding=1), Tanh(), MaxPool2d(2),
                Conv2d(3, 1, 3, init), ReLU(), Conv2d(1, 1, 1, init),
            ]
        else:
            layers = [
                Conv2d(2, 3, 3, init, stride=2), ReLU(), Flatten(),
                Linear(12, 4, init), Flatten(), Linear(4, 1, init),
            ]
        model = Sequential(layers)
        rng = np.random.default_rng(9)
        sizes = [1, 3, 1, 2]
        datasets = [
            (rng.standard_normal((n, 2, 6, 6)), rng.integers(0, 2, size=n).astype(float))
            for n in sizes
        ]
        ref = reference_gradients(model, BCEWithLogitsLoss, datasets)
        x = np.concatenate([d[0] for d in datasets])
        y = np.concatenate([d[1] for d in datasets])
        for _ in range(2):  # overflowing first call, slab-served second
            out = per_group_gradients(model, BCEWithLogitsLoss(), x, y, sizes)
            np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_parameterised_layer_without_a_rule_is_refused(self):
        with pytest.raises(TypeError, match="BatchedLinear"):
            per_group_gradients(
                Sequential([BatchedLinear(2, 2, 1)]),
                SoftmaxCrossEntropyLoss(), np.zeros((1, 2)), np.zeros(1), [1],
            )

    def test_degenerate_cox_group_is_zero(self):
        rng = np.random.default_rng(4)
        from repro.nn.model import build_cox_linear

        model = build_cox_linear(np.random.default_rng(5), in_features=4)
        datasets = []
        for g in range(3):
            n = 4
            t = rng.random(n)
            e = rng.integers(0, 2, n) if g != 1 else np.zeros(n)
            datasets.append(
                (rng.standard_normal((n, 4)), np.stack([t, e], axis=1))
            )
        ref = reference_gradients(model, CoxPHLoss, datasets)
        assert np.all(ref[1] == 0.0)
        x = np.concatenate([d[0] for d in datasets])
        y = np.concatenate([d[1] for d in datasets])
        out = per_group_gradients(model, CoxPHLoss(), x, y, [4, 4, 4])
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_row_scale_fuses_clipping(self):
        rng = np.random.default_rng(6)
        model = build_tiny_mlp(5, 4, 1, np.random.default_rng(7))
        datasets = [
            (rng.standard_normal((3, 5)), rng.integers(0, 2, 3)) for _ in range(3)
        ]
        x = np.concatenate([d[0] for d in datasets])
        y = np.concatenate([d[1] for d in datasets])
        sizes = [3, 3, 3]
        plain = per_group_gradients(model, BCEWithLogitsLoss(), x, y, sizes)
        seen = []

        def double(norms):
            seen.append(norms)
            return 2.0 * np.ones_like(norms)

        scaled = per_group_gradients(
            model, BCEWithLogitsLoss(), x, y, sizes, row_scale=double
        )
        np.testing.assert_allclose(scaled, 2.0 * plain, atol=1e-12)
        np.testing.assert_allclose(
            seen[0], np.linalg.norm(plain, axis=1), atol=1e-10
        )

    def test_sizes_validation(self):
        model = build_tiny_mlp(3, 2, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            per_group_gradients(
                model, SoftmaxCrossEntropyLoss(), np.zeros((2, 3)), np.zeros(2), [1, 0, 1]
            )
        with pytest.raises(ValueError):
            per_group_gradients(
                model, SoftmaxCrossEntropyLoss(), np.zeros((2, 3)), np.zeros(2), [3]
            )


class TestRowClipping:
    def test_matches_scalar_clip(self):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((6, 9)) * np.array([[0.1], [1], [10], [0], [3], [5]])
        clipped = l2_clip_rows(matrix, 1.5)
        for row, ref in zip(clipped, matrix):
            np.testing.assert_allclose(row, l2_clip(ref, 1.5), atol=1e-12)

    def test_nonfinite_rows_zeroed(self):
        matrix = np.ones((3, 4))
        matrix[1, 2] = np.inf
        matrix[2, 0] = np.nan
        clipped = l2_clip_rows(matrix, 1.0)
        assert np.all(clipped[1] == 0.0)
        assert np.all(clipped[2] == 0.0)
        factors = clip_factor_rows(matrix, 1.0)
        assert factors[1] == 0.0 and factors[2] == 0.0

    def test_zero_rows_untouched(self):
        matrix = np.zeros((2, 3))
        assert np.all(l2_clip_rows(matrix, 0.5) == 0.0)
        assert np.all(clip_factor_rows(matrix, 0.5) == 1.0)

    def test_in_place(self):
        matrix = np.full((2, 2), 10.0)
        out = l2_clip_rows(matrix, 1.0, out=matrix)
        assert out is matrix
        np.testing.assert_allclose(np.linalg.norm(matrix, axis=1), 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            l2_clip_rows(np.ones((2, 2)), 0.0)
        with pytest.raises(ValueError):
            clip_factor_rows(np.ones(3), 1.0)

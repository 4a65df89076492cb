"""Unit tests for the walk of :mod:`repro.nn.batched`.

Covers its three entries -- per-group gradients of a shared model
(:func:`repro.nn.batched.per_group_gradients`), one SGD step of many
per-group models (:func:`repro.nn.batched.per_group_step`) and the chunked
forward (:func:`repro.nn.batched.forward_logits`) -- against per-group
reference computations (``reference_nn``, the plain per-layer passes).
Both sides compute in ``TRAIN_DTYPE`` (float32): the references run on a
float32 copy of the model, and results agree to :func:`assert_close32`.
"""

import numpy as np
import pytest
from reference_nn import l2_clip, reference

from repro.nn import batched
from repro.nn.batched import (
    forward_logits,
    per_group_gradients,
    per_group_step,
    scratch_model,
)
from repro.nn.clip import clip_factor_rows, l2_clip_rows
from repro.nn.layers import (
    TRAIN_DTYPE,
    AvgPool2d,
    Conv2d,
    Flatten,
    Layer,
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
from repro.nn.model import Sequential, build_mnist_cnn, build_tiny_mlp


#: float32's machine epsilon, 1.19e-7.
EPS32 = np.finfo(np.float32).eps


def assert_close32(actual, desired):
    """Agreement of two float32 computations that sum in different orders.

    A gradient entry is a sum of up to a few thousand float32 products (a
    CNN filter tap: 196 positions x the group's records); reordering it
    moves it by a few ulps of the largest entry, at most 13 ``EPS32 *
    max|desired|`` over 20 random MNIST-CNN draws.  64 leaves 5x margin.
    A failure reports the observed max |diff| in those units."""
    scale = max(1.0, float(np.abs(desired).max()))
    diff = np.abs(np.subtract(actual, desired, dtype=np.float64)).max()
    np.testing.assert_allclose(
        actual, desired, rtol=0, atol=64 * EPS32 * scale,
        err_msg=f"max |diff| = {diff / (EPS32 * scale):.1f} EPS32 * scale "
                "(tolerance 64)",
    )


def reference_gradients(model, loss_factory, datasets):
    """Per-group gradients via one reference forward/backward per group, in
    ``TRAIN_DTYPE`` as the walk computes them."""
    rows = []
    for x, y in datasets:
        local = reference(model.astype(TRAIN_DTYPE))
        loss = reference(loss_factory())
        local.zero_grad()
        try:
            loss.forward(local.forward(x.astype(TRAIN_DTYPE)), y)
            local.backward(np.asarray(loss.backward(), TRAIN_DTYPE))
            rows.append(local.get_flat_grads())
        except DegenerateBatchError:
            rows.append(np.zeros(local.num_params))
    return np.stack(rows)


#: Stage kinds the MNIST CNN does not have, by name: stride 2 without
#: padding, average pooling, Tanh, an activation *after* a pool (which must
#: not run in place on the pool's cached output), a leading Flatten, a
#: model without a Flatten (its prediction stays 4-D), and a Flatten on
#: 2-D input.
STACKS = ("strided-avgpool-tanh", "pool-then-relu", "flatten-mlp", "no-flatten", "two-flattens")


def build_stack(variant):
    """``(model, record shape)`` of one of :data:`STACKS`."""
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
    elif variant == "flatten-mlp":
        layers = [Flatten(), Linear(196, 6, init), ReLU(), Linear(6, 3, init)]
    elif variant == "no-flatten":
        layers = [
            Conv2d(2, 3, 3, init, padding=1), Tanh(), MaxPool2d(2),
            Conv2d(3, 1, 3, init), ReLU(), Conv2d(1, 1, 1, init),
        ]
    else:  # two-flattens
        layers = [
            Conv2d(2, 3, 3, init, stride=2), ReLU(), Flatten(),
            Linear(12, 4, init), Flatten(), Linear(4, 1, init),
        ]
    shape = (1, 14, 14) if variant in STACKS[:3] else (2, 6, 6)
    return Sequential(layers), shape


class Scale(Layer):
    """A parameterless layer the walk has no rule for."""


class Affine(Layer):
    """A parameterised layer the walk has no rule for."""

    def __init__(self):
        super().__init__()
        self.weight, self.bias = np.eye(2), np.zeros(2)
        self.params = [self.weight, self.bias]


def grouped_weights(locals_):
    """Per layer, each parameter of the ``locals_`` models stacked on a
    leading group axis: the weights :func:`per_group_step` takes."""
    return [
        [np.stack(params) for params in zip(*(local.layers[i].params for local in locals_))]
        for i in range(len(locals_[0].layers))
    ]


def flat(weights, group):
    """Group ``group``'s weights as one flat vector, in the template layout."""
    return np.concatenate([w[group].ravel() for layer in weights for w in layer])


class TestPerGroupStep:
    @pytest.mark.parametrize("kind", ["mlp", "cnn", *STACKS])
    def test_matches_each_groups_own_float32_gradient(self, kind):
        """Groups on different weight sets, with padded runs: each group
        steps by its own float32 reference forward/backward
        gradient of the mean loss over its valid records.  Every rule runs
        on per-group weights: dense and convolution layers (padded,
        strided, first and inner), max and average pooling, ReLU and Tanh,
        a leading Flatten, no Flatten, and a Flatten on 2-D input."""
        init = np.random.default_rng(4)
        if kind == "mlp":
            model, shape = build_tiny_mlp(6, 5, 3, init), (6,)
        elif kind == "cnn":
            model, shape = build_mnist_cnn(init, image_size=14, n_classes=3), (1, 14, 14)
        else:
            model, shape = build_stack(kind)
        binary = kind in ("no-flatten", "two-flattens")
        loss_factory = BCEWithLogitsLoss if binary else SoftmaxCrossEntropyLoss
        rng = np.random.default_rng(11)
        counts = np.array([3, 1, 4, 2])
        groups, n = len(counts), int(counts.max())
        base = model.get_flat_params()
        locals_ = []
        for _ in range(groups):
            local = model.astype(TRAIN_DTYPE)
            local.set_flat_params(base + 0.1 * rng.standard_normal(base.size))
            locals_.append(local)
        weights = grouped_weights(locals_)
        x = rng.standard_normal((groups, n, *shape)).astype(TRAIN_DTYPE)
        y = rng.integers(0, 2 if binary else 3, size=(groups, n)).astype(float)
        valid = np.arange(n) < counts[:, None]
        before = [flat(weights, g) for g in range(groups)]
        # lr = 1: the step is ``weight -= grad`` with one rounding, so
        # ``before - after`` recovers the gradient to a few ulps of |weight|.
        for _ in range(2):  # overflowing first call, slab-served second
            grouped = [[w.copy() for w in layer] for layer in weights]
            per_group_step(model, grouped, loss_factory(), x, y, valid, 1.0)
            for g, local in enumerate(map(reference, locals_)):
                loss = reference(loss_factory())
                local.zero_grad()
                loss.forward(local.forward(x[g, : counts[g]]), y[g, : counts[g]])
                local.backward(np.asarray(loss.backward(), TRAIN_DTYPE))
                step = np.subtract(before[g], flat(grouped, g), dtype=np.float64)
                assert_close32(step, local.get_flat_grads())

    def test_steps_in_place_with_the_plain_sgd_rounding(self):
        """``grad *= lr; weight -= grad`` in float32, on the caller's arrays."""
        model = build_tiny_mlp(4, 3, 2, np.random.default_rng(0))
        local = model.astype(TRAIN_DTYPE)
        weights = grouped_weights([local, local])
        arrays = [w for layer in weights for w in layer]
        records = np.random.default_rng(1).standard_normal((5, 4)).astype(TRAIN_DTYPE)
        x = np.stack([records, records])  # two groups, one problem
        y = np.zeros((2, 5))
        valid = np.ones((2, 5), bool)
        lr = 0.3
        per_group_step(model, weights, SoftmaxCrossEntropyLoss(), x, y, valid, lr)
        assert all(a is b for a, b in zip((w for layer in weights for w in layer), arrays))
        loss, local = reference(SoftmaxCrossEntropyLoss()), reference(local)
        loss.forward(local.forward(x[0]), y[0])
        local.backward(np.asarray(loss.backward(), TRAIN_DTYPE))
        for w, p, grad in zip(arrays, local.params, local.grads):
            want = p - np.multiply(grad, lr, dtype=TRAIN_DTYPE)
            assert w.dtype == TRAIN_DTYPE
            assert_close32(w[0], want)
            np.testing.assert_array_equal(w[0], w[1])


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
        assert_close32(out, ref)

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
        assert_close32(out, ref)

    @pytest.mark.parametrize("variant", ["strided-avgpool-tanh", "pool-then-relu", "flatten-mlp"])
    def test_matches_reference_other_stacks(self, variant):
        """The stage kinds the MNIST CNN does not have (:data:`STACKS`),
        including a parameterless first layer (no input gradient)."""
        model, shape = build_stack(variant)
        rng = np.random.default_rng(9)
        sizes = [1, 3, 1, 2]
        datasets = [
            (rng.standard_normal((n, *shape)), rng.integers(0, 3, size=n))
            for n in sizes
        ]
        ref = reference_gradients(model, SoftmaxCrossEntropyLoss, datasets)
        x = np.concatenate([d[0] for d in datasets])
        y = np.concatenate([d[1] for d in datasets])
        for _ in range(2):  # overflowing first call, slab-served second
            out = per_group_gradients(model, SoftmaxCrossEntropyLoss(), x, y, sizes)
            assert_close32(out, ref)

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
        assert_close32(out, ref)

    @pytest.mark.parametrize("variant", ["no-flatten", "two-flattens"])
    def test_matches_reference_conv_outside_a_recognised_stack(self, variant):
        """Convolutions outside an ``image -> Flatten -> dense`` stack run
        channels-last like any other: a model whose 4-D prediction goes
        back to NCHW at its end, and a Flatten on 2-D input; padded and
        strided convolutions, a first layer (no input gradient) and inner
        ones."""
        model, shape = build_stack(variant)
        rng = np.random.default_rng(9)
        sizes = [1, 3, 1, 2]
        datasets = [
            (rng.standard_normal((n, *shape)), rng.integers(0, 2, size=n).astype(float))
            for n in sizes
        ]
        ref = reference_gradients(model, BCEWithLogitsLoss, datasets)
        x = np.concatenate([d[0] for d in datasets])
        y = np.concatenate([d[1] for d in datasets])
        for _ in range(2):  # overflowing first call, slab-served second
            out = per_group_gradients(model, BCEWithLogitsLoss(), x, y, sizes)
            assert_close32(out, ref)

    @pytest.mark.parametrize("layer", [Affine, Scale])
    @pytest.mark.parametrize("entry", ["per_group_gradients", "per_group_step", "forward_logits"])
    def test_parameterised_layer_without_a_rule_is_refused(self, layer, entry):
        layer = layer()
        model = Sequential([layer, Linear(2, 2, np.random.default_rng(0))])
        with pytest.raises(TypeError, match=type(layer).__name__):
            if entry == "per_group_gradients":
                per_group_gradients(
                    model, SoftmaxCrossEntropyLoss(), np.zeros((1, 2)), np.zeros(1), [1]
                )
            elif entry == "per_group_step":
                weights = grouped_weights([model.astype(TRAIN_DTYPE)])
                per_group_step(
                    model, weights, SoftmaxCrossEntropyLoss(), np.zeros((1, 1, 2), TRAIN_DTYPE),
                    np.zeros((1, 1)), np.ones((1, 1), bool), 0.1,
                )
            else:
                forward_logits(model, np.zeros((1, 2)))

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
        assert_close32(out, ref)

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


class TestForwardLogits:
    @pytest.mark.parametrize("kind", ["mlp", "cnn", "4-channel-map", *STACKS])
    def test_matches_standard_float32_forward(self, kind, monkeypatch):
        rng = np.random.default_rng(0)
        if kind == "cnn":
            model, x = build_mnist_cnn(rng), rng.standard_normal((23, 1, 14, 14))
        elif kind == "mlp":
            model, x = build_tiny_mlp(5, 7, 3, rng), rng.standard_normal((23, 5))
        elif kind == "4-channel-map":  # (N, 4, 5, 6) logits, in NCHW order
            model = Sequential([Conv2d(2, 3, 3, rng, padding=1), ReLU(), Conv2d(3, 4, 1, rng)])
            x = rng.standard_normal((23, 2, 5, 6))
        else:  # no-flatten: (N, 1, 1, 1) logits, in the template's NCHW order
            model, shape = build_stack(kind)
            x = rng.standard_normal((23, *shape))
        local = scratch_model(model, model.get_flat_params())
        desired = reference(model.astype(TRAIN_DTYPE)).forward(x.astype(TRAIN_DTYPE))
        monkeypatch.setattr(batched, "FORWARD_CHUNK", 5)  # four full chunks + 3
        logits = forward_logits(local, x)
        assert logits.dtype == np.float64 and logits.shape == desired.shape
        assert_close32(logits, desired)

    def test_empty_input(self):
        model = build_tiny_mlp(4, 6, 2, np.random.default_rng(0))
        assert forward_logits(model.astype(TRAIN_DTYPE), np.zeros((0, 4))).size == 0

    def test_scratch_model_is_one_float32_copy_per_template(self):
        model = build_tiny_mlp(4, 6, 2, np.random.default_rng(0))
        before = model.get_flat_params()
        first = scratch_model(model, np.zeros(model.num_params))
        again = scratch_model(model, before)
        assert again is first and first is not model
        assert all(p.dtype == TRAIN_DTYPE for p in first.params)
        np.testing.assert_array_equal(first.get_flat_params(), before.astype(TRAIN_DTYPE))
        np.testing.assert_array_equal(model.get_flat_params(), before)


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

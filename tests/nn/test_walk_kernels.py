"""Bit-for-bit tests of the training walk's layout kernels.

:mod:`repro.nn.batched` reformulated four of its kernels without changing
a bit of what they compute.  The formulations they replaced live on here
as references:

- :func:`strided_im2col`: every patch matrix gathered through one 6-D
  ``as_strided`` view, a single channel included (the walk copies a
  single channel's ``kh*kw`` taps as slices);
- :func:`tap_col2im`: the convolution's input gradient added into the
  canvas one strided ``(N, oh, ow, C)`` tap at a time (the walk adds
  contiguous ``(kw, C)`` runs, in an order that keeps every entry's sum);
- :func:`float_count_maxpool_backward`: max-pool ties counted in float32
  over a wholly zero-filled gradient (the walk counts in ``uint8`` and
  zero-fills only the cropped border);
- no deferred ReLU: a ``ReLU`` directly before a ``MaxPool2d`` runs on
  the full activation (the walk runs it on the pooled output).

The property tests run the walk with its kernels and with every reference
swapped in, on shared weights (:func:`per_group_gradients`, the forward of
:func:`forward_logits`) and on per-group weights (:func:`per_group_step`),
and compare the raw bytes -- so the signs of zeros count too.  Their
records carry MNIST's background, all-zero patches on which a convolution
outputs its bias: with a positive bias the max-pool windows there hold
positive ties, which the backward splits evenly; with a fresh model's
zero bias their max is exactly 0, where the ReLU zeroes the gradient.  CI re-runs them under
``HYPOTHESIS_PROFILE=fuzz``.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.nn import batched
from repro.nn.batched import forward_logits, per_group_gradients, per_group_step
from repro.nn.layers import TRAIN_DTYPE, Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.model import Sequential
from repro.nn.workspace import Workspace

PROPERTY = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def strided_im2col(x, kh, kw, stride, pad, ws):
    """Unfold (N, H, W, C) into (N*P, kh*kw*C) patches with one gather."""
    n, h, w, c = x.shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    cols = ws.take((n * out_h * out_w, kh * kw * c), TRAIN_DTYPE)
    mark = ws.mark()
    if pad:
        padded = ws.take((n, h + 2 * pad, w + 2 * pad, c), TRAIN_DTYPE)
        padded.fill(0.0)
        padded[:, pad:-pad, pad:-pad, :] = x
        x = padded
    s = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, out_h, out_w, kh, kw, c),
        strides=(s[0], s[1] * stride, s[2] * stride, s[1], s[2], s[3]),
        writeable=False,
    )
    np.copyto(cols.reshape(view.shape), view)
    ws.release(mark)
    return cols, out_h, out_w


def tap_col2im(dcols, canvas, stride, pad):
    """Accumulate ``dcols`` (N, oh, ow, kh, kw, C) into the padded
    ``canvas`` one tap at a time and return its un-padded interior."""
    out_h, out_w, kh, kw = dcols.shape[1:5]
    canvas.fill(0.0)
    for i in range(kh):
        for j in range(kw):
            canvas[
                :, i : i + stride * out_h : stride, j : j + stride * out_w : stride, :
            ] += dcols[:, :, :, i, j, :]
    return canvas[:, pad:-pad, pad:-pad, :] if pad else canvas


def float_count_maxpool_backward(x, out, grad, size, ws):
    """Max-pool backward with float32 tie counts over a zero-filled ``dx``."""
    dx = ws.take(x.shape, TRAIN_DTYPE)
    dx.fill(0.0)
    mark = ws.mark()
    masks = [
        np.equal(window, out, out=ws.take(out.shape, bool))
        for window in batched._pool_windows(x, size)
    ]
    counts = ws.take(out.shape, TRAIN_DTYPE)
    counts.fill(0.0)
    for mask in masks:
        counts += mask
    scaled = np.divide(grad, counts, out=ws.take(out.shape, TRAIN_DTYPE))
    for mask, window in zip(masks, batched._pool_windows(dx, size)):
        np.multiply(mask, scaled, out=window)
    ws.release(mark)
    return dx


@contextmanager
def reference_kernels():
    """The walk with every replaced formulation swapped back in."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batched, "_im2col_nhwc", strided_im2col)
        patch.setattr(batched, "_col2im_nhwc", tap_col2im)
        patch.setattr(batched, "_maxpool_nhwc_backward", float_count_maxpool_backward)
        patch.setattr(batched, "_deferred_relus", lambda layers: set())
        yield


def assert_same_bits(actual, desired):
    assert actual.dtype == desired.dtype and actual.shape == desired.shape
    assert np.array_equal(actual, desired, equal_nan=True)
    assert actual.tobytes() == desired.tobytes(), "same values, different zero signs"


def background_records(rng, n, channels, size):
    """``n`` NCHW records that are zero outside one random rectangle each,
    like MNIST's digits on an empty background."""
    x = rng.standard_normal((n, channels, size, size))
    for record in x:
        top, left = rng.integers(0, size - 1, size=2)
        keep = np.zeros((size, size), dtype=bool)
        keep[top : top + rng.integers(1, size), left : left + rng.integers(1, size)] = True
        record[:, ~keep] = 0.0
    return x.astype(TRAIN_DTYPE)


layer_shapes = st.fixed_dictionaries({
    "in_c": st.sampled_from([1, 3]),
    "channels": st.sampled_from([1, 3, 16]),
    "kernel": st.sampled_from([1, 3, 5]),
    "stride": st.sampled_from([1, 2]),
    "padding": st.sampled_from([0, 1, 2]),
    "size": st.integers(6, 13),  # odd sizes crop the pools' last row/column
    # An all-zero patch convolves to the bias: positive ties, windows whose
    # max is exactly 0 (a fresh model's zero bias) or negative.
    "bias": st.sampled_from(["positive", "zero", "mixed"]),
    "seed": st.integers(0, 2**32 - 1),
})


def conv_pool_stack(shape):
    """``Conv(3x3, pad 1) ReLU MaxPool(2)`` into a second convolution of
    the drawn kernel / stride / padding with ``channels`` input channels,
    ``ReLU MaxPool(2)`` again, then a dense head, with the drawn biases."""
    h1 = shape["size"] // 2
    k, stride, pad = shape["kernel"], shape["stride"], shape["padding"]
    assume(h1 + 2 * pad >= k)
    h2 = (h1 + 2 * pad - k) // stride + 1
    assume(h2 >= 2)
    rng = np.random.default_rng(shape["seed"])
    first = Conv2d(shape["in_c"], shape["channels"], 3, rng, padding=1)
    second = Conv2d(shape["channels"], 4, k, rng, stride=stride, padding=pad)
    low = {"positive": 0.05, "zero": 0.0, "mixed": -0.5}[shape["bias"]]
    for conv in (first, second):
        conv.bias[...] = rng.uniform(low, 0.5, size=conv.bias.shape) if low else 0.0
    model = Sequential([
        first, ReLU(), MaxPool2d(2), second, ReLU(), MaxPool2d(2),
        Flatten(), Linear(4 * (h2 // 2) ** 2, 3, rng),
    ])
    return model.astype(TRAIN_DTYPE), rng


@PROPERTY
@given(shape=layer_shapes)
def test_shared_weight_walk_keeps_the_reference_bits(shape):
    model, rng = conv_pool_stack(shape)
    sizes = [2, 1, 3]
    x = background_records(rng, sum(sizes), shape["in_c"], shape["size"])
    y = rng.integers(0, 3, size=len(x))

    def run():
        logits = forward_logits(model, x)
        rows = per_group_gradients(model, SoftmaxCrossEntropyLoss(), x, y, sizes)
        return logits, rows

    logits, rows = run()
    with reference_kernels():
        want_logits, want_rows = run()
    assert_same_bits(logits, want_logits)
    assert_same_bits(rows, want_rows)


@PROPERTY
@given(shape=layer_shapes)
def test_per_group_walk_keeps_the_reference_bits(shape):
    model, rng = conv_pool_stack(shape)
    groups, n = 3, 2
    x = background_records(rng, groups * n, shape["in_c"], shape["size"])
    x = x.reshape(groups, n, *x.shape[1:])
    y = rng.integers(0, 3, size=(groups, n))
    valid = np.array([[True, True], [True, False], [True, True]])

    def step():
        # Each group's weights start apart, so the batched GEMMs differ per group.
        jitter = np.random.default_rng(shape["seed"])
        weights = [
            [
                np.stack([
                    p + 0.01 * g * jitter.standard_normal(p.shape) for g in range(groups)
                ]).astype(TRAIN_DTYPE)
                for p in layer.params
            ]
            for layer in model.layers
        ]
        per_group_step(model, weights, SoftmaxCrossEntropyLoss(), x, y, valid, 0.1)
        return np.concatenate([w.ravel() for layer in weights for w in layer])

    stepped = step()
    with reference_kernels():
        want = step()
    assert_same_bits(stepped, want)


@PROPERTY
@given(shape=layer_shapes, groups=st.sampled_from([None, 2]))
def test_patch_kernels_match_the_reference_formulations(shape, groups):
    """im2col and col2im alone, over the whole drawn grid (no model)."""
    rng = np.random.default_rng(shape["seed"])
    k, stride, pad, c = shape["kernel"], shape["stride"], shape["padding"], shape["channels"]
    size = shape["size"]
    x = background_records(rng, 4, c, size).transpose(0, 2, 3, 1).copy()
    ws = Workspace()
    cols, oh, ow = batched._im2col_nhwc(x, k, k, stride, pad, ws)
    want, want_oh, want_ow = strided_im2col(x, k, k, stride, pad, Workspace())
    assert (oh, ow) == (want_oh, want_ow)
    assert_same_bits(cols, want)

    # The input gradient of one GEMM over shared or per-group weights.
    out_c = 4
    grad = rng.standard_normal((len(cols), out_c)).astype(TRAIN_DTYPE)
    lead = () if groups is None else (groups,)
    w_nhwc = rng.standard_normal((*lead, k * k * c, out_c)).astype(TRAIN_DTYPE)
    dcols = np.empty((4, oh, ow, k, k, c), TRAIN_DTYPE)
    batched._gemm(grad, np.swapaxes(w_nhwc, -1, -2), dcols.reshape(len(grad), -1))
    canvas_shape = (4, size + 2 * pad, size + 2 * pad, c)
    dx = batched._col2im_nhwc(dcols, np.empty(canvas_shape, TRAIN_DTYPE), stride, pad)
    want_dx = tap_col2im(dcols, np.empty(canvas_shape, TRAIN_DTYPE), stride, pad)
    assert_same_bits(dx, want_dx)


@PROPERTY
@given(
    size=st.integers(2, 9), pool=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1)
)
def test_maxpool_backward_splits_ties_and_preserves_mass(size, pool, seed):
    """Ties on a small value grid (positive, zero and negative maxima):
    each window's gradient is split evenly over its maxima, sums back to
    the pooled gradient, and the cropped border gets exact zeros."""
    assume(size >= pool)
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=(2, size, size, 3)).astype(TRAIN_DTYPE)
    ws = Workspace()
    out = batched._pool_nhwc_forward(x, pool, np.maximum, ws)
    grad = rng.standard_normal(out.shape).astype(TRAIN_DTYPE)
    dx = batched._maxpool_nhwc_backward(x, out, grad, pool, ws)
    assert_same_bits(dx, float_count_maxpool_backward(x, out, grad, pool, Workspace()))

    edge = (size // pool) * pool
    assert not dx[:, edge:].any() and not dx[:, :, edge:].any()
    assert not np.signbit(dx[:, edge:]).any() and not np.signbit(dx[:, :, edge:]).any()
    windows = batched._pool_windows(dx, pool)
    np.testing.assert_allclose(np.sum(windows, axis=0), grad, rtol=1e-6, atol=0)
    ties = np.sum([window == out for window in batched._pool_windows(x, pool)], axis=0)
    for window, at_max in zip(windows, batched._pool_windows(x, pool)):
        np.testing.assert_array_equal(
            window, np.where(at_max == out, grad / ties.astype(TRAIN_DTYPE), 0.0)
        )


@PROPERTY
@given(
    size=st.integers(2, 9), pool=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1)
)
def test_relu_after_the_pool_gives_the_same_bits(size, pool, seed):
    """The walk's order -- pool the pre-activation, ReLU the pooled output;
    backward ReLU' from the pooled pre-activation, then the pool's -- gives
    the bytes of ReLU-then-pool, output and input gradient, zero signs
    included: a window whose max is <= 0 passes back zeros signed like its
    gradient."""
    assume(size >= pool)
    rng = np.random.default_rng(seed)
    z = rng.integers(-2, 3, size=(2, size, size, 3)).astype(TRAIN_DTYPE)
    grad_shape = (2, size // pool, size // pool, 3)
    grad = rng.standard_normal(grad_shape).astype(TRAIN_DTYPE)
    relu, ws = ReLU(), Workspace()

    pooled = batched._pool_nhwc_forward(z, pool, np.maximum, ws)
    out = batched._activate(relu, pooled, False, ws)
    g = batched._activation_backward(relu, pooled, grad.copy(), ws)
    dz = batched._maxpool_nhwc_backward(z, pooled, g, pool, ws)

    act = batched._activate(relu, z, False, ws)
    want_out = batched._pool_nhwc_forward(act, pool, np.maximum, ws)
    want_dz = batched._activation_backward(
        relu, act, float_count_maxpool_backward(act, want_out, grad, pool, ws), ws
    )
    assert_same_bits(out, want_out)
    assert_same_bits(dz, want_dz)


def test_relu_before_a_pool_is_deferred_only_there():
    init = np.random.default_rng(0)
    layers = [
        Conv2d(1, 2, 3, init), ReLU(), MaxPool2d(2), ReLU(),
        Flatten(), Linear(2, 2, init), ReLU(), MaxPool2d(2),
    ]
    assert batched._deferred_relus(layers) == {1, 6}

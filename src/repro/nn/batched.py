"""The one training walk: per-group gradients and per-group SGD steps.

Several hot paths need *per-group* gradients of one shared model: the
per-user gradients of ULDP-SGD, the per-microbatch gradients of DP-SGD,
and the first (often only) local step of ULDP-AVG -- in every case the
parameters are identical across groups because no group has taken a
divergent step yet.  :func:`per_group_gradients` exploits that:

1. concatenate all groups' records into one flat batch (no padding) and
   run a single forward pass;
2. compute each group's mean-loss gradient w.r.t. its predictions on the
   flat ``(N, K)`` predictions: cross-entropy and binary cross-entropy are
   separable over records, so each record's row is its own loss gradient
   scaled by ``1 / n`` of its group, with no padding and no loss value;
   only Cox, whose risk sets couple a group's records, scatters its scalar
   predictions into a padded ``(G, n_max)`` stack
   (:func:`repro.nn.losses.grouped_gradient`);
3. walk the layers backward once, sharing the input-gradient computation
   (the weights are identical) and segmenting only the parameter-gradient
   reductions by group -- one pass over the groups' contiguous row
   segments per layer forms both its weight and its bias gradients.

Local training past the first step (Q >= 2 epochs, minibatches) diverges
the groups' parameters, and runs the same walk on per-group weights
(:func:`per_group_step`): every weight carries a leading group axis, the
padded ``(G, n, ...)`` records run as ``G`` equal runs of ``n``, the
dense and convolution GEMMs -- forward and input gradient -- become
batched ``(G, n*P, k) @ (G, k, m)`` products, and each layer's weight and
bias gradients come from one batched GEMM and one sum over the run.  The
loss gradient is :func:`repro.nn.losses.padded_gradient` on the
``(G, n, ...)`` predictions (zero at padding).

Every model runs one walk, with one rule per layer type (Linear,
Conv2d, MaxPool2d, AvgPool2d, ReLU / Tanh, Flatten; any other layer is
refused).  Inside it every 4-D tensor is channels-last (NHWC): records
enter NCHW and are transposed once, patch matrices come out of im2col
directly in GEMM order, the flattened ``(B*P, out_c)`` activation
gradients need no transposes, and the pooling windows slice contiguous
channel runs.  ``Flatten`` -- and the end of the model, when the
prediction is still 4-D -- converts back to the template's NCHW order, so
dense layers, predictions, parameter blocks and result rows stay in the
template basis; a ``Flatten`` on 2-D input is a no-op.  A ``ReLU``
directly followed by a ``MaxPool2d`` runs on the pooled output, a quarter
of the entries, with the same bits: the max of ReLUs is the ReLU of the
max (NumPy's ReLU zero is +0 either way), and backward, ReLU' taken from
the pooled pre-activation before the pool's tie split passes back what
the other order did -- a window whose max is > 0 has the same ties, and
one whose max is <= 0 returns zeros signed like its gradient.

The walk computes in float32 (:data:`repro.nn.layers.TRAIN_DTYPE`):
records are gathered into it, a float64 model is cast once per call (the
engine's scratch model already is float32), and forward, backward, the
loss gradient and every workspace view are float32.  Only the result of
:func:`per_group_gradients` is float64: its rows are ``float64(block) *
scale``, and ``row_scale`` sees per-group norms summed in float64 from the
float32 blocks -- so a clip fused into the assembly bounds a float64 row
in float64.  :func:`per_group_step` steps the caller's float32 weights and
returns nothing; the engine forms the float64 deltas from them.

Every large temporary of the walk is a view into the process's
:data:`repro.nn.workspace.WORKSPACE`, written through ``out=`` (the walk
repeats with the same shapes every round; re-allocating them costs more in
page faults than the arithmetic).  What ``backprop`` reads is taken first,
transients above a ``mark`` their stage releases, and activations run in
place where the producer does not cache its own output, so the slab's
high-water mark stays near the walk's live set.

Evaluation reuses the walk's forward without its backward:
:func:`forward_logits` runs the test records through it on the same
float32 scratch model (:func:`scratch_model`), :data:`FORWARD_CHUNK`
records per scratch scope, and copies each chunk's logits out as float64
-- so the slab holds one chunk's activations, never a test set's.

The result matches running the model separately per group in float32
up to floating-point reassociation (``tests/nn/test_batched.py``; the
differential tests in ``tests/core/test_engine_equivalence.py`` cover this
path through the FL methods).
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.nn.layers import (
    TRAIN_DTYPE,
    AvgPool2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Tanh,
)
from repro.nn.losses import Loss, grouped_gradient, padded_gradient
from repro.nn.model import Sequential
from repro.nn.workspace import WORKSPACE, Workspace

#: Records per chunk of :func:`forward_logits`, each chunk one scratch
#: scope: the slab holds one chunk's activations, never a whole test set's.
#: 128 was the fastest of 128 / 256 / 512 on the MNIST CNN.
FORWARD_CHUNK = 128

#: One float32 scratch copy of each template model per process: the walk
#: reads parameters from layer arrays, so flat ``params`` are bound to a
#: model -- never the caller's, which neither training nor evaluation
#: writes.  Copied (and cast to :data:`TRAIN_DTYPE`) once per template
#: *object*, re-bound per call; a pool worker's template is resident, so
#: that is once per worker.
_SCRATCH_MODELS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def scratch_model(model: Sequential, params: np.ndarray) -> Sequential:
    """The process's float32 scratch copy of ``model``, holding ``params``."""
    local = _SCRATCH_MODELS.get(model)
    if local is None:
        local = _SCRATCH_MODELS[model] = model.astype(TRAIN_DTYPE)
    local.set_flat_params(params)
    return local


def _segment_grads(
    a: np.ndarray, grad: np.ndarray, bounds, d_weight: np.ndarray, d_bias: np.ndarray
) -> None:
    """``d_weight[g] = a[run].T @ grad[run]`` and ``d_bias[g] =
    grad[run].sum(0)`` for each group's run of rows.  Shared weights: the
    runs are the ragged segments ``bounds[g] : bounds[g + 1]`` of the
    concatenated records, one pass over them.  Per-group weights
    (``bounds`` is ``None``): ``len(d_weight)`` equal runs, one batched
    GEMM and one axis-1 sum."""
    if bounds is None:
        groups = len(d_weight)
        a = a.reshape(groups, -1, a.shape[1])
        grad = grad.reshape(groups, -1, grad.shape[1])
        np.matmul(a.swapaxes(1, 2), grad, out=d_weight)
        np.add.reduce(grad, axis=1, out=d_bias)
        return
    for g in range(len(bounds) - 1):
        lo, hi = bounds[g], bounds[g + 1]
        np.matmul(a[lo:hi].T, grad[lo:hi], out=d_weight[g])
        np.add.reduce(grad[lo:hi], axis=0, out=d_bias[g])


def _gemm(a: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = a @ w`` over the rows of ``a``: one GEMM with a shared
    ``(k, m)`` weight, one batched GEMM with a ``(G, k, m)`` weight -- the
    rows are then ``G`` equal runs, run ``g`` times ``w[g]``."""
    if w.ndim == 2:
        return np.matmul(a, w, out=out)
    groups = len(w)
    np.matmul(
        a.reshape(groups, -1, a.shape[1]), w, out=out.reshape(groups, -1, out.shape[1])
    )
    return out


def _add_bias(z: np.ndarray, bias: np.ndarray) -> None:
    """``z += bias`` on ``(rows, m)`` outputs, per run for a ``(G, m)`` bias."""
    if bias.ndim == 1:
        z += bias
    else:
        runs = z.reshape(len(bias), -1, z.shape[1])
        runs += bias[:, None, :]


def _activate(layer, act: np.ndarray, fresh: bool, ws: Workspace) -> np.ndarray:
    """ReLU / Tanh forward of the walk, in place when nothing
    else holds ``act`` (``fresh``)."""
    dst = act if fresh else ws.take(act.shape, TRAIN_DTYPE)
    if isinstance(layer, Tanh):
        return np.tanh(act, out=dst)
    return np.maximum(act, 0.0, out=dst)


def _activation_backward(layer, out: np.ndarray, g: np.ndarray, ws: Workspace) -> np.ndarray:
    """``g *= activation'`` from the cached activation *output*, in place."""
    mark = ws.mark()
    if isinstance(layer, ReLU):
        np.multiply(g, np.greater(out, 0, out=ws.take(out.shape, bool)), out=g)
    else:  # Tanh: 1 - out^2
        slope = np.square(out, out=ws.take(out.shape, TRAIN_DTYPE))
        np.multiply(g, np.subtract(1.0, slope, out=slope), out=g)
    ws.release(mark)
    return g


def _linear_blocks(
    x_in: np.ndarray, grad: np.ndarray, groups: int, bounds, ws: Workspace
) -> list[np.ndarray]:
    """Per-group (dW, db) of one dense layer from its input and output grads."""
    d_weight = ws.take((groups, x_in.shape[1], grad.shape[1]), TRAIN_DTYPE)
    d_bias = ws.take((groups, grad.shape[1]), TRAIN_DTYPE)
    _segment_grads(x_in, grad, bounds, d_weight, d_bias)
    return [d_weight.reshape(groups, -1), d_bias]


# ---------------------------------------------------------------------------
# NHWC image-layer kernels (used only inside the walk).
# ---------------------------------------------------------------------------


def _im2col_nhwc(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int, ws: Workspace
) -> tuple[np.ndarray, int, int]:
    """Unfold (N, H, W, C) into (N*P, kh*kw*C) patches: one 6-D gather,
    or ``kh*kw`` slice copies for one channel (2x faster than a gather)."""
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
    if c == 1:
        taps = cols.reshape(n, out_h, out_w, kh * kw)
        for i in range(kh):
            for j in range(kw):
                taps[..., i * kw + j] = x[
                    :, i : i + stride * out_h : stride, j : j + stride * out_w : stride, 0
                ]
    else:
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


def _col2im_nhwc(
    dcols: np.ndarray, canvas: np.ndarray, stride: int, pad: int
) -> np.ndarray:
    """Adjoint of :func:`_im2col_nhwc`: accumulate ``dcols`` (N, oh, ow, kh,
    kw, C) into the zeroed padded ``canvas`` and return its interior.  Per
    tap row ``i`` and output column ``x``, one add of a contiguous ``(kw,
    C)`` run; ``x`` walks down so every entry still sums its taps from 0 in
    (i, j) order."""
    out_h, out_w, kh, kw = dcols.shape[1:5]
    canvas.fill(0.0)
    for i in range(kh):
        rows = canvas[:, i : i + stride * out_h : stride]
        for x in range(out_w - 1, -1, -1):
            rows[:, :, x * stride : x * stride + kw, :] += dcols[:, :, x, i]
    return canvas[:, pad:-pad, pad:-pad, :] if pad else canvas


#: Axis orders of ``transpose`` taking NCHW to NHWC, and back.
_NHWC, _NCHW = (0, 2, 3, 1), (0, 3, 1, 2)


def _transposed(x: np.ndarray, axes: tuple[int, ...], ws: Workspace) -> np.ndarray:
    """A contiguous workspace copy of ``x.transpose(axes)``."""
    out = ws.take(tuple(x.shape[a] for a in axes), TRAIN_DTYPE)
    np.copyto(out, x.transpose(axes))
    return out


def _pool_windows(x: np.ndarray, size: int):
    """The ``size * size`` strided slices of (N, H, W, C) that tile its
    pooling windows (floor semantics), in row-major window order."""
    oh, ow = x.shape[1] // size, x.shape[2] // size
    return [
        x[:, i : oh * size : size, j : ow * size : size, :]
        for i in range(size)
        for j in range(size)
    ]


def _pool_nhwc_forward(x: np.ndarray, size: int, combine, ws: Workspace) -> np.ndarray:
    """Fold ``x``'s pooling windows with ``combine`` (np.maximum / np.add)."""
    first, *rest = _pool_windows(x, size)
    out = ws.take(first.shape, TRAIN_DTYPE)
    np.copyto(out, first)
    for window in rest:
        combine(out, window, out=out)
    return out


def _maxpool_nhwc_backward(
    x: np.ndarray, out: np.ndarray, grad: np.ndarray, size: int, ws: Workspace
) -> np.ndarray:
    """``grad`` split over each window's maxima; only the crop is zero-filled."""
    h, w = x.shape[1:3]
    dx = ws.take(x.shape, TRAIN_DTYPE)
    dx[:, h - h % size :].fill(0.0)
    dx[:, :, w - w % size :].fill(0.0)
    mark = ws.mark()
    # Break ties like a single-argmax pool: normalise so gradient mass is
    # preserved even when several entries share the max.
    masks = [
        np.equal(window, out, out=ws.take(out.shape, bool))
        for window in _pool_windows(x, size)
    ]
    counts = ws.take(out.shape, np.min_scalar_type(size * size))
    np.copyto(counts, masks[0])
    for mask in masks[1:]:
        counts += mask
    scaled = np.divide(grad, counts, out=ws.take(out.shape, TRAIN_DTYPE))
    for mask, window in zip(masks, _pool_windows(dx, size)):
        np.multiply(mask, scaled, out=window)
    ws.release(mark)
    return dx


def _deferred_relus(layers) -> set[int]:
    """The ReLUs the walk applies after the MaxPool2d that follows them."""
    return {
        i for i in range(len(layers) - 1)
        if isinstance(layers[i], ReLU) and isinstance(layers[i + 1], MaxPool2d)
    }


def per_group_gradients(
    model: Sequential,
    loss: Loss,
    x: np.ndarray,
    y: np.ndarray,
    sizes,
    out: np.ndarray | None = None,
    row_scale=None,
) -> np.ndarray:
    """Per-group gradients of the mean loss, sharing one forward/backward.

    Args:
        model: the shared model, already holding the evaluation parameters.
        loss: a per-batch loss instance naming the loss; each group's
            prediction gradients come from
            :func:`repro.nn.losses.grouped_gradient` (degenerate groups --
            e.g. Cox batches without events -- contribute zero rows,
            matching the loop convention).
        x, y: all groups' records, concatenated in group order.
        sizes: per-group record counts (all >= 1, summing to ``len(x)``).
        out: optional preallocated ``(len(sizes), P)`` result buffer; when
            omitted the result is a fresh array the caller owns.
        row_scale: optional callable mapping the ``(G,)`` gradient l2 norms
            to per-row multipliers applied *during* assembly.  This fuses
            clip-and-scale into the single write pass over the result
            matrix -- the ULDP hot path (clip to C, scale by -lr) -- instead
            of re-reading the large matrix afterwards.  Rows whose
            multiplier is 0 are written as exact zeros (the non-finite /
            fully-clipped convention).

    Returns:
        ``(len(sizes), P)`` matrix whose row g equals the flat gradient of
        group g's mean loss at the shared parameters, scaled row-wise by
        ``row_scale`` when given.

    The call re-opens the workspace's scratch scope: nothing but the
    returned matrix outlives it.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size == 0:
        return np.zeros((0, model.num_params))
    if np.any(sizes < 1):
        raise ValueError("every group needs at least one record")
    groups = len(sizes)
    total = int(sizes.sum())
    if total != len(x):
        raise ValueError("sizes must sum to the number of records")
    if out is None:
        out = np.empty((groups, model.num_params))
    elif out.shape != (groups, model.num_params):
        raise ValueError("out buffer has the wrong shape")
    bounds = [0, *np.cumsum(sizes).tolist()]

    WORKSPACE.reset()
    if any(p.dtype != TRAIN_DTYPE for p in model.params):
        model = model.astype(TRAIN_DTYPE)
    x = np.asarray(x, dtype=TRAIN_DTYPE)
    pred, backprop = _walk(model, x, WORKSPACE, bounds)

    blocks = backprop(np.asarray(grouped_gradient(loss, pred, y, sizes), TRAIN_DTYPE))

    scale = None
    if row_scale is not None:
        sq = np.zeros(groups)  # float64 sums of the float32 blocks' squares
        for index in blocks:
            for block in blocks[index]:
                sq += np.einsum("gk,gk->g", block, block, dtype=np.float64)
        scale = np.asarray(row_scale(np.sqrt(sq)), dtype=np.float64)

    offset = 0
    for index, layer in enumerate(model.layers):
        for block in blocks.get(index, ()):
            view = out[:, offset : offset + block.shape[1]]
            if scale is None:
                view[...] = block
            else:
                np.multiply(block, scale[:, None], out=view)
            offset += block.shape[1]
    if scale is not None:
        dropped = scale == 0.0
        if np.any(dropped):
            # 0 * inf leaves NaNs behind; dropped rows are exact zeros.
            out[dropped] = 0.0
    return out


def _walk(model: Sequential, x: np.ndarray, ws: Workspace, bounds=None, weights=None):
    """Forward ``x`` through ``model``; return ``(pred, backprop)``.

    ``weights`` holds each layer's parameter list -- by default its own
    ``params``, shared by every record, with ``bounds`` the ragged group
    segments of the concatenated records (``None``: forward only).  Given
    explicitly, every weight carries a leading axis of ``G`` groups and
    ``x`` is ``G`` equal runs of records, run ``g`` on weight set ``g``.
    ``backprop`` returns each parameterised layer's ``(G, size)``
    gradient blocks, by layer index.

    Every 4-D tensor inside the walk is NHWC: records enter NCHW and are
    transposed once, and a ``Flatten`` -- or the end of the model, for a
    4-D prediction -- converts back to the template's NCHW order, so dense
    layers, ``pred`` and the parameter blocks stay in the template basis.
    Each layer type has one rule; any other layer is refused.
    """
    layers = model.layers
    if weights is None:
        weights = [layer.params for layer in layers]
        groups = None if bounds is None else len(bounds) - 1
    else:
        groups = next(len(w[0]) for w in weights if w)
    b = len(x)
    if x.ndim == 4:
        act, fresh = _transposed(x, _NHWC, ws), True
    else:
        act, fresh = x, False  # fresh: nothing else holds ``act``
    deferred = _deferred_relus(layers)
    caches: list = []
    for index, (layer, params) in enumerate(zip(layers, weights)):
        if isinstance(layer, Linear):
            weight, bias = params
            caches.append(act)
            z = _gemm(act, weight, ws.take((b, weight.shape[-1]), TRAIN_DTYPE))
            _add_bias(z, bias)
            act, fresh = z, True
        elif isinstance(layer, Conv2d):
            weight, bias = params
            k = layer.kernel_size
            in_shape = act.shape
            cols, oh, ow = _im2col_nhwc(act, k, k, layer.stride, layer.padding, ws)
            lead = weight.ndim - 4  # 1 for per-group weights
            out_c = weight.shape[lead]
            # Template (out_c, C, kh, kw) -> NHWC patch order (kh, kw, C).
            axes = (*range(lead), lead + 2, lead + 3, lead + 1, lead)
            w_nhwc = np.ascontiguousarray(weight.transpose(axes))
            w_nhwc = w_nhwc.reshape(*weight.shape[:lead], -1, out_c)
            z = _gemm(cols, w_nhwc, ws.take((len(cols), out_c), TRAIN_DTYPE))  # one GEMM
            _add_bias(z, bias)
            act, fresh = z.reshape(b, oh, ow, out_c), True
            caches.append((in_shape, cols, w_nhwc, oh, ow))
        elif isinstance(layer, MaxPool2d):
            pooled = _pool_nhwc_forward(act, layer.size, np.maximum, ws)
            caches.append((act, pooled))
            act, fresh = pooled, False
            if index - 1 in deferred:
                act, fresh = _activate(layers[index - 1], pooled, False, ws), True
        elif isinstance(layer, AvgPool2d):
            caches.append(act.shape)
            act, fresh = _pool_nhwc_forward(act, layer.size, np.add, ws), True
            np.divide(act, layer.size * layer.size, out=act)
        elif index in deferred:
            caches.append(None)
        elif isinstance(layer, (ReLU, Tanh)):
            act, fresh = _activate(layer, act, fresh, ws), False
            caches.append(act)
        elif isinstance(layer, Flatten):
            caches.append(act.shape)
            if act.ndim == 4:
                # Transposing the (small) activations once keeps the dense
                # section -- weights and weight gradients -- in the template basis.
                act, fresh = _transposed(act, _NCHW, ws).reshape(b, -1), True
            else:
                act = act.reshape(b, -1)
        else:
            raise TypeError(f"no training-walk rule for {type(layer).__name__}")
    pred = _transposed(act, _NCHW, ws) if act.ndim == 4 else act

    def backprop(grad: np.ndarray) -> dict[int, list[np.ndarray]]:
        blocks: dict[int, list[np.ndarray]] = {}
        g = grad if pred.ndim < 4 else _transposed(grad.reshape(pred.shape), _NHWC, ws)
        # Per layer: what outlives it (parameter blocks, the gradient handed
        # to the layer below) is taken first, its transients above a mark.
        for index in range(len(layers) - 1, -1, -1):
            layer, cache = layers[index], caches[index]
            if isinstance(layer, Linear):
                blocks[index] = _linear_blocks(cache, g, groups, bounds, ws)
                if index > 0:
                    weight = weights[index][0]
                    out = ws.take((len(g), weight.shape[-2]), TRAIN_DTYPE)
                    g = _gemm(g, np.swapaxes(weight, -1, -2), out)
            elif isinstance(layer, Conv2d):
                in_shape, cols, w_nhwc, oh, ow = cache
                out_c, in_c = weights[index][0].shape[-4:-2]
                k, pad = layer.kernel_size, layer.padding
                go_flat = g.reshape(-1, out_c)  # (B*P, out_c), already contiguous
                dw = ws.take((groups, out_c, in_c, k, k), TRAIN_DTYPE)
                db = ws.take((groups, out_c), TRAIN_DTYPE)
                blocks[index] = [dw.reshape(groups, -1), db]
                if index > 0:
                    n, h, w, _ = in_shape
                    canvas = ws.take((n, h + 2 * pad, w + 2 * pad, in_c), TRAIN_DTYPE)
                mark = ws.mark()
                dw_nhwc = ws.take((groups, cols.shape[1], out_c), TRAIN_DTYPE)
                rows = None if bounds is None else [bound * oh * ow for bound in bounds]
                _segment_grads(cols, go_flat, rows, dw_nhwc, db)  # P patch rows a record
                # NHWC patch basis (kh, kw, C, out_c) -> template (out_c, C, kh, kw).
                dw_nhwc = dw_nhwc.reshape(groups, k, k, in_c, out_c)
                np.copyto(dw, dw_nhwc.transpose(0, 4, 3, 1, 2))
                if index > 0:
                    dcols = ws.take((b, oh, ow, k, k, in_c), TRAIN_DTYPE)
                    flat = dcols.reshape(len(go_flat), -1)
                    _gemm(go_flat, np.swapaxes(w_nhwc, -1, -2), flat)  # one GEMM
                    g = _col2im_nhwc(dcols, canvas, layer.stride, pad)
                ws.release(mark)
            elif index == 0:
                break  # nothing below a parameterless first layer needs ``g``
            elif isinstance(layer, MaxPool2d):
                x_in, pooled = cache
                if index - 1 in deferred:  # ReLU' from the pooled pre-activation
                    g = _activation_backward(layers[index - 1], pooled, g, ws)
                g = _maxpool_nhwc_backward(x_in, pooled, g, layer.size, ws)
            elif isinstance(layer, AvgPool2d):
                dx = ws.take(cache, TRAIN_DTYPE)
                dx.fill(0.0)
                mark = ws.mark()
                spread = np.divide(g, layer.size * layer.size, out=ws.take(g.shape, TRAIN_DTYPE))
                for window in _pool_windows(dx, layer.size):
                    window[...] = spread
                ws.release(mark)
                g = dx
            elif isinstance(layer, Flatten):
                if len(cache) == 4:  # (N, H, W, C): back from the NCHW flatten order
                    n, h, w, c = cache
                    g = _transposed(g.reshape(n, c, h, w), _NHWC, ws)
                else:
                    g = g.reshape(cache)
            elif index not in deferred:  # ReLU / Tanh
                g = _activation_backward(layer, cache, g, ws)
        return blocks

    return pred, backprop


def per_group_step(
    model: Sequential,
    weights: list[list[np.ndarray]],
    loss: Loss,
    x: np.ndarray,
    y: np.ndarray,
    valid: np.ndarray,
    lr: float,
) -> None:
    """One SGD step of ``G`` models of ``model``'s architecture, in place.

    Args:
        model: the template; only its structure is read.
        weights: per layer of ``model``, its parameters with a leading
            group axis -- ``(G, *shape)`` :data:`TRAIN_DTYPE` arrays, ``[]``
            for a parameterless layer; stepped in place.
        loss: a per-batch loss instance naming the loss.
        x, y: padded ``(G, n, ...)`` records (:data:`TRAIN_DTYPE`) and
            targets, group ``g``'s in row ``g``.
        valid: ``(G, n)`` mask, ``False`` at padding.
        lr: the learning rate.

    Group ``g``'s step descends the gradient of its own mean loss over its
    valid records (:func:`repro.nn.losses.padded_gradient`: zero at
    padding, and for a degenerate Cox group), rounded as a plain SGD step:
    ``grad *= lr; weight -= grad``.  The call re-opens the workspace's
    scratch scope.
    """
    WORKSPACE.reset()
    groups, n = valid.shape
    pred, backprop = _walk(model, x.reshape(groups * n, *x.shape[2:]), WORKSPACE, weights=weights)
    dpred = padded_gradient(loss, pred.reshape(groups, n, *pred.shape[1:]), y, valid)
    blocks = backprop(np.asarray(dpred, TRAIN_DTYPE).reshape(pred.shape))
    for index, grads in blocks.items():
        for weight, grad in zip(weights[index], grads):
            np.multiply(grad, lr, out=grad)
            np.subtract(weight, grad.reshape(weight.shape), out=weight)


def forward_logits(model: Sequential, x: np.ndarray) -> np.ndarray:
    """The walk's float32 forward of ``model`` over ``x``, as float64 logits.

    ``model`` is a float32 model (:func:`scratch_model`).  Records run
    :data:`FORWARD_CHUNK` at a time, each chunk gathered into a fresh
    scratch scope and forwarded by the same walk as training, with no
    backward; nothing of it outlives the call but the returned logits.
    """
    out = np.zeros((0,))
    for start in range(0, len(x), FORWARD_CHUNK):
        WORKSPACE.reset()
        chunk = x[start : start + FORWARD_CHUNK]
        records = WORKSPACE.take(chunk.shape, TRAIN_DTYPE)
        np.copyto(records, chunk)
        pred, _ = _walk(model, records, WORKSPACE)  # no groups: no backward
        if start == 0:
            out = np.empty((len(x), *pred.shape[1:]))
        out[start : start + len(pred)] = pred
    return out

"""Shared-weight per-group gradient engine.

Several hot paths need *per-group* gradients of one shared model: the
per-user gradients of ULDP-SGD, the per-microbatch gradients of DP-SGD,
and the first (often only) local step of ULDP-AVG -- in every case the
parameters are identical across groups because no group has taken a
divergent step yet.  That structure admits a much faster evaluation than
the general per-group-parameters engine (:class:`repro.nn.model.BatchedSequential`):

1. concatenate all groups' records into one flat batch (no padding) and
   run a single forward pass;
2. compute each group's mean-loss gradient w.r.t. its predictions with the
   ``Batched*`` losses (padding only the scalar-sized prediction tensors);
3. walk the layers backward once, sharing the input-gradient computation
   (the weights are identical) and segmenting only the parameter-gradient
   reductions by group.

Convolutional stacks additionally run in a channels-last (NHWC) layout
internally: patch matrices come out of im2col directly in GEMM order, the
flattened ``(B*P, out_c)`` activation gradients need no transposes, and the
pooling windows slice contiguous channel runs.  Results are converted back
to the template's NCHW parameter layout during assembly, so callers see
the standard flat-parameter order throughout.

Every large temporary of the walk is a view into the process's
:data:`repro.nn.workspace.WORKSPACE`, written through ``out=`` (the walk
repeats with the same shapes every round; re-allocating them costs more in
page faults than the arithmetic).  What ``backward`` reads is taken first,
transients above a ``mark`` their stage releases, and activations run in
place where the producer does not cache its own output, so the slab's
high-water mark stays near the walk's live set.

The result matches running the model separately per group up to
floating-point reassociation (the differential tests in
``tests/core/test_engine_equivalence.py`` cover this path through the FL
methods).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Tanh,
)
from repro.nn.losses import Loss, batched_counterpart
from repro.nn.model import Sequential
from repro.nn.workspace import WORKSPACE, Workspace


def _scatter_padded(
    values: np.ndarray, flat_idx: np.ndarray, groups: int, n_max: int
) -> np.ndarray:
    """Scatter per-record rows into a zero-padded (G, n_max, ...) tensor."""
    padded = np.zeros((groups * n_max, *values.shape[1:]))
    padded[flat_idx] = values
    return padded.reshape(groups, n_max, *values.shape[1:])


def _segment_sum(
    values: np.ndarray, starts: np.ndarray, sizes: np.ndarray, ws: Workspace
) -> np.ndarray:
    """Sum contiguous row segments: out[g] = values[starts[g] : starts[g]+sizes[g]].sum(0).

    A plain slice loop: an order of magnitude faster than ``np.add.reduceat``
    on wide matrices, and the segments are contiguous by construction.
    """
    values = values.reshape(len(values), -1)
    out = ws.take((len(starts), values.shape[1]))
    for g in range(len(starts)):
        start = starts[g]
        np.sum(values[start : start + sizes[g]], axis=0, out=out[g])
    return out


def _segment_gemm(
    a: np.ndarray, b: np.ndarray, starts: np.ndarray, sizes: np.ndarray, ws: Workspace
) -> np.ndarray:
    """Per-segment GEMMs: out[g] = a[rows_g].T @ b[rows_g] over contiguous rows."""
    out = ws.take((len(starts), a.shape[1], b.shape[1]))
    for g in range(len(starts)):
        start = starts[g]
        stop = start + sizes[g]
        np.matmul(a[start:stop].T, b[start:stop], out=out[g])
    return out


def _activate(layer, act: np.ndarray, fresh: bool, ws: Workspace) -> np.ndarray:
    """ReLU / Tanh forward of the channels-last walk, in place when nothing
    else holds ``act`` (``fresh``)."""
    dst = act if fresh else ws.take(act.shape)
    if isinstance(layer, Tanh):
        return np.tanh(act, out=dst)
    return np.maximum(act, 0.0, out=dst)


def _activation_backward(layer, out: np.ndarray, g: np.ndarray, ws: Workspace) -> np.ndarray:
    """``g *= activation'`` from the cached activation *output*, in place."""
    mark = ws.mark()
    if isinstance(layer, ReLU):
        np.multiply(g, np.greater(out, 0, out=ws.take(out.shape, bool)), out=g)
    else:  # Tanh: 1 - out^2
        slope = np.square(out, out=ws.take(out.shape))
        np.multiply(g, np.subtract(1.0, slope, out=slope), out=g)
    ws.release(mark)
    return g


def _linear_forward(layer: Linear, act: np.ndarray, ws: Workspace) -> np.ndarray:
    z = np.matmul(act, layer.weight, out=ws.take((len(act), layer.weight.shape[1])))
    z += layer.bias
    return z


def _linear_blocks(x_in: np.ndarray, grad: np.ndarray, ctx) -> list[np.ndarray]:
    """Per-group (dW, db) of one dense layer from its input and output grads.

    Records are concatenated in group order, so both reductions run over
    contiguous row segments -- no padding or scatter needed.
    """
    starts, sizes, ws = ctx
    d_weight = _segment_gemm(x_in, grad, starts, sizes, ws)  # (G, in, out)
    d_bias = _segment_sum(grad, starts, sizes, ws)
    return [d_weight.reshape(len(starts), -1), d_bias]


def _linear_input_grad(layer: Linear, grad: np.ndarray, ws: Workspace) -> np.ndarray:
    return np.matmul(grad, layer.weight.T, out=ws.take((len(grad), len(layer.weight))))


# ---------------------------------------------------------------------------
# NCHW convolution kernels of the generic walk: the standard Conv2d's
# arithmetic (``repro.nn.layers``) with its temporaries in the workspace.
# ---------------------------------------------------------------------------


def _im2col_nchw(
    x: np.ndarray, k: int, stride: int, pad: int, ws: Workspace
) -> tuple[np.ndarray, int, int]:
    """Unfold (N, C, H, W) into (N, C*k*k, out_h*out_w) patches."""
    n, c, h, w = x.shape
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    cols = ws.take((n, c * k * k, out_h * out_w))
    mark = ws.mark()
    if pad:
        padded = ws.take((n, c, h + 2 * pad, w + 2 * pad))
        padded.fill(0.0)
        padded[:, :, pad:-pad, pad:-pad] = x
        x = padded
    s = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, k, k, out_h, out_w),
        strides=(s[0], s[1], s[2], s[3], s[2] * stride, s[3] * stride),
        writeable=False,
    )
    np.copyto(cols.reshape(view.shape), view)
    ws.release(mark)
    return cols, out_h, out_w


def _col2im_nchw(dcols: np.ndarray, canvas: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """Adjoint of :func:`_im2col_nchw`: accumulate ``dcols`` (N, C, k, k, oh,
    ow) into the padded ``canvas`` and return its un-padded interior."""
    k, out_h, out_w = dcols.shape[3:]
    canvas.fill(0.0)
    for i in range(k):
        for j in range(k):
            canvas[
                :, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride
            ] += dcols[:, :, i, j]
    return canvas[:, :, pad:-pad, pad:-pad] if pad else canvas


# ---------------------------------------------------------------------------
# NHWC image-stack kernels (used only inside the shared-weight walk).
# ---------------------------------------------------------------------------


def _im2col_nhwc(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int, ws: Workspace
) -> tuple[np.ndarray, int, int]:
    """Unfold (N, H, W, C) into (N*P, kh*kw*C) patches with one gather."""
    n, h, w, c = x.shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    cols = ws.take((n * out_h * out_w, kh * kw * c))
    mark = ws.mark()
    if pad:
        padded = ws.take((n, h + 2 * pad, w + 2 * pad, c))
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


def _col2im_nhwc(
    dcols: np.ndarray, canvas: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """Adjoint of :func:`_im2col_nhwc`: accumulate ``dcols`` (N, oh, ow, kh,
    kw, C) into the padded ``canvas`` and return its un-padded interior."""
    out_h, out_w = dcols.shape[1:3]
    canvas.fill(0.0)
    for i in range(kh):
        for j in range(kw):
            canvas[
                :, i : i + stride * out_h : stride, j : j + stride * out_w : stride, :
            ] += dcols[:, :, :, i, j, :]
    return canvas[:, pad:-pad, pad:-pad, :] if pad else canvas


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
    out = ws.take(first.shape)
    np.copyto(out, first)
    for window in rest:
        combine(out, window, out=out)
    return out


def _maxpool_nhwc_backward(
    x: np.ndarray, out: np.ndarray, grad: np.ndarray, size: int, ws: Workspace
) -> np.ndarray:
    dx = ws.take(x.shape)
    dx.fill(0.0)
    mark = ws.mark()
    # Break ties like a single-argmax pool: normalise so gradient mass is
    # preserved even when several entries share the max.
    masks = [
        np.equal(window, out, out=ws.take(out.shape, bool))
        for window in _pool_windows(x, size)
    ]
    counts = ws.take(out.shape)
    counts.fill(0.0)
    for mask in masks:
        counts += mask
    scaled = np.divide(grad, counts, out=ws.take(out.shape))
    for mask, window in zip(masks, _pool_windows(dx, size)):
        np.multiply(mask, scaled, out=window)
    ws.release(mark)
    return dx


def _conv_stack(model: Sequential):
    """Split a CNN into (image stages, flatten position, dense stages).

    Returns ``None`` when the model does not match the supported
    ``image-stages -> Flatten -> dense-stages`` shape (the generic walk
    handles those).
    """
    layers = model.layers
    flatten_at = None
    for i, layer in enumerate(layers):
        if isinstance(layer, Flatten):
            flatten_at = i
            break
    if flatten_at is None:
        return None
    image, dense = layers[:flatten_at], layers[flatten_at + 1 :]
    if not any(isinstance(l, Conv2d) for l in image):
        return None
    for layer in image:
        if not isinstance(layer, (Conv2d, MaxPool2d, AvgPool2d, ReLU, Tanh)):
            return None
    for layer in dense:
        if not isinstance(layer, (Linear, ReLU, Tanh)):
            return None
    return image, flatten_at, dense


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
            Its layer caches may be clobbered (like any ``forward`` call).
        loss: a per-batch loss instance; its batched counterpart supplies
            the per-group prediction gradients (degenerate groups -- e.g.
            Cox batches without events -- contribute zero rows, matching
            the loop convention).
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
    starts = np.zeros(groups, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    n_max = int(sizes.max())
    group_of = np.repeat(np.arange(groups), sizes)
    flat_idx = np.arange(total) - starts[group_of] + group_of * n_max

    WORKSPACE.reset()
    ctx = (starts, sizes, WORKSPACE)  # group boundaries + scratch, for both walks
    x = np.asarray(x, dtype=np.float64)
    stack = _conv_stack(model)
    if stack is not None:
        pred, backward = _forward_conv_nhwc(stack, x, ctx)
    else:
        pred, backward = _forward_generic(model, x, ctx)

    mask = np.zeros(groups * n_max, dtype=bool)
    mask[flat_idx] = True
    batched_loss = batched_counterpart(loss)
    batched_loss.forward(
        _scatter_padded(pred, flat_idx, groups, n_max),
        _scatter_padded(np.asarray(y, dtype=np.float64), flat_idx, groups, n_max),
        mask.reshape(groups, n_max),
    )
    dpred = batched_loss.backward().reshape(groups * n_max, *pred.shape[1:])[flat_idx]

    blocks = backward(dpred)

    scale = None
    if row_scale is not None:
        sq = np.zeros(groups)
        for index in blocks:
            for block in blocks[index]:
                sq += np.einsum("gk,gk->g", block, block)
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


def _forward_generic(model: Sequential, x: np.ndarray, ctx):
    """Standard-layout walk (dense models and unrecognised structures).

    Linear / Conv2d / ReLU / Tanh run the standard layers' arithmetic
    through the workspace (ReLU as ``x * (x > 0)``: the values of
    ``max(x, 0)``, not its signed zeros); any other parameterless layer
    runs its own ``forward`` / ``backward``.
    """
    starts, sizes, ws = ctx
    layers = model.layers
    caches: list = []
    act, fresh = x, False  # fresh: nothing else holds ``act``
    for layer in layers:
        if isinstance(layer, Linear):
            caches.append(act)
            act, fresh = _linear_forward(layer, act, ws), True
        elif isinstance(layer, Conv2d):
            k, out_c = layer.kernel_size, layer.weight.shape[0]
            cols, oh, ow = _im2col_nchw(act, k, layer.stride, layer.padding, ws)
            z = ws.take((len(act), out_c, oh * ow))
            np.einsum("of,nfp->nop", layer.weight.reshape(out_c, -1), cols, out=z)
            z += layer.bias[None, :, None]
            caches.append((act.shape, cols, oh, ow))
            act, fresh = z.reshape(len(act), out_c, oh, ow), True
        elif isinstance(layer, (ReLU, Tanh)):
            dst = act if fresh else ws.take(act.shape)
            if isinstance(layer, Tanh):
                np.tanh(act, out=dst)
            else:
                mark = ws.mark()
                np.multiply(act, np.greater(act, 0, out=ws.take(act.shape, bool)), out=dst)
                ws.release(mark)
            caches.append(dst)
            act, fresh = dst, False
        elif layer.params:
            raise TypeError(f"no shared-weight gradient rule for {type(layer).__name__}")
        else:
            caches.append(None)
            act, fresh = layer.forward(act), False

    def backward(grad: np.ndarray) -> dict[int, list[np.ndarray]]:
        blocks: dict[int, list[np.ndarray]] = {}
        for index in range(len(layers) - 1, -1, -1):
            layer, cache = layers[index], caches[index]
            if isinstance(layer, Linear):
                blocks[index] = _linear_blocks(cache, grad, ctx)
                if index > 0:
                    grad = _linear_input_grad(layer, grad, ws)
            elif isinstance(layer, Conv2d):
                (n, in_c, h, w), cols, oh, ow = cache  # cols: (B, C*k*k, P)
                k, pad, out_c = layer.kernel_size, layer.padding, layer.weight.shape[0]
                go = grad.reshape(n, out_c, -1)  # (B, out_c, P)
                if index > 0:
                    canvas = ws.take((n, in_c, h + 2 * pad, w + 2 * pad))
                dw_samples = ws.take((n, out_c, cols.shape[1]))
                np.matmul(go, cols.transpose(0, 2, 1), out=dw_samples)
                db_samples = np.sum(go, axis=2, out=ws.take((n, out_c)))
                blocks[index] = [
                    _segment_sum(dw_samples, starts, sizes, ws),
                    _segment_sum(db_samples, starts, sizes, ws),
                ]
                if index > 0:
                    mark = ws.mark()
                    dcols = ws.take((n, in_c, k, k, oh, ow))
                    w_row = layer.weight.reshape(out_c, -1)
                    np.matmul(w_row.T[None], go, out=dcols.reshape(n, -1, oh * ow))
                    grad = _col2im_nchw(dcols, canvas, layer.stride, pad)
                    ws.release(mark)
            elif index > 0:
                if cache is not None:
                    grad = _activation_backward(layer, cache, grad, ws)
                else:
                    grad = layer.backward(grad)
        return blocks

    return act, backward


def _forward_conv_nhwc(stack, x: np.ndarray, ctx):
    """Channels-last walk for ``image-stages -> Flatten -> dense`` models."""
    image, flatten_at, dense = stack
    starts, sizes, ws = ctx
    b = len(x)
    act = ws.take((b, *x.shape[2:], x.shape[1]))
    np.copyto(act, x.transpose(0, 2, 3, 1))  # NCHW -> NHWC
    fresh = True
    caches: list[tuple] = []
    for layer in image:
        if isinstance(layer, Conv2d):
            k = layer.kernel_size
            in_shape = act.shape
            cols, oh, ow = _im2col_nhwc(act, k, k, layer.stride, layer.padding, ws)
            out_c = layer.weight.shape[0]
            # Template (out_c, C, kh, kw) -> NHWC patch order (kh, kw, C).
            w_nhwc = np.ascontiguousarray(layer.weight.transpose(2, 3, 1, 0)).reshape(-1, out_c)
            z = np.matmul(cols, w_nhwc, out=ws.take((len(cols), out_c)))  # one GEMM
            z += layer.bias[None, :]
            act, fresh = z.reshape(b, oh, ow, out_c), True
            caches.append((in_shape, cols, w_nhwc, oh, ow))
        elif isinstance(layer, MaxPool2d):
            pooled = _pool_nhwc_forward(act, layer.size, np.maximum, ws)
            caches.append((act, pooled))
            act, fresh = pooled, False
        elif isinstance(layer, AvgPool2d):
            caches.append((act.shape,))
            act, fresh = _pool_nhwc_forward(act, layer.size, np.add, ws), True
            np.divide(act, layer.size * layer.size, out=act)
        else:  # ReLU / Tanh
            act, fresh = _activate(layer, act, fresh, ws), False
            caches.append((act,))
    image_out_shape = act.shape  # (B, H, W, C)
    h, w, c = image_out_shape[1:]
    # NHWC (h, w, c) -> the template's NCHW flatten order c*H*W + h*W + w.
    # Transposing the (small) flat activations once keeps the whole dense
    # section -- weights and weight gradients -- in the template basis.
    flat = ws.take((b, c * h * w))
    np.copyto(flat.reshape(b, c, h, w), act.transpose(0, 3, 1, 2))

    act, fresh = flat, True
    dense_caches: list[np.ndarray] = []
    for layer in dense:
        if isinstance(layer, Linear):
            dense_caches.append(act)
            act, fresh = _linear_forward(layer, act, ws), True
        else:  # ReLU / Tanh
            act, fresh = _activate(layer, act, fresh, ws), False
            dense_caches.append(act)
    pred = act

    def backward(grad: np.ndarray) -> dict[int, list[np.ndarray]]:
        blocks: dict[int, list[np.ndarray]] = {}
        g_flat = grad
        for offset in range(len(dense) - 1, -1, -1):
            layer, cache = dense[offset], dense_caches[offset]
            if isinstance(layer, Linear):
                blocks[flatten_at + 1 + offset] = _linear_blocks(cache, g_flat, ctx)
                g_flat = _linear_input_grad(layer, g_flat, ws)
            else:
                g_flat = _activation_backward(layer, cache, g_flat, ws)
        g = ws.take(image_out_shape)
        np.copyto(g, g_flat.reshape(b, c, h, w).transpose(0, 2, 3, 1))
        # Per stage: what outlives it (parameter blocks, the gradient handed
        # to the stage below) is taken first, its transients above a mark.
        for pos in range(len(image) - 1, -1, -1):
            layer, cache = image[pos], caches[pos]
            if isinstance(layer, Conv2d):
                in_shape, cols, w_nhwc, oh, ow = cache
                out_c, in_c = layer.weight.shape[:2]
                k, pad = layer.kernel_size, layer.padding
                go_flat = g.reshape(-1, out_c)  # (B*P, out_c), already contiguous
                row_starts = starts * oh * ow
                row_sizes = sizes * oh * ow
                dw = ws.take((len(starts), out_c, in_c, k, k))
                db = _segment_sum(go_flat, row_starts, row_sizes, ws)
                blocks[pos] = [dw.reshape(len(starts), -1), db]
                if pos > 0:
                    n, h_, w_, _ = in_shape
                    canvas = ws.take((n, h_ + 2 * pad, w_ + 2 * pad, in_c))
                mark = ws.mark()
                dw_nhwc = _segment_gemm(cols, go_flat, row_starts, row_sizes, ws)
                # NHWC patch basis (kh, kw, C, out_c) -> template (out_c, C, kh, kw).
                dw_nhwc = dw_nhwc.reshape(len(starts), k, k, in_c, out_c)
                np.copyto(dw, dw_nhwc.transpose(0, 4, 3, 1, 2))
                if pos > 0:
                    dcols = ws.take((b, oh, ow, k, k, in_c))
                    np.matmul(go_flat, w_nhwc.T, out=dcols.reshape(len(go_flat), -1))  # one GEMM
                    g = _col2im_nhwc(dcols, canvas, k, k, layer.stride, pad)
                ws.release(mark)
            elif isinstance(layer, MaxPool2d):
                x_in, pooled = cache
                g = _maxpool_nhwc_backward(x_in, pooled, g, layer.size, ws)
            elif isinstance(layer, AvgPool2d):
                dx = ws.take(cache[0])
                dx.fill(0.0)
                mark = ws.mark()
                spread = np.divide(g, layer.size * layer.size, out=ws.take(g.shape))
                for window in _pool_windows(dx, layer.size):
                    window[...] = spread
                ws.release(mark)
                g = dx
            else:  # ReLU / Tanh
                g = _activation_backward(layer, cache[0], g, ws)
        return blocks

    return pred, backward

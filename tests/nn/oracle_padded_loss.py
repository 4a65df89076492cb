"""The padded group-batched loss gradients the flat rule replaced, kept as its oracle.

The shared-weight walk used to scatter its flat ``(N, K)`` predictions
into a zero-padded ``(G, n_max, K)`` stack, run a group-batched
cross-entropy or binary cross-entropy over it under a validity mask, and
gather the real records' rows back out; the multi-epoch engine ran the same
classes on its padded stacks.  :func:`repro.nn.losses.record_gradient`
forms the same rows record by record and must return them bit for bit.
"""

import numpy as np


def padded_ce_gradient(pred, target, mask):
    """Each group's mean cross-entropy gradient over ``(G, B, K)`` logits."""
    target = np.asarray(target, dtype=np.int64)
    shifted = pred - pred.max(axis=2, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=2, keepdims=True)
    denom = np.maximum(mask.sum(axis=1), 1)
    safe_target = np.where(mask, target, 0)
    grad = probs.copy()
    g, b = safe_target.shape
    grad[np.arange(g)[:, None], np.arange(b)[None, :], safe_target] -= 1.0
    return grad * (mask / denom[:, None])[:, :, None]


def padded_bce_gradient(pred, target, mask):
    """Each group's mean binary cross-entropy gradient over ``(G, B[, 1])`` logits."""
    z = pred.reshape(pred.shape[0], -1).astype(np.float64)
    y = np.asarray(target, dtype=np.float64).reshape(z.shape[0], -1)
    denom = np.maximum(mask.sum(axis=1), 1)
    sigmoid = 1.0 / (1.0 + np.exp(-z))
    return ((sigmoid - y) * mask / denom[:, None]).reshape(pred.shape)


def scatter_padded(values, sizes):
    """``(padded, mask, flat_idx)``: flat grouped rows in a zero-padded
    ``(G, n_max, ...)`` stack, its validity mask, and where each row went."""
    sizes = np.asarray(sizes, dtype=np.int64)
    groups, n_max = len(sizes), int(sizes.max())
    group_of = np.repeat(np.arange(groups), sizes)
    starts = np.cumsum(sizes) - sizes
    flat_idx = np.arange(len(values)) - starts[group_of] + group_of * n_max
    padded = np.zeros((groups * n_max, *values.shape[1:]), values.dtype)
    padded[flat_idx] = values
    mask = np.zeros(groups * n_max, dtype=bool)
    mask[flat_idx] = True
    return (
        padded.reshape(groups, n_max, *values.shape[1:]),
        mask.reshape(groups, n_max),
        flat_idx,
    )


def flat_via_padding(gradient, pred, y, sizes):
    """The old walk's route: scatter, padded gradient, gather."""
    padded_pred, mask, flat_idx = scatter_padded(pred, sizes)
    padded_y, _, _ = scatter_padded(np.asarray(y, dtype=np.float64), sizes)
    grad = gradient(padded_pred, padded_y, mask)
    return grad.reshape(-1, *pred.shape[1:])[flat_idx]

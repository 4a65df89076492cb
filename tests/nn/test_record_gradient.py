"""The flat loss gradient and the one-pass segment reductions of the
shared-weight walk, bit for bit against the padded and two-loop forms
they replaced (``oracle_padded_loss.py``), plus a guard that the walk
allocates no ``(G, n_max)`` padded tensor."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_padded_loss import flat_via_padding, padded_bce_gradient, padded_ce_gradient

from repro.nn import batched
from repro.nn.batched import per_group_gradients
from repro.nn.layers import TRAIN_DTYPE
from repro.nn.losses import (
    BCEWithLogitsLoss,
    SoftmaxCrossEntropyLoss,
    grouped_gradient,
    padded_gradient,
)
from repro.nn.model import build_tiny_mlp

#: (loss, padded oracle, logit columns): CE with K in {2, 10}, BCE as (N, 1).
CASES = {
    "ce2": (SoftmaxCrossEntropyLoss, padded_ce_gradient, 2),
    "ce10": (SoftmaxCrossEntropyLoss, padded_ce_gradient, 10),
    "bce": (BCEWithLogitsLoss, padded_bce_gradient, 1),
}


def same_bits(actual, desired):
    """Equal dtype, shape and bytes: signed zeros included."""
    assert actual.dtype == desired.dtype and actual.shape == desired.shape
    assert np.array_equal(actual, desired)
    assert actual.tobytes() == desired.tobytes()


def draw_sizes(rng, layout, groups):
    """Group sizes as the engine sees them: zipf-skewed users, DP-SGD's
    one-record groups, or many small users beside one huge one."""
    if layout == "ones":
        return np.ones(groups, dtype=np.int64)
    sizes = np.minimum(rng.zipf(1.6, size=groups), 400)
    if layout == "one-huge":
        sizes[rng.integers(groups)] = 1000
    return sizes.astype(np.int64)


def draw_records(rng, case, sizes, scale):
    loss, oracle, k = CASES[case]
    n = int(sizes.sum())
    pred = (scale * rng.uniform(-1.0, 1.0, size=(n, k))).astype(TRAIN_DTYPE)
    classes = 2 if k == 1 else k
    y = rng.integers(0, classes, size=n).astype(np.float64)
    return loss(), oracle, pred, y


@given(
    case=st.sampled_from(sorted(CASES)),
    layout=st.sampled_from(["zipf", "ones", "one-huge"]),
    groups=st.integers(1, 40),
    scale=st.sampled_from([1.0, 10.0, 80.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_flat_rule_equals_padded_oracle(case, layout, groups, scale, seed):
    """The walk's flat rule (each record's row scaled by 1 / its group's
    size) returns the padded route's rows bit for bit, logits up to +-80."""
    rng = np.random.default_rng(seed)
    sizes = draw_sizes(rng, layout, groups)
    loss, oracle, pred, y = draw_records(rng, case, sizes, scale)
    flat = grouped_gradient(loss, pred, y, sizes)
    same_bits(flat, flat_via_padding(oracle, pred, y, sizes))


@given(
    case=st.sampled_from(sorted(CASES)),
    groups=st.integers(1, 12),
    width=st.integers(1, 30),
    scale=st.sampled_from([1.0, 80.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_padded_rule_equals_padded_oracle(case, groups, width, scale, seed):
    """The multi-epoch engine's stacks: weight ``mask / count``, padding
    rows (holding another record's label, as a scheduled gather leaves
    them) exact zeros of the oracle's sign, and an all-padding group."""
    rng = np.random.default_rng(seed)
    loss, oracle, k = CASES[case]
    pred = (scale * rng.uniform(-1.0, 1.0, size=(groups, width, k))).astype(TRAIN_DTYPE)
    if k == 1:
        pred = pred[:, :, 0] if seed % 2 else pred  # (G, B) and (G, B, 1) heads
    y = rng.integers(0, 2 if k == 1 else k, size=(groups, width)).astype(np.float64)
    mask = rng.random((groups, width)) < 0.6
    mask[0] = False
    same_bits(padded_gradient(loss(), pred, y, mask), oracle(pred, y, mask))


def two_loop_grads(a, grad, starts, sizes):
    """The walk's reductions before they shared a pass: every segment's
    GEMM, then every segment's sum."""
    d_weight = np.empty((len(starts), a.shape[1], grad.shape[1]), TRAIN_DTYPE)
    for g, (start, size) in enumerate(zip(starts, sizes)):
        np.matmul(a[start : start + size].T, grad[start : start + size], out=d_weight[g])
    d_bias = np.empty((len(starts), grad.shape[1]), TRAIN_DTYPE)
    for g, (start, size) in enumerate(zip(starts, sizes)):
        np.sum(grad[start : start + size], axis=0, out=d_bias[g])
    return d_weight, d_bias


@given(
    layout=st.sampled_from(["zipf", "ones", "one-huge"]),
    groups=st.integers(1, 30),
    rows_per_record=st.sampled_from([1, 4, 49]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_one_pass_segments_equal_two_loops(layout, groups, rows_per_record, seed):
    """Dense layers (one row a record) and NHWC convolutions (P patch rows a
    record) get the same dW and db bits from one pass as from two loops."""
    rng = np.random.default_rng(seed)
    sizes = draw_sizes(rng, layout, groups) * rows_per_record
    n = int(sizes.sum())
    a = rng.standard_normal((n, 9)).astype(TRAIN_DTYPE)
    grad = rng.standard_normal((n, 5)).astype(TRAIN_DTYPE)
    d_weight = np.empty((groups, 9, 5), TRAIN_DTYPE)
    d_bias = np.empty((groups, 5), TRAIN_DTYPE)
    bounds = [0, *np.cumsum(sizes).tolist()]
    batched._segment_grads(a, grad, bounds, d_weight, d_bias)
    want_weight, want_bias = two_loop_grads(a, grad, np.cumsum(sizes) - sizes, sizes)
    same_bits(d_weight, want_weight)
    same_bits(d_bias, want_bias)


def test_walk_allocates_no_padded_tensor():
    """500 one-record users beside one 2000-record user: a padded
    ``(G, n_max)`` stack would be ~1 MB even as a bool mask (~40 MB as the
    10-class logits).  Once warm-up calls have grown the workspace, the
    walk's peak allocation stays below the mask's size (~0.5 MB: the flat
    logits' softmax and gradient)."""
    rng = np.random.default_rng(0)
    model = build_tiny_mlp(5, 4, 10, np.random.default_rng(1))
    sizes = [1] * 500 + [2000]
    n = sum(sizes)
    x = rng.standard_normal((n, 5)).astype(TRAIN_DTYPE)
    y = rng.integers(0, 10, size=n).astype(np.float64)
    out = np.empty((len(sizes), model.num_params))
    local = batched.scratch_model(model, model.get_flat_params())
    for _ in range(2):  # the slab settles on the second call
        per_group_gradients(local, SoftmaxCrossEntropyLoss(), x, y, sizes, out=out)
    tracemalloc.start()
    try:
        per_group_gradients(local, SoftmaxCrossEntropyLoss(), x, y, sizes, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(sizes) * max(sizes), f"peak {peak} B"

"""DP-SGD (Abadi et al. 2016): the local subroutine of ULDP-GROUP-k.

Each noisy step:

1. Poisson-samples records with rate ``sample_rate`` (every record joins the
   batch independently),
2. computes *per-sample* gradients and clips each to l2 norm ``clip``,
3. sums the clipped gradients and adds Gaussian noise
   N(0, sigma^2 * clip^2 * I),
4. divides by the expected batch size and descends.

Privacy accounting for this subroutine is a sub-sampled Gaussian event with
rate ``sample_rate`` per step (see :mod:`repro.accounting.subsampled`); the
paper's Theorem 2 composes ``Q * T`` such steps, so the ULDP-GROUP client
runs exactly ``local_epochs`` noisy steps per round.

Per-sample gradients come from one batched shared-weight pass with one
group per microbatch (:func:`per_sample_clipped_gradient_sum_vectorized`).
:func:`per_sample_clipped_gradient_sum` -- single-record forward/backward
passes in a loop, obviously correct -- is the same linear algebra
unreassociated: no step calls it; it is the reference the tests compare
the batched pass against (see :mod:`repro.core.engine` for the
equivalence contract).
"""

from __future__ import annotations

import numpy as np

from repro.nn.batched import per_group_gradients
from repro.nn.clip import l2_clip, l2_clip_rows
from repro.nn.losses import DegenerateBatchError, Loss
from repro.nn.model import Sequential


def per_sample_clipped_gradient_sum(
    model: Sequential,
    loss: Loss,
    x: np.ndarray,
    y: np.ndarray,
    clip: float,
    microbatch_size: int = 1,
) -> np.ndarray:
    """Sum of per-microbatch gradients, each clipped to l2 norm ``clip``.

    ``microbatch_size=1`` is canonical per-sample DP-SGD.  Larger
    microbatches are needed for losses that are undefined on single records
    (the Cox partial likelihood): clipping then bounds each *microbatch's*
    contribution, the classic TF-privacy microbatch relaxation -- removing
    one record perturbs exactly one clipped microbatch gradient, so the
    per-record sensitivity is at most 2 * clip instead of clip.  The
    ULDP-GROUP baseline accepts this standard looseness for survival tasks
    (and the paper's GDP epsilons are enormous regardless).
    """
    if microbatch_size < 1:
        raise ValueError("microbatch size must be at least 1")
    total = np.zeros(model.num_params)
    n = x.shape[0]
    for start in range(0, n, microbatch_size):
        idx = slice(start, min(start + microbatch_size, n))
        model.zero_grad()
        pred = model.forward(x[idx])
        try:
            loss.forward(pred, y[idx])
        except DegenerateBatchError:
            continue
        model.backward(loss.backward())
        total += l2_clip(model.get_flat_grads(), clip)
    return total


def per_sample_clipped_gradient_sum_vectorized(
    model: Sequential,
    loss: Loss,
    x: np.ndarray,
    y: np.ndarray,
    clip: float,
    microbatch_size: int = 1,
) -> np.ndarray:
    """Vectorized :func:`per_sample_clipped_gradient_sum`.

    Every microbatch's gradient is taken at the *same* parameters, so all
    of them come out of one shared-weight forward/backward
    (:func:`repro.nn.batched.per_group_gradients`, one group per
    microbatch); clipping is then row-wise and the sum a single reduction.
    Degenerate microbatches contribute zero rows, matching the loop's skip.
    """
    if microbatch_size < 1:
        raise ValueError("microbatch size must be at least 1")
    n = x.shape[0]
    if n == 0:
        return np.zeros(model.num_params)
    sizes = [
        min(start + microbatch_size, n) - start for start in range(0, n, microbatch_size)
    ]
    grads = per_group_gradients(model, loss, x, y, sizes)
    return l2_clip_rows(grads, clip).sum(axis=0)


def dpsgd_step(
    model: Sequential,
    loss: Loss,
    x: np.ndarray,
    y: np.ndarray,
    lr: float,
    clip: float,
    noise_multiplier: float,
    sample_rate: float,
    rng: np.random.Generator,
    microbatch_size: int = 1,
) -> None:
    """One Poisson-sampled, clipped, noised gradient step (in place)."""
    n = x.shape[0]
    mask = rng.random(n) < sample_rate
    expected_batch = max(sample_rate * n, 1e-12)
    if mask.any():
        grad_sum = per_sample_clipped_gradient_sum_vectorized(
            model, loss, x[mask], y[mask], clip, microbatch_size=microbatch_size
        )
    else:
        grad_sum = np.zeros(model.num_params)
    noise = rng.normal(0.0, noise_multiplier * clip, size=model.num_params)
    update = (grad_sum + noise) / expected_batch
    model.set_flat_params(model.get_flat_params() - lr * update)


def dpsgd_train(
    model: Sequential,
    loss: Loss,
    x: np.ndarray,
    y: np.ndarray,
    lr: float,
    steps: int,
    clip: float,
    noise_multiplier: float,
    sample_rate: float,
    rng: np.random.Generator,
    microbatch_size: int = 1,
) -> None:
    """Run ``steps`` DP-SGD steps in place.

    The caller is responsible for accounting ``steps`` sub-sampled Gaussian
    compositions at rate ``sample_rate``.
    """
    if not 0 < sample_rate <= 1:
        raise ValueError("sample_rate must lie in (0, 1]")
    if clip <= 0:
        raise ValueError("clip bound must be positive")
    if noise_multiplier < 0:
        raise ValueError("noise multiplier must be non-negative")
    for _ in range(max(0, steps)):
        dpsgd_step(
            model, loss, x, y, lr, clip, noise_multiplier, sample_rate, rng,
            microbatch_size=microbatch_size,
        )

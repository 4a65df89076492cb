"""Conversion from RDP to approximate (eps, delta)-DP.

Implements Lemma 2 of the paper (Balle, Barthe, Gaboardi, Hsu & Sato 2020):

    eps(alpha) = rho + log((alpha - 1) / alpha) - (log(delta) + log(alpha)) / (alpha - 1)

The final epsilon reported anywhere in the library is the minimum of
eps(alpha) over the order grid, exactly as Theorems 1-3 prescribe ("the
actual eps is numerically calculated by selecting the optimal alpha").
"""

from __future__ import annotations

import math

import numpy as np

from repro.accounting.rdp import DEFAULT_ALPHAS


def rdp_to_dp(alpha: float, rho: float, delta: float) -> float:
    """(alpha, rho)-RDP implies (eps, delta)-DP for this eps (Lemma 2).

    Floored at 0: near ``rho = 0`` (nothing released yet) the bound dips
    below zero, and (0, delta)-DP is the strongest statement there is.
    """
    if alpha <= 1:
        raise ValueError("Renyi order must exceed 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if rho < 0:
        raise ValueError("rho must be non-negative")
    return max(
        0.0,
        rho
        + math.log((alpha - 1.0) / alpha)
        - (math.log(delta) + math.log(alpha)) / (alpha - 1.0),
    )


def rdp_curve_to_dp(
    rhos: np.ndarray, delta: float, alphas: np.ndarray | None = None
) -> tuple[float, float]:
    """Best (eps, delta)-DP over the order grid.

    Args:
        rhos: RDP curve values, aligned with ``alphas``.
        delta: target delta.
        alphas: order grid; defaults to :data:`DEFAULT_ALPHAS`.

    Returns:
        (eps, best_alpha) -- the minimised epsilon and the order attaining it.
        Non-finite curve entries (e.g. orders invalidated by a group
        conversion) are skipped.
    """
    alphas = DEFAULT_ALPHAS if alphas is None else np.asarray(alphas, dtype=np.float64)
    rhos = np.asarray(rhos, dtype=np.float64)
    if rhos.shape != alphas.shape:
        raise ValueError("rhos and alphas must be aligned")
    best_eps = math.inf
    best_alpha = math.nan
    for alpha, rho in zip(alphas, rhos):
        if not np.isfinite(rho) or alpha <= 1:
            continue
        eps = rdp_to_dp(float(alpha), float(rho), delta)
        if eps < best_eps:
            best_eps = eps
            best_alpha = float(alpha)
    if not math.isfinite(best_eps):
        raise ValueError("no finite epsilon on the order grid")
    return best_eps, best_alpha

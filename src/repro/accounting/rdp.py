"""Renyi differential privacy of the Gaussian mechanism.

Implements the building blocks used throughout the paper's analysis:

- Lemma 3: the Gaussian mechanism with noise multiplier sigma (noise std =
  sigma * sensitivity) satisfies (alpha, alpha / (2 sigma^2))-RDP.
- Lemma 1: adaptive composition adds RDP parameters order-wise (the
  ``steps`` factor of :func:`gaussian_rdp_curve`; the accountant sums
  its events' curves).

An *RDP curve* here is a numpy array of rho values evaluated on a fixed grid
of orders ``alphas``; all higher-level routines operate on curves so that the
final RDP->DP conversion can pick the optimal order.
"""

from __future__ import annotations

import numpy as np

#: Default grid of Renyi orders.  Matches the spirit of Opacus's default
#: (1 < alpha <= 64) but extends to much larger orders because the group-
#: privacy conversion of Lemma 6 consumes a factor of 2^c in the order:
#: recovering a group-RDP curve up to order 64 for group size 1024 needs
#: base orders up to 65536.
DEFAULT_ALPHAS = np.array(
    [1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0, 3.5, 4.0, 4.5]
    + list(range(5, 64))
    + [64, 80, 96, 128, 160, 192, 256, 320, 384, 512, 640, 768, 1024,
       1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384, 24576, 32768,
       49152, 65536, 98304, 131072],
    dtype=np.float64,
)


def gaussian_rdp(sigma: float, alpha: float) -> float:
    """RDP of the Gaussian mechanism at a single order (Lemma 3).

    Args:
        sigma: noise multiplier (noise std divided by l2-sensitivity).
        alpha: Renyi order, must be > 1.

    Returns:
        rho such that the mechanism is (alpha, rho)-RDP.
    """
    if sigma <= 0:
        raise ValueError("noise multiplier must be positive")
    if alpha <= 1:
        raise ValueError("Renyi order must exceed 1")
    return alpha / (2.0 * sigma**2)


def gaussian_rdp_curve(sigma: float, steps: int = 1, alphas: np.ndarray | None = None) -> np.ndarray:
    """RDP curve of ``steps`` adaptive compositions of the Gaussian mechanism.

    Composition is linear in rho (Lemma 1), so the curve is simply
    ``steps * alpha / (2 sigma^2)`` evaluated on the order grid.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    alphas = DEFAULT_ALPHAS if alphas is None else np.asarray(alphas, dtype=np.float64)
    if np.any(alphas <= 1):
        raise ValueError("all Renyi orders must exceed 1")
    if sigma <= 0:
        raise ValueError("noise multiplier must be positive")
    return steps * alphas / (2.0 * sigma**2)

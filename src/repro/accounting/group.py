"""Group-privacy conversions: record-level DP to (k, eps, delta)-Group DP.

Two routes, mirroring the paper's Figure 2 pre-experiment:

1. **RDP route** (Lemma 6; Mironov 2017, Prop. 11).  For group size
   k = 2^c, applying the doubling step c times maps an (alpha, rho)-RDP
   guarantee to an (alpha / 2^c, 3^c rho)-RDP guarantee w.r.t. k-record
   neighbours, after which Lemma 2 converts to approximate DP.  The group
   size must be a power of two; callers with other k use the largest power
   of two below k (the paper does the same, reporting a lower bound).

2. **Approximate-DP route** (Lemma 5).  (eps, delta)-DP implies
   (k eps, k e^{(k-1) eps} delta)-GDP for any k.  Fixing the *final* delta
   requires searching the intermediate delta, because the Lemma 2 output
   eps depends on the input delta and the Lemma 5 output delta depends on
   both.  We follow the paper's footnote 1: scan + bisection over the
   intermediate delta until the final delta matches the target within 1e-8.
"""

from __future__ import annotations

import math

import numpy as np

from repro.accounting.conversion import rdp_curve_to_dp
from repro.accounting.rdp import DEFAULT_ALPHAS


def largest_power_of_two_leq(k: int) -> int:
    """Largest power of two that is <= k (k >= 1)."""
    if k < 1:
        raise ValueError("group size must be at least 1")
    return 1 << (k.bit_length() - 1)


def group_rdp_curve(
    rhos: np.ndarray, group_size: int, alphas: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Apply Lemma 6 (RDP doubling) to an RDP curve.

    Args:
        rhos: base record-level RDP curve on ``alphas``.
        group_size: k; must be a power of two (use
            :func:`largest_power_of_two_leq` first otherwise).
        alphas: base order grid.

    Returns:
        (group_alphas, group_rhos): the k-record-neighbour RDP curve.  Each
        base order alpha contributes the point (alpha / k, 3^c rho(alpha))
        where c = log2 k; points with resulting order <= 1 are dropped.
    """
    alphas = DEFAULT_ALPHAS if alphas is None else np.asarray(alphas, dtype=np.float64)
    rhos = np.asarray(rhos, dtype=np.float64)
    if rhos.shape != alphas.shape:
        raise ValueError("rhos and alphas must be aligned")
    if group_size < 1:
        raise ValueError("group size must be at least 1")
    if group_size & (group_size - 1):
        raise ValueError("group size must be a power of two for the RDP route")
    if group_size == 1:
        return alphas.copy(), rhos.copy()

    c = group_size.bit_length() - 1
    group_alphas = alphas / group_size
    group_rhos = (3.0**c) * rhos
    keep = group_alphas > 1.0
    if not np.any(keep):
        raise ValueError(
            "order grid too small for this group size; extend alphas beyond "
            f"{2 * group_size}"
        )
    return group_alphas[keep], group_rhos[keep]


def group_epsilon_via_rdp(
    rhos: np.ndarray,
    group_size: int,
    delta: float,
    alphas: np.ndarray | None = None,
) -> float:
    """Final GDP epsilon at fixed delta using the RDP route (Lemma 6 + 2).

    Non-power-of-two group sizes are rounded *down* to a power of two,
    matching the paper's reporting convention (a lower bound on the true
    epsilon that is already large enough to make the point).
    """
    k = largest_power_of_two_leq(group_size)
    g_alphas, g_rhos = group_rdp_curve(rhos, k, alphas=alphas)
    eps, _ = rdp_curve_to_dp(g_rhos, delta, alphas=g_alphas)
    return eps


def group_epsilon_via_normal_dp(
    rhos: np.ndarray,
    group_size: int,
    delta: float,
    alphas: np.ndarray | None = None,
    tolerance: float = 1e-8,
    scan_points: int = 200,
) -> float:
    """Final GDP epsilon at fixed delta via the approximate-DP route.

    Implements footnote 1 of the paper: choose an intermediate delta_l2,
    convert the RDP curve to (eps_l2, delta_l2)-DP via Lemma 2, push through
    Lemma 5 to get (k eps_l2, delta_l5)-GDP, and search delta_l2 so that
    delta_l5 is as close to the target delta as possible (from below, so the
    reported guarantee is valid).  The map delta_l2 -> delta_l5 need not be
    monotone for large k (the paper notes numerical instability); we scan a
    geometric grid, keep feasible points (delta_l5 <= delta), and refine the
    best feasible/infeasible boundary by bisection.

    Returns the smallest feasible k * eps_l2 found.
    """
    if group_size == 1:
        eps, _ = rdp_curve_to_dp(rhos, delta, alphas=alphas)
        return eps

    k = group_size
    log_delta_target = math.log(delta)

    def rdp_eps_at_log_delta(log_delta_l2: float) -> float:
        """Lemma 2 conversion with log(delta) given directly (no underflow)."""
        alphas_arr = DEFAULT_ALPHAS if alphas is None else np.asarray(alphas)
        best = math.inf
        for alpha, rho in zip(alphas_arr, np.asarray(rhos)):
            if not np.isfinite(rho) or alpha <= 1:
                continue
            eps = (
                rho
                + math.log((alpha - 1.0) / alpha)
                - (log_delta_l2 + math.log(alpha)) / (alpha - 1.0)
            )
            best = min(best, eps)
        return best

    def final_eps_and_log_delta(log_delta_l2: float) -> tuple[float, float]:
        """Lemma 5 in log space: log(delta_l5) = log k + (k-1) eps + log delta_l2."""
        eps_l2 = rdp_eps_at_log_delta(log_delta_l2)
        log_delta_l5 = math.log(k) + (k - 1) * eps_l2 + log_delta_l2
        return k * eps_l2, log_delta_l5

    # The feasible region can sit extremely deep: eps_l2 grows only like
    # sqrt(-log delta_l2), so (k-1) * eps_l2 + log delta_l2 <= log delta
    # needs -log delta_l2 on the order of k^2 * rho.  Scan geometrically to
    # a depth that scales with k^2.
    depth = max(200.0, 10.0 * k * k * max(1.0, float(np.nanmin(rhos[np.isfinite(rhos)]))))
    log_grid = np.linspace(log_delta_target, log_delta_target - depth, scan_points)

    best_eps = math.inf
    best_idx = -1
    results = []
    for i, log_d2 in enumerate(log_grid):
        eps_f, log_delta_f = final_eps_and_log_delta(float(log_d2))
        results.append((eps_f, log_delta_f))
        if log_delta_f <= log_delta_target and eps_f < best_eps:
            best_eps = eps_f
            best_idx = i

    if best_idx == -1:
        raise ValueError(
            "no feasible intermediate delta found; the group-privacy "
            "conversion diverged (group size too large for this RDP curve)"
        )

    # Refine: the best feasible grid point typically neighbours an
    # infeasible one at larger delta_l2 (larger delta_l2 => smaller eps_l2
    # => smaller final eps, but larger final delta).  Bisect the boundary.
    if best_idx > 0 and results[best_idx - 1][1] > log_delta_target:
        lo = float(log_grid[best_idx])      # feasible
        hi = float(log_grid[best_idx - 1])  # infeasible (delta_l5 too big)
        for _ in range(200):
            mid = (lo + hi) / 2.0
            eps_f, log_delta_f = final_eps_and_log_delta(mid)
            if log_delta_f <= log_delta_target:
                lo = mid
                if eps_f < best_eps:
                    best_eps = eps_f
            else:
                hi = mid
            if abs(log_delta_f - log_delta_target) < tolerance:
                break

    return best_eps

"""Scalar reference for the sampled-Gaussian RDP bound (test oracle).

This is the term-by-term pure-Python evaluation of Mironov, Talwar &
Zhang (2019) that ``repro.accounting.subsampled`` shipped before its
array kernel: one ``_log_add`` and three scalar ``gammaln`` calls per
binomial term, ~3.5 s per default-grid curve.  It stays here, unchanged,
as the differential oracle the array kernel is compared against
(``test_subsampled_oracle.py``); nothing under ``src/`` imports it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special


def _log_add(log_a: float, log_b: float) -> float:
    """log(exp(log_a) + exp(log_b)) without overflow."""
    if log_a == -math.inf:
        return log_b
    if log_b == -math.inf:
        return log_a
    hi, lo = max(log_a, log_b), min(log_a, log_b)
    return hi + math.log1p(math.exp(lo - hi))


def _log_sub(log_a: float, log_b: float) -> float:
    """log(exp(log_a) - exp(log_b)); requires log_a >= log_b."""
    if log_b == -math.inf:
        return log_a
    if log_b > log_a:
        raise ValueError("log_sub requires log_a >= log_b")
    if log_a == log_b:
        return -math.inf
    return log_a + math.log1p(-math.exp(log_b - log_a))


def _log_comb(n: float, k: int) -> float:
    """log of the binomial coefficient C(n, k) for integer n."""
    return special.gammaln(n + 1) - special.gammaln(k + 1) - special.gammaln(n - k + 1)


def _log_erfc(x: float) -> float:
    """log(erfc(x)), stable for large positive x."""
    return math.log(2.0) + special.log_ndtr(-x * 2.0**0.5)


def _compute_log_a_int(q: float, sigma: float, alpha: int) -> float:
    """log A(alpha) for integer alpha via the finite binomial sum."""
    log_a = -math.inf
    for i in range(alpha + 1):
        log_coef_i = _log_comb(alpha, i) + i * math.log(q) + (alpha - i) * math.log1p(-q)
        s = log_coef_i + (i * i - i) / (2.0 * sigma**2)
        log_a = _log_add(log_a, s)
    return log_a


def _compute_log_a_frac(q: float, sigma: float, alpha: float) -> float:
    """log A(alpha) for fractional alpha via the two-sided convergent series."""
    log_a0, log_a1 = -math.inf, -math.inf
    i = 0
    z0 = sigma**2 * math.log(1.0 / q - 1.0) + 0.5
    while True:
        coef = special.binom(alpha, i)
        log_coef = math.log(abs(coef)) if coef != 0 else -math.inf
        j = alpha - i

        log_t0 = log_coef + i * math.log(q) + j * math.log1p(-q)
        log_t1 = log_coef + j * math.log(q) + i * math.log1p(-q)

        log_e0 = math.log(0.5) + _log_erfc((i - z0) / (math.sqrt(2) * sigma))
        log_e1 = math.log(0.5) + _log_erfc((z0 - j) / (math.sqrt(2) * sigma))

        log_s0 = log_t0 + (i * i - i) / (2.0 * sigma**2) + log_e0
        log_s1 = log_t1 + (j * j - j) / (2.0 * sigma**2) + log_e1

        if coef > 0:
            log_a0 = _log_add(log_a0, log_s0)
            log_a1 = _log_add(log_a1, log_s1)
        else:
            log_a0 = _log_sub(log_a0, log_s0)
            log_a1 = _log_sub(log_a1, log_s1)

        i += 1
        if max(log_s0, log_s1) < -30 and i > alpha:
            break

    return _log_add(log_a0, log_a1)


def oracle_rdp(q: float, sigma: float, alpha: float) -> float:
    """rho(alpha) of one step, 0 < q < 1, by the scalar loops."""
    if float(alpha).is_integer():
        log_a = _compute_log_a_int(q, sigma, int(alpha))
    else:
        log_a = _compute_log_a_frac(q, sigma, alpha)
    return log_a / (alpha - 1.0)


def oracle_rdp_curve(q: float, sigma: float, alphas: np.ndarray) -> np.ndarray:
    """One-step RDP curve on ``alphas``, 0 < q < 1, by the scalar loops."""
    return np.array([oracle_rdp(q, sigma, a) for a in alphas])

"""Accounting references that only the tests call.

The single-order sub-sampled bound and the closed form of Lemma 4 are what
the vectorized curve (``repro.accounting.subsampled``) is checked against;
:func:`rdp_curve` reads an accountant's composed curve.  Nothing launched
calls them, so they live here; the private helpers they share with the
curve stay in ``src/``.  ``tests/accounting`` is not on ``sys.path`` for
other suites: add it, as ``tests/sim/test_resume_every_method.py`` does.
"""

from __future__ import annotations

import math

import numpy as np

from repro.accounting.accountant import PrivacyAccountant
from repro.accounting.subsampled import (
    _BLOCK,
    _check_mechanism,
    _log_comb,
    _log_factorials,
    _LogSumExp,
    _rdp_at_order,
)


def subsampled_gaussian_rdp(q: float, sigma: float, alpha: float) -> float:
    """Tight RDP bound of one sub-sampled Gaussian step at a single order.

    Args:
        q: Poisson sampling rate in [0, 1].
        sigma: noise multiplier.
        alpha: Renyi order > 1.

    Returns:
        rho(alpha) = log(A(alpha)) / (alpha - 1).
    """
    _check_mechanism(q, sigma)
    if alpha <= 1:
        raise ValueError("Renyi order must exceed 1")
    return _rdp_at_order(q, sigma, float(alpha))


def subsampled_rdp_closed_form(q: float, sigma: float, alpha: int) -> float:
    """Closed-form upper bound of Lemma 4 (Wang et al. 2019), integer alpha.

    rho'(alpha) <= 1/(alpha-1) * log(1 + 2 q^2 C(alpha,2)
        min{2(e^{1/sigma^2} - 1), e^{1/sigma^2}}
        + sum_{j=3}^alpha 2 q^j C(alpha,j) e^{j(j-1)/(2 sigma^2)}),
    summed in log space: the terms overflow a double from alpha ~ 200 at
    sigma = 5.
    """
    if not 0 <= q < 1:
        raise ValueError("sampling rate must lie in [0, 1)")
    if sigma <= 0:
        raise ValueError("noise multiplier must be positive")
    if not float(alpha).is_integer() or alpha < 2:
        raise ValueError("closed form requires integer alpha >= 2")
    alpha = int(alpha)
    if q == 0:
        return 0.0
    log_fact = _log_factorials(alpha)
    log_2, log_q = math.log(2.0), math.log(q)
    s = 1.0 / sigma**2
    # log min{2(e^s - 1), e^s}, with e^s - 1 = e^s (1 - e^-s).
    log_e_term = min(log_2 + s + math.log(-math.expm1(-s)), s)
    total = _LogSumExp()
    log_c2 = log_fact[alpha] - log_fact[2] - log_fact[alpha - 2]
    total.add(np.array([0.0, log_2 + log_c2 + 2.0 * log_q + log_e_term]))
    for lo in range(3, alpha + 1, _BLOCK):
        hi = min(lo + _BLOCK, alpha + 1)
        j = np.arange(lo, hi, dtype=np.float64)
        total.add(log_2 + _log_comb(log_fact, alpha, lo, hi) + j * log_q + (j * j - j) * (s / 2.0))
    return total.value() / (alpha - 1.0)


def rdp_curve(accountant: PrivacyAccountant) -> np.ndarray:
    """The accountant's current composed RDP curve (a copy)."""
    return accountant._rhos.copy()

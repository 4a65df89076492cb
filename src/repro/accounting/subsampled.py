"""RDP of the Poisson-sub-sampled Gaussian mechanism.

:func:`subsampled_gaussian_rdp_curve` is the numerically tight bound of
Mironov, Talwar & Zhang, "Renyi differential privacy of the sampled
Gaussian mechanism" (2019), the computation Opacus uses, on an order grid.
For integer orders it evaluates a finite binomial sum; for fractional
orders the convergent two-sided series with erfc terms.  All computation
happens in log space for stability, on arrays of terms in blocks (the
term-by-term form is the test oracle, ``tests/accounting/oracle_subsampled.py``;
costs in docs/privacy_accounting.md, "Cost of the accountant").  It takes
the sampling rate q (probability a record/user participates in a step)
and the noise multiplier sigma.  The single-order form and the looser
closed-form bound of Wang, Balle & Kasiviswanathan (2019), the paper's
Lemma 4, are test references (``tests/accounting/accounting_reference.py``).

The special functions the bounds need -- ``log(i!)``, ``log erfc`` and the
signed generalised binomials ``C(alpha, i)`` -- are this module's own
vectorised NumPy + :mod:`math` helpers, so a sub-sampled release costs no
import beyond NumPy.
"""

from __future__ import annotations

import math

import numpy as np

from repro.accounting.rdp import DEFAULT_ALPHAS, gaussian_rdp

#: Terms of the integer-order binomial sum evaluated per array pass.  The
#: default grid reaches order 131072, so blocking the ``i`` axis keeps the
#: temporaries at ~64 KiB each however large the order is.
_BLOCK = 8192
#: Terms of the fractional-order series' first pass; each later pass
#: doubles, up to ``_BLOCK``.  The series stops after under ten terms at
#: q = 0.01 and after thousands at q = 0.5 (there only the generalised
#: binomials decay, polynomially); a short first pass wastes little in the
#: first case, and doubling keeps the passes few in the second.
_SERIES_BLOCK = 256

#: ``log(i!)`` for ``i < 13``: ``i!`` is exact in a double there and its
#: log is correctly rounded.
_SMALL_LOG_FACTORIAL = np.log([float(math.factorial(i)) for i in range(13)])
#: ``log(sqrt(2 pi))``, the constant of Stirling's series.
_LOG_SQRT_2PI = 0.91893853320467274178
#: The series' correction ``sum_k c_k / x^(2k-1)`` as a polynomial in
#: ``1 / x^2`` (highest power first), over ``x`` -- Cephes' ``lgam``: a
#: minimax fit for ``13 <= x < 1000``, Stirling's 1/12, -1/360, 1/1260
#: beyond.
_STIRLING_NEAR = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
                  7.93650340457716943945e-4, -2.77777777730099687205e-3,
                  8.33333333333331927722e-2)
_STIRLING_FAR = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
                 0.0833333333333333333333)

#: ``_LOG_FACTORIAL[i] = log(i!)``.  Independent of (q, sigma), so every
#: order of a curve and every step of a calibration bisection shares it.
#: Only ever replaced by a longer array with the same prefix; entry ``i`` is
#: :func:`_log_factorial_entries` of ``i`` alone however the table got there,
#: which keeps results independent of what was evaluated earlier in the
#: process.
_LOG_FACTORIAL = np.zeros(1)


def _log_factorial_entries(i: np.ndarray) -> np.ndarray:
    """``log(i!)`` for an array of integer-valued ``i >= 0``, entry by entry.

    Exact below 13; from there Stirling's series for ``log Gamma(x)``,
    ``x = i + 1``: ``(x - 1/2) log x - x + log sqrt(2 pi)`` plus the
    correction, evaluated as Cephes' ``lgam`` does -- within three ulps of
    the exact value to the default grid's order 131072, as ``lgam`` is.
    """
    x = i + 1.0
    p = 1.0 / (x * x)
    correction = np.polyval(_STIRLING_FAR, p)
    near = x < 1000.0
    correction[near] = np.polyval(_STIRLING_NEAR, p[near])
    out = (x - 0.5) * np.log(x) - x + _LOG_SQRT_2PI + correction / x
    small = i < len(_SMALL_LOG_FACTORIAL)
    out[small] = _SMALL_LOG_FACTORIAL[i[small].astype(np.intp)]
    return out


def _log_factorials(n: int) -> np.ndarray:
    """The ``log(i!)`` table with at least ``n + 1`` entries, grown on demand."""
    global _LOG_FACTORIAL
    table = _LOG_FACTORIAL
    if len(table) <= n:
        # In blocks: cache-sized temporaries halve the time.
        tail = [
            _log_factorial_entries(np.arange(lo, min(lo + _BLOCK, n + 1), dtype=np.float64))
            for lo in range(len(table), n + 1, _BLOCK)
        ]
        table = _LOG_FACTORIAL = np.concatenate([table, *tail])
    return table


def _log_comb(log_fact: np.ndarray, alpha: int, lo: int, hi: int) -> np.ndarray:
    """``log C(alpha, i)`` for integer ``alpha`` and ``lo <= i < hi``."""
    return log_fact[alpha] - log_fact[lo:hi] - log_fact[alpha - hi + 1 : alpha - lo + 1][::-1]


def _generalised_binomials(alpha: float, first: int):
    """Yield ``(i, log|C(alpha, i)|, sign C(alpha, i))`` for ``i = 0, 1, ...``
    in blocks of ``first`` terms, then twice as many each time, up to ``_BLOCK``.

    ``C(alpha, i + 1) = C(alpha, i) (alpha - i) / (i + 1)``, so ``log|C|``
    is the running sum of ``log|(alpha - i) / (i + 1)|`` from ``C(alpha, 0)
    = 1``, carried across blocks; one factor turns negative for every
    ``i > floor(alpha)``, so the signs alternate from ``i = floor(alpha) + 2``.
    """
    floor_alpha = math.floor(alpha)
    lo, size, log_abs = 0, first, 0.0
    while True:
        i = np.arange(lo, lo + size, dtype=np.float64)
        steps = np.log(np.abs((alpha - i) / (i + 1.0)))
        log_coef = np.cumsum(np.concatenate(([log_abs], steps[:-1])))
        log_abs = log_coef[-1] + steps[-1]
        signs = np.ones(size)
        signs[max(floor_alpha + 2 - lo, (floor_alpha - lo) % 2) :: 2] = -1.0
        yield i, log_coef, signs
        lo, size = lo + size, max(size, min(2 * size, _BLOCK))


class _LogSumExp:
    """Streaming ``log(sum_k sign_k exp(x_k))`` over blocks of log-terms.

    The largest term seen so far (``peak``) is kept out of the sum and the
    others are accumulated relative to it, so the value is
    ``peak + log1p(rest)``.  When one term dominates -- the small-q regime,
    where log A is of order q^2 -- this keeps the relative precision a
    plain ``log(sum)`` would lose to the spacing of doubles near 1.
    """

    def __init__(self):
        self.peak = -math.inf
        self.peak_sign = 1.0
        self.rest = 0.0

    def add(self, log_terms: np.ndarray, signs: np.ndarray | None = None) -> None:
        k = int(np.argmax(log_terms))
        new_peak = log_terms[k] > self.peak
        if new_peak:
            # The old peak becomes an ordinary term of the rescaled sum.
            self.rest = (self.rest + self.peak_sign) * math.exp(self.peak - log_terms[k])
            self.peak = float(log_terms[k])
            self.peak_sign = 1.0 if signs is None else float(signs[k])
        weights = np.exp(log_terms - self.peak)
        if new_peak:
            weights[k] = 0.0
        self.rest += float(weights.sum() if signs is None else signs @ weights)

    def value(self) -> float:
        """Raises ValueError if the signed sum is not positive."""
        return self.peak + math.log1p(self.rest + (self.peak_sign - 1.0))


#: From here on ``log erfc`` comes from its asymptotic series; below,
#: ``math.erfc`` entry by entry (erfc(16) ~ 6e-113 is far from underflow).
_ERFC_ASYMPTOTIC_FROM = 16.0
#: The asymptotic series' coefficients ``(-1)^k (2k-1)!!``, k = 0 .. 10,
#: and, for n = 1 .. 10, the largest ``u = 1 / (2 x^2)`` at which the terms
#: from the n-th on add less than 1e-17 (10 terms at x = 16, 3 at x = 1000).
_ERFC_SERIES = np.cumprod([1.0] + [1.0 - 2.0 * k for k in range(1, 11)])
_ERFC_U_LIMITS = (1e-17 / np.abs(_ERFC_SERIES[1:])) ** (1.0 / np.arange(1, 11))


def _log_erfc(x: np.ndarray) -> np.ndarray:
    """``log(erfc(x))`` for an array, finite however far ``erfc`` underflows."""
    far = x >= _ERFC_ASYMPTOTIC_FROM
    if far.all():
        return _log_erfc_asymptotic(x)
    out = np.empty_like(x)
    near = ~far
    out[near] = np.log(np.fromiter(map(math.erfc, x[near].tolist()), np.float64))
    if far.any():
        out[far] = _log_erfc_asymptotic(x[far])
    return out


def _log_erfc_asymptotic(x: np.ndarray) -> np.ndarray:
    """``log erfc(x)`` for ``x >= 16`` from
    ``erfc(x) = exp(-x^2) / (x sqrt(pi)) * sum_k (-1)^k (2k-1)!! / (2 x^2)^k``,
    to the terms that still count at the smallest ``x``."""
    x2 = x * x
    u = 0.5 / x2
    terms = 1 + int(np.searchsorted(_ERFC_U_LIMITS, u.max()))
    series = np.full_like(u, _ERFC_SERIES[terms - 1])
    for c in _ERFC_SERIES[: terms - 1][::-1].tolist():
        series *= u
        series += c
    return np.log(series / x) - x2 - 0.5 * math.log(math.pi)


def _log_a_integer(q: float, sigma: float, alpha: int) -> float:
    """log A(alpha) for integer alpha via the finite binomial sum.

    Term i is C(alpha, i) q^i (1-q)^(alpha-i) exp((i^2 - i) / (2 sigma^2)),
    evaluated in log space for ``_BLOCK`` values of i at a time.
    """
    log_fact = _log_factorials(alpha)
    log_q, log_1mq = math.log(q), math.log1p(-q)
    total = _LogSumExp()
    for lo in range(0, alpha + 1, _BLOCK):
        hi = min(lo + _BLOCK, alpha + 1)
        i = np.arange(lo, hi, dtype=np.float64)
        log_coef = _log_comb(log_fact, alpha, lo, hi) + i * log_q + (alpha - i) * log_1mq
        total.add(log_coef + (i * i - i) / (2.0 * sigma**2))
    return total.value()


def _log_a_fractional(q: float, sigma: float, alpha: float) -> float:
    """log A(alpha) for fractional alpha via the two-sided convergent series.

    The series is summed until both sides' terms fall below e^-30 (and
    i > alpha - 1, past which the generalised binomials alternate in sign).
    """
    log_q, log_1mq = math.log(q), math.log1p(-q)
    z0 = sigma**2 * math.log(1.0 / q - 1.0) + 0.5
    side0, side1 = _LogSumExp(), _LogSumExp()
    for i, log_coef, signs in _generalised_binomials(alpha, _SERIES_BLOCK):
        # Row 0 is the lower side's term i, row 1 the upper side's, whose
        # roles of i and j = alpha - i are swapped.
        k = np.stack([i, alpha - i])
        log_t = log_coef + k * log_q + k[::-1] * log_1mq
        log_e = math.log(0.5) + _log_erfc(np.stack([i - z0, z0 - k[1]]) / (math.sqrt(2) * sigma))
        log_s = log_t + (k * k - k) / (2.0 * sigma**2) + log_e

        # The series ends with the first term where both sides are
        # negligible and the binomials have started to alternate.
        negligible = (log_s.max(axis=0) < -30) & (i + 1 > alpha)
        converged = bool(negligible.any())
        stop = int(np.argmax(negligible)) + 1 if converged else len(i)
        side0.add(log_s[0, :stop], signs[:stop])
        side1.add(log_s[1, :stop], signs[:stop])
        if converged:
            break

    return float(np.logaddexp(side0.value(), side1.value()))


def _check_mechanism(q: float, sigma: float) -> None:
    if not 0 <= q <= 1:
        raise ValueError("sampling rate must lie in [0, 1]")
    if sigma <= 0:
        raise ValueError("noise multiplier must be positive")


def _rdp_at_order(q: float, sigma: float, alpha: float) -> float:
    """rho(alpha) of one step for validated arguments."""
    if q == 0:
        return 0.0
    if q == 1:
        return gaussian_rdp(sigma, alpha)
    if alpha.is_integer():
        log_a = _log_a_integer(q, sigma, int(alpha))
    else:
        log_a = _log_a_fractional(q, sigma, alpha)
    return log_a / (alpha - 1.0)


def subsampled_gaussian_rdp_curve(
    q: float, sigma: float, steps: int = 1, alphas: np.ndarray | None = None
) -> np.ndarray:
    """RDP curve of ``steps`` compositions of the sub-sampled Gaussian."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    _check_mechanism(q, sigma)
    alphas = DEFAULT_ALPHAS if alphas is None else np.asarray(alphas, dtype=np.float64)
    if np.any(alphas <= 1):
        raise ValueError("all Renyi orders must exceed 1")
    if steps == 0 or alphas.size == 0:
        return np.zeros(alphas.shape)
    if 0 < q < 1:
        # One growth of the log(i!) table for the grid, not one per order.
        _log_factorials(int(alphas.max()))
    return steps * np.array([_rdp_at_order(q, sigma, float(a)) for a in alphas])

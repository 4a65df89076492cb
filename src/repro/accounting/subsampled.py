"""RDP of the Poisson-sub-sampled Gaussian mechanism.

Two bounds are provided:

- :func:`subsampled_gaussian_rdp` -- the numerically tight bound of
  Mironov, Talwar & Zhang, "Renyi differential privacy of the sampled
  Gaussian mechanism" (2019), the computation Opacus uses.  For integer
  orders it evaluates a finite binomial sum; for fractional orders the
  convergent two-sided series with erfc terms.  All computation happens in
  log space for stability, on arrays of terms in fixed-size blocks (the
  term-by-term form is the test oracle, ``tests/accounting/oracle_subsampled.py``;
  costs in docs/privacy_accounting.md, "Cost of the accountant").
- :func:`subsampled_rdp_closed_form` -- the closed-form upper bound of
  Wang, Balle & Kasiviswanathan (2019), quoted as Lemma 4 in the paper.
  Looser but cheap; used for cross-checking.

Both take the sampling rate q (probability a record/user participates in a
step) and the noise multiplier sigma.

SciPy is imported by :func:`load_scipy` on the first sub-sampled
evaluation, so a process whose releases are all plain Gaussians (Lemma 3)
never pays its ~0.3 s and ~26 MB; methods whose releases are sub-sampled
call it when they are built, so no round carries the import.
"""

from __future__ import annotations

import math

import numpy as np

from repro.accounting.rdp import DEFAULT_ALPHAS, gaussian_rdp

#: ``scipy.special`` once :func:`load_scipy` has bound it.
special = None


class ScipyUnavailable(ImportError):
    """A sub-sampled release was asked for on a host without SciPy."""


def load_scipy(need: str = "a sampling rate q < 1") -> None:
    """Bind ``scipy.special`` for the sub-sampled kernels (idempotent).

    Raises:
        ScipyUnavailable: SciPy is not installed; the message names
            ``need``, the thing that asked for it.
    """
    global special
    if special is None:
        try:
            from scipy import special as module
        except ImportError as exc:
            raise ScipyUnavailable(
                f"{need} needs SciPy (sub-sampled Gaussian RDP, Lemma 4), "
                "which is not installed"
            ) from exc
        special = module

#: Terms of the integer-order binomial sum evaluated per array pass.  The
#: default grid reaches order 131072, so blocking the ``i`` axis keeps the
#: temporaries at ~64 KiB each however large the order is.
_BLOCK = 8192
#: Terms of the fractional-order series per pass.  The series stops after
#: under ten terms at q = 0.01 and after thousands at q = 0.5 (there only
#: the generalised binomials decay, polynomially); a short block wastes
#: little in the first case and costs little in the second.
_SERIES_BLOCK = 256

#: ``_LOG_FACTORIAL[i] = log(i!)``.  Independent of (q, sigma), so every
#: order of a curve and every step of a calibration bisection shares it.
#: Only ever replaced by a longer array with the same prefix; entry ``i`` is
#: ``gammaln(i + 1)`` however the table got there, which keeps results
#: independent of what was evaluated earlier in the process.
_LOG_FACTORIAL = np.zeros(1)


def _log_factorials(n: int) -> np.ndarray:
    """The ``log(i!)`` table with at least ``n + 1`` entries, grown on demand."""
    global _LOG_FACTORIAL
    table = _LOG_FACTORIAL
    if len(table) <= n:
        load_scipy()
        tail = np.arange(len(table) + 1, n + 2, dtype=np.float64)
        special.gammaln(tail, out=tail)
        table = _LOG_FACTORIAL = np.concatenate([table, tail])
    return table


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


def _log_erfc(x: np.ndarray) -> np.ndarray:
    """log(erfc(x)), stable for large positive x."""
    # erfc(x) = 2 * ndtr(-sqrt(2) x); log_ndtr is stable in both tails.
    return math.log(2.0) + special.log_ndtr(-x * 2.0**0.5)


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
        log_fact_rev = log_fact[alpha - hi + 1 : alpha - lo + 1][::-1]  # log (alpha-i)!
        log_coef = (
            log_fact[alpha] - log_fact[lo:hi] - log_fact_rev
            + i * log_q + (alpha - i) * log_1mq
        )
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
    lo = 0
    while True:
        i = np.arange(lo, lo + _SERIES_BLOCK, dtype=np.float64)
        j = alpha - i
        coef = special.binom(alpha, i)
        with np.errstate(divide="ignore"):
            log_coef = np.log(np.abs(coef))

        log_t0 = log_coef + i * log_q + j * log_1mq
        log_t1 = log_coef + j * log_q + i * log_1mq

        log_e0 = math.log(0.5) + _log_erfc((i - z0) / (math.sqrt(2) * sigma))
        log_e1 = math.log(0.5) + _log_erfc((z0 - j) / (math.sqrt(2) * sigma))

        log_s0 = log_t0 + (i * i - i) / (2.0 * sigma**2) + log_e0
        log_s1 = log_t1 + (j * j - j) / (2.0 * sigma**2) + log_e1

        # The series ends with the first term where both sides are
        # negligible and the binomials have started to alternate.
        negligible = (np.maximum(log_s0, log_s1) < -30) & (i + 1 > alpha)
        converged = bool(negligible.any())
        stop = int(np.argmax(negligible)) + 1 if converged else len(i)
        signs = np.where(coef[:stop] > 0, 1.0, -1.0)
        side0.add(log_s0[:stop], signs)
        side1.add(log_s1[:stop], signs)
        if converged:
            break
        lo += _SERIES_BLOCK

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
    load_scipy()
    if alpha.is_integer():
        log_a = _log_a_integer(q, sigma, int(alpha))
    else:
        log_a = _log_a_fractional(q, sigma, alpha)
    return log_a / (alpha - 1.0)


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


def subsampled_rdp_closed_form(q: float, sigma: float, alpha: int) -> float:
    """Closed-form upper bound of Lemma 4 (Wang et al. 2019), integer alpha.

    rho'(alpha) <= 1/(alpha-1) * log(1 + 2 q^2 C(alpha,2)
        min{2(e^{1/sigma^2} - 1), e^{1/sigma^2}}
        + sum_{j=3}^alpha 2 q^j C(alpha,j) e^{j(j-1)/(2 sigma^2)})
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
    load_scipy()
    e_term = math.exp(1.0 / sigma**2)
    total = 1.0 + 2.0 * q**2 * special.binom(alpha, 2) * min(2.0 * (e_term - 1.0), e_term)
    for j in range(3, alpha + 1):
        total += 2.0 * q**j * special.binom(alpha, j) * math.exp(j * (j - 1) / (2.0 * sigma**2))
    return math.log(total) / (alpha - 1.0)

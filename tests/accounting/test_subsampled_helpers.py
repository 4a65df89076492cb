"""The sub-sampled accountant's special functions against SciPy.

``accounting/subsampled.py`` computes ``log(i!)``, ``log erfc`` and the
signed generalised binomials with NumPy and :mod:`math`; SciPy is only the
reference here, as it is for ``oracle_subsampled.py``.
"""

import math
from decimal import Context

import numpy as np
import pytest
from scipy import special

from repro.accounting import subsampled
from repro.accounting.rdp import DEFAULT_ALPHAS

FRACTIONAL_ORDERS = [float(a) for a in DEFAULT_ALPHAS if not a.is_integer()]


def _log_factorial_table():
    """Entries 0 .. 131073 of the table: the default grid's orders and one more."""
    return subsampled._log_factorials(131073)[:131074]


class TestLogFactorial:
    def test_exact_for_small_i(self):
        """Correctly rounded below 13, as gammaln is."""
        context = Context(prec=40)
        for i, got in enumerate(_log_factorial_table()[:13]):
            assert got == float(context.create_decimal(math.factorial(i)).ln(context))

    def test_within_one_ulp_of_gammaln_everywhere(self):
        """One ulp is 1.1e-16 to 2.2e-16 relative; the worst entry is 2.16e-16."""
        want = special.gammaln(np.arange(131074.0) + 1.0)
        got = _log_factorial_table()
        assert np.all(np.abs(got - want) <= np.spacing(want))
        assert np.max(np.abs(got - want)[2:] / want[2:]) <= 2.2e-16

    def test_each_entry_a_function_of_its_index(self):
        i = np.array([0.0, 12.0, 13.0, 999.0, 1000.0, 131072.0])
        assert np.array_equal(subsampled._log_factorial_entries(i), _log_factorial_table()[i.astype(int)])


class TestLogErfc:
    def test_matches_log_ndtr_from_minus_30_to_1e3(self):
        x = np.concatenate([
            np.linspace(-30.0, 30.0, 6001),
            np.geomspace(1.0, 1e3, 2001),
            np.nextafter(subsampled._ERFC_ASYMPTOTIC_FROM, [-np.inf, np.inf]),
        ])
        want = math.log(2.0) + special.log_ndtr(-x * 2.0**0.5)
        np.testing.assert_allclose(subsampled._log_erfc(x), want, rtol=1e-14, atol=1e-15)

    def test_finite_far_past_underflow(self):
        x = np.array([26.0, 28.0, 100.0, 1e3])
        assert math.erfc(28.0) == 0.0
        got = subsampled._log_erfc(x)
        assert np.all(np.isfinite(got)) and np.all(np.diff(got) < 0)


class TestGeneralisedBinomials:
    @pytest.mark.parametrize("alpha", FRACTIONAL_ORDERS)
    def test_sign_and_magnitude_to_i_5000(self, alpha):
        """Magnitude to a few ulps of log Gamma(i + 1): SciPy's own error,
        which reaches 1e-11 at i ~ 5000 (against 50 digits, these are within
        2e-13 there)."""
        i, log_abs, sign = next(subsampled._generalised_binomials(alpha, 5001))
        want = special.binom(alpha, i)
        assert np.array_equal(sign, np.sign(want))
        assert np.all(sign[i > alpha + 1] == (-1.0) ** (i[i > alpha + 1] - math.floor(alpha) - 1))
        slack = 1e-15 * (1.0 + special.gammaln(i + 1.0))
        assert np.all(np.abs(log_abs - np.log(np.abs(want))) <= slack)

    @pytest.mark.parametrize("alpha", [3.5, 41.5])
    def test_blocks_carry_the_running_sum_exactly(self, alpha):
        """Sums and signs do not depend on where the blocks split the series
        (at 41.5 the signs start to alternate in the second block; odd
        floors put every later block's first negative sign at offset 1)."""
        blocks = subsampled._generalised_binomials(alpha, 16)
        carried = [next(blocks) for _ in range(6)]
        whole = next(subsampled._generalised_binomials(alpha, sum(len(b[0]) for b in carried)))
        for got, want in zip(map(np.concatenate, zip(*carried)), whole):
            assert np.array_equal(got, want)

"""The array kernel of ``accounting/subsampled.py`` against its scalar oracle.

``oracle_subsampled.py`` is the term-by-term evaluation the module used to
ship; the kernel evaluates the same terms as arrays and sums them in
another order, so the two agree to rounding, not to the bit.  Tolerances
were fixed before the kernel was written: 1e-10 relative (+1e-15
absolute, for the q -> 0 entries where rho ~ q^2) per curve entry, 1e-12
relative on an epsilon.  The one place they turned out tighter than the
oracle itself is a fractional order with a long series; that test says so.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_subsampled import oracle_rdp_curve

import repro
from repro.accounting import (
    PrivacyAccountant,
    calibrate_noise_multiplier,
    calibrate_sample_rate,
)
from repro.accounting import subsampled
from repro.accounting.conversion import rdp_curve_to_dp
from repro.accounting.rdp import DEFAULT_ALPHAS
from repro.accounting.subsampled import (
    subsampled_gaussian_rdp,
    subsampled_gaussian_rdp_curve,
)

integer_orders = st.integers(2, 512).map(float)
fractional_orders = st.floats(1.01, 512.0).filter(lambda a: not a.is_integer())


class TestDifferential:
    @given(
        q=st.floats(1e-6, 1.0, exclude_max=True),
        sigma=st.floats(0.3, 50.0),
        alphas=st.lists(integer_orders, min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_integer_orders_match_the_scalar_oracle(self, q, sigma, alphas):
        alphas = np.array(alphas)
        np.testing.assert_allclose(
            subsampled_gaussian_rdp_curve(q, sigma, alphas=alphas),
            oracle_rdp_curve(q, sigma, alphas),
            rtol=1e-10, atol=1e-15,
        )

    @given(
        q=st.floats(1e-6, 1.0, exclude_max=True),
        sigma=st.floats(0.3, 50.0),
        alphas=st.lists(fractional_orders, min_size=1, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_fractional_orders_match_the_scalar_oracle(self, q, sigma, alphas):
        """Same relative tolerance, but the absolute slack is 1e-13 on log A.

        The two-sided series adds two O(1) halves, thousands of terms each
        at q ~ 0.5, so log A carries rounding of that size whatever its own
        magnitude, and the oracle's term-by-term sum carries more of it than
        the kernel's: at (q, sigma, alpha) = (0.5, 30, 1.25) the two differ
        by 5e-15 on log A = 4e-5, and against a 60-digit evaluation of the
        same terms at (0.5, 5, 1.25) the oracle is off by 6e-13 relative,
        the kernel by 9e-14.
        """
        alphas = np.array(alphas)
        got = subsampled_gaussian_rdp_curve(q, sigma, alphas=alphas)
        want = oracle_rdp_curve(q, sigma, alphas)
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want) + 1e-13 / (alphas - 1.0))

    @pytest.mark.parametrize("q", [0.5, 0.01])
    def test_default_grid_epsilons_match_the_oracle(self, q):
        """Orders to 131072: every integer order past 8192 spans several blocks."""
        curve = subsampled_gaussian_rdp_curve(q, 5.0)
        oracle = oracle_rdp_curve(q, 5.0, DEFAULT_ALPHAS)
        np.testing.assert_allclose(curve, oracle, rtol=1e-10, atol=1e-15)
        for steps in (1, 16, 100_000):
            eps, _ = rdp_curve_to_dp(steps * curve, 1e-5)
            want, _ = rdp_curve_to_dp(steps * oracle, 1e-5)
            assert eps == pytest.approx(want, rel=1e-12)

    def test_series_longer_than_one_block(self):
        alphas = np.array([300.5, 511.75])
        assert alphas.min() > subsampled._SERIES_BLOCK
        np.testing.assert_allclose(
            subsampled_gaussian_rdp_curve(0.2, 3.0, alphas=alphas),
            oracle_rdp_curve(0.2, 3.0, alphas),
            rtol=1e-10,
        )

    def test_small_q_keeps_relative_precision(self):
        """rho ~ q^2 ~ 1e-13 here: no absolute slack, the oracle's digits.

        A log-sum-exp that forms 1 + O(q) before taking the log is off by
        ~1e-16 absolute, i.e. 1e-4 relative on these entries.
        """
        alphas = np.array([2.0, 2.5, 16.0, 64.0])
        np.testing.assert_allclose(
            subsampled_gaussian_rdp_curve(1e-6, 5.0, alphas=alphas),
            oracle_rdp_curve(1e-6, 5.0, alphas),
            rtol=1e-7, atol=0.0,
        )


class TestGoldenValues:
    """What the benchmark gates as ``epsilon_final``, and the calibrations."""

    def test_sixteen_subsampled_releases(self):
        acct = PrivacyAccountant()
        for _ in range(16):
            acct.step_release(5.0, sample_rate=0.5)
        assert acct.get_epsilon(1e-5) == pytest.approx(1.7983123421196, rel=1e-12)

    def test_sixteen_full_participation_releases(self):
        acct = PrivacyAccountant()
        for _ in range(16):
            acct.step_release(5.0)
        assert acct.get_epsilon(1e-5) == pytest.approx(3.6803518728252285, rel=1e-12)

    def test_calibrations_unchanged(self):
        """Recorded with the scalar evaluator, on ``test_calibration.py``'s inputs."""
        assert calibrate_noise_multiplier(2.0, 1e-5, steps=100) == 21.504013858019093
        assert calibrate_noise_multiplier(1.0, 1e-5, steps=50) == 28.623719952897673
        assert (
            calibrate_noise_multiplier(1.0, 1e-5, steps=50, sample_rate=0.1)
            == 3.1868155937646776
        )
        for target, q in (
            (0.5, 0.06213472692871093),
            (1.0, 0.11810390924072264),
            (0.3, 0.03869725036621094),
        ):
            assert calibrate_sample_rate(target, 1e-5, steps=100, noise_multiplier=5.0) == q


class TestZeroSteps:
    def test_returns_zeros_without_evaluating(self, monkeypatch):
        def boom(*args):
            raise AssertionError("curve evaluated for steps=0")

        monkeypatch.setattr(subsampled, "_rdp_at_order", boom)
        curve = subsampled_gaussian_rdp_curve(0.5, 5.0, steps=0)
        assert curve.shape == DEFAULT_ALPHAS.shape
        assert not curve.any()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(q=-0.1, sigma=1.0),
            dict(q=1.5, sigma=1.0),
            dict(q=0.5, sigma=0.0),
            dict(q=0.5, sigma=1.0, alphas=[2.0, 1.0]),
            dict(q=0.5, sigma=1.0, steps=-1),
        ],
    )
    @pytest.mark.parametrize("steps", [0, 1])
    def test_arguments_validated_whatever_the_step_count(self, kwargs, steps):
        with pytest.raises(ValueError):
            subsampled_gaussian_rdp_curve(**{"steps": steps, **kwargs})

    def test_bad_order_rejected_before_any_evaluation(self, monkeypatch):
        monkeypatch.setattr(subsampled, "_rdp_at_order", lambda *a: pytest.fail("evaluated"))
        with pytest.raises(ValueError, match="orders"):
            subsampled_gaussian_rdp_curve(0.5, 5.0, alphas=[4096.0, 0.5])


SMALL_GRID = [1.5, 2.0, 3.0, 17.0, 300.0]

_HISTORY_SCRIPT = """
import sys
from repro.accounting.subsampled import (
    subsampled_gaussian_rdp, subsampled_gaussian_rdp_curve)
small = {small!r}
{warm_up}
default = subsampled_gaussian_rdp_curve(0.3, 2.0)
small = subsampled_gaussian_rdp_curve(0.3, 2.0, alphas=small)
sys.stdout.write(small.tobytes().hex() + " " + default.tobytes().hex())
"""


class TestHistoryIndependence:
    """log(i!) comes from a table that grows as orders are asked for; what a
    call returns must not depend on how the table got to its size."""

    @pytest.mark.parametrize(
        "warm_up",
        [
            "",  # cold: the default grid grows the table in one go
            "for a in (2.0, 300.0, 5000.0, 70000.0): subsampled_gaussian_rdp(0.9, 1.0, a)",
        ],
        ids=["grown-in-one-go", "grown-in-several"],
    )
    def test_bytes_equal_across_evaluation_orders(self, warm_up):
        small = subsampled_gaussian_rdp_curve(0.3, 2.0, alphas=SMALL_GRID)
        default = subsampled_gaussian_rdp_curve(0.3, 2.0)

        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", _HISTORY_SCRIPT.format(small=SMALL_GRID, warm_up=warm_up)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        other_small, other_default = out.split()
        assert small.tobytes().hex() == other_small
        assert default.tobytes().hex() == other_default

    def test_single_order_equals_its_curve_entry(self):
        curve = subsampled_gaussian_rdp_curve(0.3, 2.0, alphas=SMALL_GRID)
        for alpha, rho in zip(SMALL_GRID, curve):
            assert subsampled_gaussian_rdp(0.3, 2.0, alpha) == rho

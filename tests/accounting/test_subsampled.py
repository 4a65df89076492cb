"""Tests for sub-sampled Gaussian RDP (Lemma 4 / Mironov et al. 2019)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accounting_reference import subsampled_gaussian_rdp, subsampled_rdp_closed_form
from repro.accounting.rdp import DEFAULT_ALPHAS, gaussian_rdp
from repro.accounting.subsampled import subsampled_gaussian_rdp_curve


class TestTightBound:
    def test_q_one_equals_plain_gaussian(self):
        for alpha in (2.0, 4.0, 16.0, 3.5):
            assert subsampled_gaussian_rdp(1.0, 2.0, alpha) == pytest.approx(
                gaussian_rdp(2.0, alpha)
            )

    def test_q_zero_is_free(self):
        assert subsampled_gaussian_rdp(0.0, 2.0, 8.0) == 0.0

    @given(
        q=st.floats(0.001, 0.5),
        sigma=st.floats(0.5, 20.0),
        alpha=st.integers(2, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_subsampling_never_hurts(self, q, sigma, alpha):
        sub = subsampled_gaussian_rdp(q, sigma, float(alpha))
        full = gaussian_rdp(sigma, float(alpha))
        assert 0 <= sub <= full + 1e-12

    @given(q=st.floats(0.01, 0.3), sigma=st.floats(1.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_q(self, q, sigma):
        lo = subsampled_gaussian_rdp(q / 2, sigma, 8.0)
        hi = subsampled_gaussian_rdp(q, sigma, 8.0)
        assert lo <= hi + 1e-15

    def test_fractional_alpha_interpolates(self):
        # rho at fractional orders should lie between neighbouring integers
        # (the RDP curve is increasing in alpha).
        q, sigma = 0.05, 4.0
        r2 = subsampled_gaussian_rdp(q, sigma, 2.0)
        r25 = subsampled_gaussian_rdp(q, sigma, 2.5)
        r3 = subsampled_gaussian_rdp(q, sigma, 3.0)
        assert r2 <= r25 <= r3

    def test_small_q_quadratic_scaling(self):
        # For small q, rho ~ q^2; halving q should cut rho by ~4x.
        sigma, alpha = 5.0, 8.0
        r1 = subsampled_gaussian_rdp(0.02, sigma, alpha)
        r2 = subsampled_gaussian_rdp(0.01, sigma, alpha)
        assert r1 / r2 == pytest.approx(4.0, rel=0.15)

    def test_known_value_regression(self):
        # Reference value cross-checked against the closed-form bound and
        # the quadratic approximation; pinned to catch silent regressions.
        rho = subsampled_gaussian_rdp(0.01, 5.0, 16.0)
        assert rho == pytest.approx(3.28371e-05, rel=1e-3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            subsampled_gaussian_rdp(-0.1, 1.0, 2.0)
        with pytest.raises(ValueError):
            subsampled_gaussian_rdp(0.5, 0.0, 2.0)
        with pytest.raises(ValueError):
            subsampled_gaussian_rdp(0.5, 1.0, 1.0)

    def test_curve_scales_with_steps(self):
        one = subsampled_gaussian_rdp_curve(0.1, 2.0, steps=1)
        ten = subsampled_gaussian_rdp_curve(0.1, 2.0, steps=10)
        np.testing.assert_allclose(ten, 10 * one)


class TestClosedFormBound:
    @given(
        q=st.floats(0.001, 0.2),
        sigma=st.floats(1.0, 10.0),
        alpha=st.integers(2, 32),
    )
    @settings(max_examples=60, deadline=None)
    def test_upper_bounds_tight_computation(self, q, sigma, alpha):
        tight = subsampled_gaussian_rdp(q, sigma, float(alpha))
        loose = subsampled_rdp_closed_form(q, sigma, alpha)
        assert tight <= loose + 1e-12

    def test_rejects_fractional_alpha(self):
        with pytest.raises(ValueError):
            subsampled_rdp_closed_form(0.1, 2.0, 2.5)  # type: ignore[arg-type]

    def test_q_zero(self):
        assert subsampled_rdp_closed_form(0.0, 2.0, 8) == 0.0

    @pytest.mark.parametrize("q, sigma", [(0.01, 5.0), (0.5, 5.0), (0.1, 1.0)])
    def test_finite_on_every_integer_order_of_the_grid(self, q, sigma):
        """Its terms overflow a double from alpha ~ 200 at sigma = 5."""
        for alpha in DEFAULT_ALPHAS[DEFAULT_ALPHAS == np.floor(DEFAULT_ALPHAS)]:
            loose = subsampled_rdp_closed_form(q, sigma, int(alpha))
            assert math.isfinite(loose)
            assert loose >= subsampled_gaussian_rdp(q, sigma, alpha)

    @pytest.mark.parametrize("q", [0.001, 0.05, 0.2, 0.9])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0, 10.0])
    def test_matches_the_sum_in_exact_binomials(self, q, sigma):
        for alpha in (2, 3, 5, 17, 64, 150):
            e_term = math.exp(1.0 / sigma**2)
            terms = [2 * q**2 * math.comb(alpha, 2) * min(2 * (e_term - 1), e_term)]
            try:
                terms += [2 * q**j * math.comb(alpha, j) * math.exp(j * (j - 1) / (2 * sigma**2))
                          for j in range(3, alpha + 1)]
            except OverflowError:
                continue
            want = math.log1p(math.fsum(terms)) / (alpha - 1)
            assert subsampled_rdp_closed_form(q, sigma, alpha) == pytest.approx(want, rel=1e-12)


class TestPaperScale:
    def test_figure2_base_parameters_are_tractable(self):
        """The Fig. 2 setting: sigma=5, q=0.01, 1e5 steps -> finite RDP."""
        curve = subsampled_gaussian_rdp_curve(0.01, 5.0, steps=100_000)
        assert np.all(np.isfinite(curve))
        assert np.all(curve >= 0)
        # Composition over 1e5 steps of a q=0.01 mechanism should be modest
        # at small orders (this is what makes DP-SGD usable at all).
        assert curve[3] < 50  # alpha = 2.0 entry

"""Tests for Gaussian-mechanism RDP (Lemma 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accounting.rdp import (
    DEFAULT_ALPHAS,
    gaussian_rdp,
    gaussian_rdp_curve,
)


class TestGaussianRdp:
    def test_lemma3_formula(self):
        # (alpha, alpha / (2 sigma^2))-RDP
        assert gaussian_rdp(sigma=5.0, alpha=2.0) == pytest.approx(2.0 / 50.0)
        assert gaussian_rdp(sigma=1.0, alpha=10.0) == pytest.approx(5.0)

    @given(
        sigma=st.floats(0.2, 50.0),
        alpha=st.floats(1.01, 1000.0),
    )
    @settings(max_examples=100)
    def test_monotone_in_alpha_and_sigma(self, sigma, alpha):
        rho = gaussian_rdp(sigma, alpha)
        assert rho > 0
        assert gaussian_rdp(sigma, alpha + 1) > rho
        assert gaussian_rdp(sigma * 2, alpha) < rho

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gaussian_rdp(0.0, 2.0)
        with pytest.raises(ValueError):
            gaussian_rdp(1.0, 1.0)

    def test_curve_matches_pointwise(self):
        curve = gaussian_rdp_curve(sigma=3.0, steps=7)
        for alpha, rho in zip(DEFAULT_ALPHAS, curve):
            assert rho == pytest.approx(7 * gaussian_rdp(3.0, float(alpha)))

    def test_zero_steps_is_zero_curve(self):
        assert np.all(gaussian_rdp_curve(sigma=3.0, steps=0) == 0.0)


class TestDefaultAlphas:
    def test_strictly_increasing_and_above_one(self):
        assert np.all(np.diff(DEFAULT_ALPHAS) > 0)
        assert DEFAULT_ALPHAS[0] > 1

    def test_extends_far_enough_for_group_conversion(self):
        # Lemma 6 with k = 64 divides orders by 64; we still need orders > 1
        # afterwards with some headroom.
        assert DEFAULT_ALPHAS[-1] >= 64 * 512

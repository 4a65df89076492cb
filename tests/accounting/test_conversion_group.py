"""Tests for RDP->DP conversion (Lemma 2) and group privacy (Lemmas 5, 6)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accounting.conversion import rdp_curve_to_dp, rdp_to_dp
from repro.accounting.group import (
    group_dp_from_dp,
    group_epsilon_via_normal_dp,
    group_epsilon_via_rdp,
    group_rdp_curve,
    largest_power_of_two_leq,
)
from repro.accounting.rdp import DEFAULT_ALPHAS, gaussian_rdp_curve
from repro.accounting.subsampled import subsampled_gaussian_rdp_curve


class TestRdpToDp:
    def test_lemma2_formula(self):
        alpha, rho, delta = 10.0, 0.5, 1e-5
        expected = (
            rho + math.log(9.0 / 10.0) - (math.log(delta) + math.log(10.0)) / 9.0
        )
        assert rdp_to_dp(alpha, rho, delta) == pytest.approx(expected)

    def test_nothing_released_is_zero_not_negative(self):
        """At rho = 0 the tight bound dips below zero; eps is floored."""
        assert rdp_to_dp(float(DEFAULT_ALPHAS[-1]), 0.0, 1e-5) == 0.0
        eps, _ = rdp_curve_to_dp(np.zeros_like(DEFAULT_ALPHAS), 1e-5)
        assert eps == 0.0

    @given(rho=st.floats(0.001, 10.0), delta=st.floats(1e-10, 0.1))
    @settings(max_examples=60)
    def test_grid_minimum_beats_any_single_order(self, rho, delta):
        curve = rho * DEFAULT_ALPHAS / DEFAULT_ALPHAS[0]
        eps, best_alpha = rdp_curve_to_dp(curve, delta)
        idx = int(np.argmin(np.abs(DEFAULT_ALPHAS - best_alpha)))
        assert eps <= rdp_to_dp(float(DEFAULT_ALPHAS[idx]), float(curve[idx]), delta) + 1e-12

    def test_epsilon_decreases_with_more_noise(self):
        lo = rdp_curve_to_dp(gaussian_rdp_curve(10.0, steps=100), 1e-5)[0]
        hi = rdp_curve_to_dp(gaussian_rdp_curve(2.0, steps=100), 1e-5)[0]
        assert lo < hi

    def test_epsilon_increases_with_rounds(self):
        e10 = rdp_curve_to_dp(gaussian_rdp_curve(5.0, steps=10), 1e-5)[0]
        e100 = rdp_curve_to_dp(gaussian_rdp_curve(5.0, steps=100), 1e-5)[0]
        assert e10 < e100

    def test_skips_nonfinite_entries(self):
        curve = gaussian_rdp_curve(5.0, steps=10)
        curve[0] = np.inf
        eps, _ = rdp_curve_to_dp(curve, 1e-5)
        assert math.isfinite(eps)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rdp_to_dp(1.0, 0.5, 1e-5)
        with pytest.raises(ValueError):
            rdp_to_dp(2.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            rdp_to_dp(2.0, -0.5, 1e-5)
        with pytest.raises(ValueError):
            rdp_curve_to_dp(np.array([1.0, 2.0]), 1e-5)  # grid mismatch


class TestLargestPowerOfTwo:
    @pytest.mark.parametrize(
        "k,expected", [(1, 1), (2, 2), (3, 2), (4, 4), (7, 4), (8, 8), (100, 64)]
    )
    def test_values(self, k, expected):
        assert largest_power_of_two_leq(k) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            largest_power_of_two_leq(0)


class TestGroupRdp:
    def test_group_size_one_is_identity(self):
        curve = gaussian_rdp_curve(5.0, steps=10)
        g_alphas, g_rhos = group_rdp_curve(curve, 1)
        np.testing.assert_allclose(g_alphas, DEFAULT_ALPHAS)
        np.testing.assert_allclose(g_rhos, curve)

    def test_doubling_maps_orders_and_rhos(self):
        curve = gaussian_rdp_curve(5.0, steps=1)
        g_alphas, g_rhos = group_rdp_curve(curve, 4)  # c = 2
        # alpha = 16 entry should map to order 4 with rho * 9
        src = int(np.argmin(np.abs(DEFAULT_ALPHAS - 16.0)))
        dst = int(np.argmin(np.abs(g_alphas - 4.0)))
        assert g_alphas[dst] == pytest.approx(4.0)
        assert g_rhos[dst] == pytest.approx(9.0 * curve[src])

    def test_rejects_non_power_of_two(self):
        curve = gaussian_rdp_curve(5.0, steps=1)
        with pytest.raises(ValueError):
            group_rdp_curve(curve, 3)

    def test_epsilon_grows_rapidly_with_group_size(self):
        """The Figure 2 shape: GDP epsilon explodes as k grows."""
        curve = subsampled_gaussian_rdp_curve(0.01, 5.0, steps=10_000)
        eps = [group_epsilon_via_rdp(curve, k, 1e-5) for k in (1, 2, 4, 8, 16)]
        assert all(b > a for a, b in zip(eps, eps[1:]))
        # Super-linear blow-up: eps(16)/eps(1) far exceeds 16.
        assert eps[4] / eps[0] > 50

    def test_non_power_of_two_rounds_down(self):
        curve = subsampled_gaussian_rdp_curve(0.01, 5.0, steps=1000)
        assert group_epsilon_via_rdp(curve, 5, 1e-5) == pytest.approx(
            group_epsilon_via_rdp(curve, 4, 1e-5)
        )


class TestGroupNormalDp:
    def test_lemma5_formula(self):
        eps, delta = group_dp_from_dp(0.5, 1e-6, 3)
        assert eps == pytest.approx(1.5)
        assert delta == pytest.approx(3 * math.exp(2 * 0.5) * 1e-6)

    def test_group_size_one_matches_plain_conversion(self):
        curve = gaussian_rdp_curve(5.0, steps=100)
        direct, _ = rdp_curve_to_dp(curve, 1e-5)
        assert group_epsilon_via_normal_dp(curve, 1, 1e-5) == pytest.approx(direct)

    def test_monotone_in_group_size(self):
        curve = subsampled_gaussian_rdp_curve(0.01, 5.0, steps=10_000)
        eps = [group_epsilon_via_normal_dp(curve, k, 1e-5) for k in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(eps, eps[1:]))

    def test_reported_guarantee_is_valid(self):
        """The search must return a (k*eps_l2, delta_l5<=delta) pair."""
        curve = subsampled_gaussian_rdp_curve(0.01, 5.0, steps=1000)
        k, delta = 4, 1e-5
        eps = group_epsilon_via_normal_dp(curve, k, delta)
        # Recompute: some intermediate delta must reproduce (eps', delta')
        # with eps' <= eps and delta' <= delta.  We verify feasibility by
        # checking the returned eps is achievable from the definition:
        eps_l2 = eps / k
        # invert Lemma 2 at the optimal order is hard; instead check the
        # bound is at least as large as the plain (non-group) epsilon and
        # finite.
        plain, _ = rdp_curve_to_dp(curve, delta)
        assert math.isfinite(eps)
        assert eps > plain
        assert eps_l2 > 0

    def test_comparable_to_rdp_route_within_factor(self):
        """Paper: the two routes differ by roughly 3x at most for small k."""
        curve = subsampled_gaussian_rdp_curve(0.01, 5.0, steps=10_000)
        for k in (2, 4, 8):
            via_rdp = group_epsilon_via_rdp(curve, k, 1e-5)
            via_dp = group_epsilon_via_normal_dp(curve, k, 1e-5)
            ratio = max(via_rdp, via_dp) / min(via_rdp, via_dp)
            assert ratio < 6.0

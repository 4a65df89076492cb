"""Tests for the high-level PrivacyAccountant."""

import math

import numpy as np
import pytest

from repro.accounting import PrivacyAccountant
from repro.accounting.conversion import rdp_curve_to_dp
from repro.accounting.rdp import gaussian_rdp_curve
from repro.accounting.subsampled import subsampled_gaussian_rdp_curve


class TestStepAccumulation:
    def test_single_gaussian_event(self):
        acct = PrivacyAccountant()
        acct.step(noise_multiplier=5.0)
        np.testing.assert_allclose(acct.rdp_curve, gaussian_rdp_curve(5.0, 1))

    def test_steps_compose_linearly(self):
        a = PrivacyAccountant()
        for _ in range(10):
            a.step(noise_multiplier=5.0)
        b = PrivacyAccountant()
        b.step(noise_multiplier=5.0, steps=10)
        np.testing.assert_allclose(a.rdp_curve, b.rdp_curve)

    def test_subsampled_event(self):
        acct = PrivacyAccountant()
        acct.step(noise_multiplier=5.0, sample_rate=0.1, steps=3)
        np.testing.assert_allclose(
            acct.rdp_curve, subsampled_gaussian_rdp_curve(0.1, 5.0, 3)
        )

    def test_zero_steps_noop(self):
        acct = PrivacyAccountant()
        acct.step(noise_multiplier=5.0, steps=0)
        assert np.all(acct.rdp_curve == 0)
        assert acct.history == []

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            PrivacyAccountant().step(5.0, steps=-1)

    @pytest.mark.parametrize("q", [-0.5, 1.5, 2.0])
    def test_sample_rate_outside_unit_interval_rejected(self, q):
        """q > 1 used to be priced (and labelled) as the unsampled Gaussian."""
        acct = PrivacyAccountant()
        with pytest.raises(ValueError, match="sampling rate"):
            acct.step(5.0, sample_rate=q)
        for sensitivity in (0.0, 1.0):
            with pytest.raises(ValueError, match="sampling rate"):
                acct.step_release(5.0, sample_rate=q, sensitivity=sensitivity)
        assert acct.history == [] and acct.releases == []

    def test_empty_accountant_reports_zero_epsilon(self):
        assert PrivacyAccountant().get_epsilon(1e-5) == 0.0

    def test_reset(self):
        acct = PrivacyAccountant()
        acct.step(5.0, steps=4)
        acct.reset()
        assert np.all(acct.rdp_curve == 0)
        assert acct.history == []


class TestEpsilon:
    def test_matches_theorem1_shape(self):
        """Theorem 1/3: eps = min_alpha T*alpha/(2 sigma^2) + conversion."""
        sigma, rounds, delta = 5.0, 100, 1e-5
        acct = PrivacyAccountant()
        acct.step(noise_multiplier=sigma, steps=rounds)
        eps = acct.get_epsilon(delta)
        expected, _ = rdp_curve_to_dp(gaussian_rdp_curve(sigma, rounds), delta)
        assert eps == pytest.approx(expected)

    def test_epsilon_monotone_in_rounds(self):
        acct = PrivacyAccountant()
        eps_values = []
        for _ in range(5):
            acct.step(noise_multiplier=5.0, steps=20)
            eps_values.append(acct.get_epsilon(1e-5))
        assert all(b > a for a, b in zip(eps_values, eps_values[1:]))

    def test_subsampling_amplifies(self):
        full = PrivacyAccountant()
        full.step(5.0, sample_rate=1.0, steps=50)
        sub = PrivacyAccountant()
        sub.step(5.0, sample_rate=0.1, steps=50)
        assert sub.get_epsilon(1e-5) < full.get_epsilon(1e-5)

    def test_alpha_reported(self):
        acct = PrivacyAccountant()
        acct.step(5.0, steps=10)
        eps, alpha = acct.get_epsilon_and_alpha(1e-5)
        assert alpha > 1
        assert math.isfinite(eps)

    def test_noiseless_event_gives_infinite_epsilon(self):
        acct = PrivacyAccountant()
        acct.step(noise_multiplier=0.0)
        assert acct.get_epsilon(1e-5) == math.inf
        # ...and stays infinite after further noisy steps (composition).
        acct.step(noise_multiplier=5.0)
        assert acct.get_epsilon(1e-5) == math.inf


class TestGroupEpsilon:
    def test_group_routes(self):
        acct = PrivacyAccountant()
        acct.step(5.0, sample_rate=0.01, steps=1000)
        eps_rdp = acct.get_group_epsilon(1e-5, group_size=8, route="rdp")
        eps_dp = acct.get_group_epsilon(1e-5, group_size=8, route="dp")
        plain = acct.get_epsilon(1e-5)
        assert eps_rdp > plain
        assert eps_dp > plain

    def test_unknown_route_rejected(self):
        acct = PrivacyAccountant()
        acct.step(5.0)
        with pytest.raises(ValueError):
            acct.get_group_epsilon(1e-5, 2, route="magic")


class TestMergeMax:
    def test_parallel_composition_takes_worst_silo(self):
        """Theorem 2: disjoint silos compose via order-wise max."""
        noisy = PrivacyAccountant()
        noisy.step(2.0, steps=10)  # worse privacy (less noise)
        quiet = PrivacyAccountant()
        quiet.step(8.0, steps=10)
        merged = noisy.merge_max(quiet)
        np.testing.assert_allclose(merged.rdp_curve, noisy.rdp_curve)
        assert len(merged.history) == 2

    def test_merge_rejects_mismatched_grids(self):
        a = PrivacyAccountant()
        b = PrivacyAccountant(alphas=np.array([2.0, 4.0]))
        with pytest.raises(ValueError):
            a.merge_max(b)

    def test_curve_cache_reused(self):
        acct = PrivacyAccountant()
        acct.step(5.0, sample_rate=0.123, steps=1)
        acct.step(5.0, sample_rate=0.123, steps=1)
        assert len(acct._curve_cache) == 1

    def test_merge_carries_both_release_logs(self):
        a = PrivacyAccountant()
        a.step_release(5.0, sensitivity=2.0)
        b = PrivacyAccountant()
        b.step_release(5.0, noise_scale=0.5)
        b.step_release(5.0, sensitivity=0.0)  # logged, consumes nothing
        merged = a.merge_max(b)
        assert merged.releases == [*a.releases, *b.releases]
        assert len(merged.state_dict()["releases"]) == 3


class TestStateRoundTrip:
    @staticmethod
    def _spent() -> PrivacyAccountant:
        acct = PrivacyAccountant(alphas=np.array([1.5, 2.0, 8.0, 64.0]))
        acct.step(5.0, steps=3)
        acct.step_release(5.0, sample_rate=0.25, sensitivity=1.5)
        return acct

    def test_from_state_is_bit_exact(self):
        acct = self._spent()
        clone = PrivacyAccountant.from_state(acct.state_dict())
        assert clone.rdp_curve.tobytes() == acct.rdp_curve.tobytes()
        assert clone.history == acct.history
        assert clone.releases == acct.releases
        assert clone.get_epsilon(1e-5) == acct.get_epsilon(1e-5)

    def test_load_state_restores_in_place_and_keeps_the_curve_memo(self):
        acct = self._spent()
        snapshot = acct.state_dict()
        memo = dict(acct._curve_cache)
        assert memo  # the sub-sampled curve was drawn
        acct.step_release(5.0, sample_rate=0.25, sensitivity=1.5)
        acct.load_state(snapshot)
        assert acct.state_dict() == snapshot
        assert acct._curve_cache.keys() == memo.keys()
        assert all(acct._curve_cache[k] is memo[k] for k in memo)

    def test_load_state_from_another_grid_drops_the_memo(self):
        """A memoised curve is only valid on the grid it was drawn on."""
        acct = PrivacyAccountant()
        acct.step(5.0)
        acct.load_state(self._spent().state_dict())
        assert not acct._curve_cache
        acct.step(5.0)
        np.testing.assert_array_equal(
            acct.rdp_curve, self._spent().rdp_curve + gaussian_rdp_curve(5.0, 1, acct.alphas)
        )

    def test_load_state_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            PrivacyAccountant().load_state({"schema": "nope"})

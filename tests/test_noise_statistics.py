"""Statistical verification of the DP noise calibration.

The privacy theorems hold only if the implementations add exactly the
noise they claim.  These tests measure the empirical noise standard
deviation of each method's aggregate (signal removed by differencing two
runs with identical data but different noise seeds... simpler: by running
with zero-gradient data) and compare with the analytic values:

- ULDP-NAIVE: per-silo std sigma*C*sqrt(|S|) => aggregate sum std sigma*C*|S|.
- ULDP-AVG/SGD: per-silo std sigma*C/sqrt(|S|) => aggregate sum std sigma*C.
- DP-SGD step: noise std sigma*C on the gradient sum (before averaging).

A chi-square style bound at ~5 sigma over thousands of coordinates keeps
the tests deterministic-in-practice while actually sensitive to, say, a
missing square root.
"""

import numpy as np
import pytest

from repro.core.methods import UldpAvg, UldpNaive, UldpSgd
from sensitivity_probes import make_fed
from repro.nn.model import build_tiny_mlp

# Zero-record layout trick: every silo has records of user 0 only, and we
# freeze training by using local_lr=0, so the aggregate is pure noise.
LAYOUT = [[0, 1], [0, 1], [0, 1]]


def noise_only_aggregate(method_cls, sigma, clip, seed, **kwargs):
    fed = make_fed(LAYOUT, 2, seed=0, n_features=4)
    rng = np.random.default_rng(seed)
    model = build_tiny_mlp(4, 32, 2, np.random.default_rng(42))  # 226 params
    if method_cls is UldpSgd:
        method = method_cls(clip=clip, noise_multiplier=sigma, global_lr=1.0, **kwargs)
    else:
        # local_lr ~ 0 (must be positive): deltas ~ 1e-12, negligible
        # against O(1) noise, so the aggregate is noise to 10+ digits.
        method = method_cls(
            clip=clip, noise_multiplier=sigma, global_lr=1.0, local_lr=1e-12,
            local_epochs=1, **kwargs
        )
    method.prepare(fed, model, rng)
    params = model.get_flat_params()
    new_params = method.round(0, params).params
    return new_params - params, fed


def empirical_std(samples: np.ndarray) -> float:
    return float(np.sqrt(np.mean(samples**2)))


class TestNoiseCalibration:
    @pytest.mark.parametrize("sigma,clip", [(1.0, 1.0), (5.0, 0.5)])
    def test_uldp_avg_aggregate_noise_is_sigma_c(self, sigma, clip):
        """Summed ULDP-AVG noise must have std sigma*C (Theorem 3)."""
        diffs = []
        for seed in range(4):
            diff, fed = noise_only_aggregate(UldpAvg, sigma, clip, seed)
            # Server divides the sum by |U||S| (global_lr=1): undo it.
            diffs.append(diff * (fed.n_users * fed.n_silos))
        samples = np.concatenate(diffs)
        # With local_lr=0 every delta is zero, so samples are pure noise.
        expected = sigma * clip
        assert empirical_std(samples) == pytest.approx(expected, rel=0.08)

    def test_uldp_sgd_aggregate_noise_is_sigma_c(self):
        sigma, clip = 2.0, 1.0
        diffs = []
        for seed in range(4):
            diff, fed = noise_only_aggregate(UldpSgd, sigma, clip, seed)
            diffs.append(diff * (fed.n_users * fed.n_silos))
        samples = np.concatenate(diffs)
        # SGD contributes real (clipped) gradients too; subtract the mean
        # across seeds to isolate noise?  The gradient term is identical
        # across seeds (same data, same params), so differencing two seeds
        # leaves noise * sqrt(2).
        a, _ = noise_only_aggregate(UldpSgd, sigma, clip, 100)
        b, fed = noise_only_aggregate(UldpSgd, sigma, clip, 200)
        pure = (a - b) * (fed.n_users * fed.n_silos) / np.sqrt(2)
        assert empirical_std(pure) == pytest.approx(sigma * clip, rel=0.12)

    def test_uldp_naive_aggregate_noise_is_sigma_c_s(self):
        """Summed ULDP-NAIVE noise must have std sigma*C*|S| (Theorem 1)."""
        sigma, clip = 1.0, 1.0
        diffs = []
        for seed in range(4):
            diff, fed = noise_only_aggregate(UldpNaive, sigma, clip, seed)
            diffs.append(diff * fed.n_silos)  # server divides by |S|
        samples = np.concatenate(diffs)
        expected = sigma * clip * 3  # |S| = 3
        assert empirical_std(samples) == pytest.approx(expected, rel=0.08)

    def test_naive_noise_exceeds_avg_noise_by_factor_s(self):
        """The Figure 3 intuition, measured: NAIVE pays |S|x more noise."""
        sigma, clip = 1.0, 1.0
        naive, fed = noise_only_aggregate(UldpNaive, sigma, clip, 7)
        avg, _ = noise_only_aggregate(UldpAvg, sigma, clip, 7)
        naive_std = empirical_std(naive * fed.n_silos)
        avg_std = empirical_std(avg * (fed.n_users * fed.n_silos))
        assert naive_std / avg_std == pytest.approx(fed.n_silos, rel=0.2)

    def test_dpsgd_step_noise(self):
        """DP-SGD noise std is sigma*C before the batch-size division."""
        from repro.nn.dpsgd import dpsgd_step
        from repro.nn.losses import SoftmaxCrossEntropyLoss

        sigma, clip = 3.0, 1.0
        rng_data = np.random.default_rng(0)
        x = rng_data.standard_normal((10, 4))
        y = rng_data.integers(0, 2, 10)
        model = build_tiny_mlp(4, 32, 2, np.random.default_rng(1))
        before = model.get_flat_params()
        # lr chosen so the update = (grad_sum + noise) / expected_batch;
        # with sample_rate->tiny the batch is empty w.h.p. -> pure noise.
        n = x.shape[0]
        sample_rate = 1e-9
        samples = []
        for seed in range(6):
            model.set_flat_params(before)
            dpsgd_step(
                model, SoftmaxCrossEntropyLoss(), x, y, lr=1.0, clip=clip,
                noise_multiplier=sigma, sample_rate=sample_rate,
                rng=np.random.default_rng(seed),
            )
            samples.append((model.get_flat_params() - before) * (sample_rate * n))
        std = empirical_std(np.concatenate(samples))
        assert std == pytest.approx(sigma * clip, rel=0.08)

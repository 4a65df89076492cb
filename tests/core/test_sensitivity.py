"""User-level sensitivity invariants (Theorems 1 and 3, Figure 3).

These tests verify the paper's central claim *empirically* using the
library's sensitivity probes (:mod:`repro.core.probes`): with noise
disabled, swapping ALL records of one user changes the cross-silo aggregate
by at most the claimed sensitivity (C for ULDP-AVG/SGD, C*|S| for
ULDP-NAIVE), no matter how many records the user owns.  The record-level
unit of Table 2 sits beside them: replacing ONE record moves a DP-SGD
step's clipped gradient sum by at most 2C.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.methods import UldpAvg, UldpNaive, UldpSgd
from repro.core.metrics import make_loss
from repro.core.probes import (
    HEAVY_USER_LAYOUT,
    N_USERS,
    make_fed,
    prenoise_aggregate,
    replace_user_records,
)
from repro.nn.dpsgd import per_sample_clipped_gradient_sum
from repro.nn.model import build_tiny_mlp


class TestUldpAvgSensitivity:
    @pytest.mark.parametrize("weighting", ["uniform", "proportional"])
    def test_heavy_user_swap_bounded_by_clip(self, weighting):
        clip = 0.5
        fed_a = make_fed(HEAVY_USER_LAYOUT, N_USERS, seed=0)
        fed_b = replace_user_records(fed_a, user=0, seed=99)
        # global_lr=1 and no averaging denominators: compare raw aggregates.
        agg_a = prenoise_aggregate(
            UldpAvg, fed_a, clip, weighting=weighting, global_lr=1.0, local_lr=0.3,
        )
        agg_b = prenoise_aggregate(
            UldpAvg, fed_b, clip, weighting=weighting, global_lr=1.0, local_lr=0.3,
        )
        n = fed_a.n_users * fed_a.n_silos  # server divides by |U||S|
        sensitivity = np.linalg.norm((agg_a - agg_b) * n)
        assert sensitivity <= clip + 1e-9

    @given(st.integers(0, 3))
    @settings(max_examples=8, deadline=None)
    def test_any_user_swap_bounded(self, user):
        clip = 1.0
        fed_a = make_fed(HEAVY_USER_LAYOUT, N_USERS, seed=3)
        fed_b = replace_user_records(fed_a, user=user, seed=100 + user)
        agg_a = prenoise_aggregate(UldpAvg, fed_a, clip, global_lr=1.0, local_lr=0.5)
        agg_b = prenoise_aggregate(UldpAvg, fed_b, clip, global_lr=1.0, local_lr=0.5)
        n = fed_a.n_users * fed_a.n_silos
        assert np.linalg.norm((agg_a - agg_b) * n) <= clip + 1e-9

    def test_unweighted_clipping_would_violate_bound(self):
        """Sanity: without the weight w=1/|S|, a cross-silo user would
        contribute up to C per *silo* -- confirming the weights are what
        delivers user-level sensitivity C."""
        clip = 0.5
        fed = make_fed(HEAVY_USER_LAYOUT, N_USERS, seed=5)
        # The user appears in all 3 silos, so unweighted worst case is 3C.
        assert fed.n_silos * clip > clip


class TestUldpSgdSensitivity:
    def test_heavy_user_swap_bounded_by_clip(self):
        clip = 0.8
        fed_a = make_fed(HEAVY_USER_LAYOUT, N_USERS, seed=7)
        fed_b = replace_user_records(fed_a, user=0, seed=123)
        agg_a = prenoise_aggregate(UldpSgd, fed_a, clip, global_lr=1.0)
        agg_b = prenoise_aggregate(UldpSgd, fed_b, clip, global_lr=1.0)
        n = fed_a.n_users * fed_a.n_silos
        assert np.linalg.norm((agg_a - agg_b) * n) <= clip + 1e-9


class TestUldpNaiveSensitivity:
    def test_heavy_user_swap_bounded_by_clip_times_silos(self):
        clip = 0.5
        fed_a = make_fed(HEAVY_USER_LAYOUT, N_USERS, seed=9)
        fed_b = replace_user_records(fed_a, user=0, seed=321)
        agg_a = prenoise_aggregate(
            UldpNaive, fed_a, clip, global_lr=1.0, local_lr=0.3, local_epochs=1,
        )
        agg_b = prenoise_aggregate(
            UldpNaive, fed_b, clip, global_lr=1.0, local_lr=0.3, local_epochs=1,
        )
        n_silos = fed_a.n_silos  # server divides by |S|
        sensitivity = np.linalg.norm((agg_a - agg_b) * n_silos)
        assert sensitivity <= clip * n_silos + 1e-9
        # ...and the naive bound is genuinely looser than C: the heavy user
        # can shift more than one silo's clipped delta.
        assert sensitivity > clip / 10


class TestRecordLevelSensitivity:
    def test_one_record_swap_bounded_by_twice_the_clip(self):
        """Table 2's record-level row (DP-SGD inside ULDP-GROUP): the old
        and the new record each contribute at most C to the clipped sum --
        which is why a user with k records needs the group conversion."""
        clip = 0.5
        rng = np.random.default_rng(0)
        model = build_tiny_mlp(6, 4, 2, rng)
        loss = make_loss("binary", model)
        x = rng.standard_normal((10, 6))
        y = rng.integers(0, 2, 10)
        base = per_sample_clipped_gradient_sum(model, loss, x, y, clip)
        x[3] = 50.0 * rng.standard_normal(6)  # an outlier, so the clip binds
        y[3] = 1 - y[3]
        swapped = per_sample_clipped_gradient_sum(model, loss, x, y, clip)
        shift = np.linalg.norm(base - swapped)
        assert clip / 10 < shift <= 2 * clip + 1e-9


class TestSubsampledSensitivity:
    def test_unsampled_users_contribute_nothing(self):
        """Algorithm 4: zeroed weights remove the user from the round."""
        clip = 1.0
        fed = make_fed(HEAVY_USER_LAYOUT, N_USERS, seed=11)
        rng = np.random.default_rng(0)
        model = build_tiny_mlp(4, 6, 2, np.random.default_rng(42))
        method = UldpAvg(clip=clip, noise_multiplier=0.0, global_lr=1.0,
                         local_lr=0.3, user_sample_rate=1e-12)
        method.prepare(fed, model, rng)
        params = model.get_flat_params()
        new_params = method.round(0, params)
        # With (almost surely) nobody sampled and zero noise, nothing moves.
        np.testing.assert_allclose(new_params, params)

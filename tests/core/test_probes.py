"""Tests for the empirical sensitivity probe utilities."""

import numpy as np
import pytest

from repro.core.methods import UldpAvg
from sensitivity_probes import (
    HEAVY_USER_LAYOUT,
    N_USERS,
    make_fed,
    prenoise_aggregate,
    replace_user_records,
)


class TestMakeFed:
    def test_layout_respected(self):
        fed = make_fed(HEAVY_USER_LAYOUT, N_USERS)
        assert fed.n_silos == 3
        assert fed.n_users == N_USERS
        # User 0 is heavy in every silo.
        hist = fed.histogram()
        assert np.all(hist[:, 0] >= 4)

    def test_deterministic(self):
        a = make_fed(HEAVY_USER_LAYOUT, N_USERS, seed=1)
        b = make_fed(HEAVY_USER_LAYOUT, N_USERS, seed=1)
        np.testing.assert_array_equal(a.silos[0].x, b.silos[0].x)

    def test_custom_layout(self):
        fed = make_fed([[0, 1], [1, 1]], 2)
        np.testing.assert_array_equal(fed.histogram(), [[1, 1], [0, 2]])


class TestReplaceUserRecords:
    def test_only_target_user_changed(self):
        fed = make_fed(HEAVY_USER_LAYOUT, N_USERS)
        swapped = replace_user_records(fed, user=0, seed=5)
        for orig, new in zip(fed.silos, swapped.silos):
            mask = orig.user_ids == 0
            # Target user's features changed...
            if mask.any():
                assert not np.allclose(orig.x[mask], new.x[mask])
            # ...everyone else untouched.
            np.testing.assert_array_equal(orig.x[~mask], new.x[~mask])
            np.testing.assert_array_equal(orig.y[~mask], new.y[~mask])

    def test_histogram_unchanged(self):
        fed = make_fed(HEAVY_USER_LAYOUT, N_USERS)
        swapped = replace_user_records(fed, user=2, seed=6)
        np.testing.assert_array_equal(fed.histogram(), swapped.histogram())

    def test_original_not_mutated(self):
        fed = make_fed(HEAVY_USER_LAYOUT, N_USERS)
        before = fed.silos[0].x.copy()
        replace_user_records(fed, user=0, seed=7)
        np.testing.assert_array_equal(fed.silos[0].x, before)


class TestPrenoiseAggregate:
    def test_zero_noise_and_shape(self):
        fed = make_fed(HEAVY_USER_LAYOUT, N_USERS)
        agg = prenoise_aggregate(UldpAvg, fed, clip=1.0, global_lr=1.0, local_lr=0.3)
        assert agg.ndim == 1
        assert np.linalg.norm(agg) > 0  # training moved the model

    def test_repeatable(self):
        fed = make_fed(HEAVY_USER_LAYOUT, N_USERS)
        a = prenoise_aggregate(UldpAvg, fed, clip=1.0, global_lr=1.0, local_lr=0.3)
        b = prenoise_aggregate(UldpAvg, fed, clip=1.0, global_lr=1.0, local_lr=0.3)
        np.testing.assert_allclose(a, b)

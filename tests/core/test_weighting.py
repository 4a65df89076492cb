"""Tests for the clipping-weight strategies (Section 4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.weighting import (
    RoundParticipation,
    participation_weights,
    proportional_weights,
    subsample_weights,
    uniform_weights,
    validate_weights,
)


class TestUniformWeights:
    def test_values_and_shape(self):
        w = uniform_weights(5, 10)
        assert w.shape == (5, 10)
        assert np.all(w == 0.2)

    def test_column_sums_equal_one(self):
        w = uniform_weights(4, 7)
        np.testing.assert_allclose(w.sum(axis=0), 1.0)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            uniform_weights(0, 5)


class TestProportionalWeights:
    def test_eq3_hand_example(self):
        hist = np.array([[3, 0], [1, 5]])
        w = proportional_weights(hist)
        np.testing.assert_allclose(w, [[0.75, 0.0], [0.25, 1.0]])

    @given(
        st.integers(2, 6), st.integers(2, 20),
    )
    @settings(max_examples=30)
    def test_column_sums(self, n_silos, n_users):
        rng = np.random.default_rng(n_silos * 100 + n_users)
        hist = rng.integers(0, 10, size=(n_silos, n_users))
        w = proportional_weights(hist)
        totals = hist.sum(axis=0)
        sums = w.sum(axis=0)
        np.testing.assert_allclose(sums[totals > 0], 1.0)
        np.testing.assert_allclose(sums[totals == 0], 0.0)

    def test_absent_user_gets_zero(self):
        hist = np.array([[0], [0]])
        assert np.all(proportional_weights(hist) == 0.0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            proportional_weights(np.array([[-1, 2]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            proportional_weights(np.array([1, 2, 3]))


class TestBudgetUtilisation:
    def test_eq3_spends_the_unit_budget_where_the_records_are(self):
        """Why Eq. (3) wins under skew (Fig. 8's mechanism): each user has a
        unit weight budget (Theorem 3).  Uniform weights put 1/|S| of it on
        every silo, including those holding none of the user's records;
        Eq. (3) puts all of it on record-bearing silos."""
        from repro.data.allocation import allocate_zipf

        n_silos, n_users = 20, 100
        users, silos = allocate_zipf(
            3000, n_users, n_silos, np.random.default_rng(20)
        )
        hist = np.zeros((n_silos, n_users), dtype=np.int64)
        np.add.at(hist, (silos, users), 1)
        active = hist > 0
        present = active.any(axis=0)

        def utilisation(weights):
            return (weights * active).sum(axis=0)[present]

        assert utilisation(proportional_weights(hist)).min() > 0.999
        assert utilisation(uniform_weights(n_silos, n_users)).mean() < 0.5


class TestValidateWeights:
    def test_accepts_valid(self):
        validate_weights(uniform_weights(3, 4))
        validate_weights(proportional_weights(np.array([[2, 1], [0, 1]])))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_weights(np.array([[-0.1], [1.1]]))

    def test_rejects_oversized_column(self):
        with pytest.raises(ValueError):
            validate_weights(np.array([[0.7], [0.7]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            validate_weights(np.ones(3))

    def test_rejects_nan_entries(self):
        # Regression: NaN compares False against every bound, so both the
        # sign check and the column-sum check silently passed NaN matrices.
        with pytest.raises(ValueError, match="finite"):
            validate_weights(np.full((2, 3), np.nan))

    def test_rejects_single_nan_among_valid(self):
        w = uniform_weights(2, 3)
        w[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            validate_weights(w)

    def test_rejects_infinite_entries(self):
        w = uniform_weights(2, 3)
        w[1, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            validate_weights(w)


class TestSubsampleWeights:
    def test_zeroes_unsampled_columns(self):
        w = uniform_weights(2, 4)
        sub = subsample_weights(w, np.array([1, 3]))
        np.testing.assert_allclose(sub[:, [1, 3]], 0.5)
        np.testing.assert_allclose(sub[:, [0, 2]], 0.0)

    def test_original_untouched(self):
        w = uniform_weights(2, 3)
        subsample_weights(w, np.array([0]))
        assert np.all(w == 0.5)

    def test_empty_sample_zeroes_all(self):
        sub = subsample_weights(uniform_weights(2, 3), np.array([], dtype=int))
        assert np.all(sub == 0.0)

    def test_still_valid_after_subsampling(self):
        w = proportional_weights(np.array([[3, 2, 0], [1, 0, 4]]))
        validate_weights(subsample_weights(w, np.array([0, 2])))

    def test_rejects_negative_user_ids(self):
        # Regression: numpy fancy indexing wraps -1 to the last column, so
        # a negative id silently kept the *wrong* user's weights.
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            subsample_weights(uniform_weights(2, 4), np.array([-1, 2]))

    def test_rejects_out_of_range_user_ids(self):
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            subsample_weights(uniform_weights(2, 4), np.array([0, 4]))


class TestCarryoverRequiresGains:
    def test_carryover_without_gains_raises(self):
        # Regression: carryover with silo_gain=None silently degraded to
        # renorm="none" inside participation_weights.
        with pytest.raises(ValueError, match="carryover"):
            RoundParticipation(
                silo_mask=np.ones(3, dtype=bool), renorm="carryover"
            )

    def test_carryover_with_gains_still_works(self):
        p = RoundParticipation(
            silo_mask=np.ones(2, dtype=bool),
            silo_gain=np.array([2.0, 1.0]),
            renorm="carryover",
        )
        w = participation_weights(np.full((2, 3), 0.5), p)
        np.testing.assert_allclose(w[0], 1.0)
        np.testing.assert_allclose(w[1], 0.5)


class TestFullRoster:
    def test_full_is_what_participation_none_means(self):
        # The roster ULDP-AVG/SGD's round substitutes for
        # ``participation=None``: everyone in, nothing renormalised, and
        # therefore the input weights back bit for bit.
        p = RoundParticipation.full(3)
        assert p.silo_mask.tolist() == [True, True, True]
        assert p.user_mask is None and p.silo_gain is None
        assert p.renorm == "none" and p.noise_rescale
        assert p.n_active_silos == p.n_broadcast_silos == 3
        w = proportional_weights(np.array([[3, 2, 0], [1, 0, 4], [1, 1, 1]]))
        assert np.array_equal(participation_weights(w, p), w)

    def test_full_takes_the_silo_count_only(self):
        with pytest.raises(TypeError):
            RoundParticipation.full(3, 5)

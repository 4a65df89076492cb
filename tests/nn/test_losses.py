"""Tests for losses: known values, and the reference's analytic gradients
vs finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_concordance import loop_concordance_index
from reference_nn import reference

from repro.nn import losses
from repro.nn.losses import (
    BCEWithLogitsLoss,
    CoxPHLoss,
    SoftmaxCrossEntropyLoss,
    concordance_index,
    padded_gradient,
)


def numeric_grad_loss(loss, pred, target, eps=1e-6):
    grad = np.zeros_like(pred, dtype=np.float64)
    it = np.nditer(pred, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = pred[idx]
        pred[idx] = orig + eps
        hi = loss.forward(pred, target)
        pred[idx] = orig - eps
        lo = loss.forward(pred, target)
        pred[idx] = orig
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss(self):
        loss = SoftmaxCrossEntropyLoss()
        value = loss.forward(np.zeros((4, 10)), np.arange(4))
        assert value == pytest.approx(math.log(10))

    @given(st.integers(2, 6), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_gradient_matches_numeric(self, n, classes):
        rng = np.random.default_rng(n * 10 + classes)
        pred = rng.standard_normal((n, classes))
        target = rng.integers(0, classes, size=n)
        loss = reference(SoftmaxCrossEntropyLoss())
        loss.forward(pred, target)
        np.testing.assert_allclose(
            loss.backward(), numeric_grad_loss(loss, pred, target), atol=1e-6
        )

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(0)
        pred = rng.standard_normal((5, 3))
        loss = reference(SoftmaxCrossEntropyLoss())
        loss.forward(pred, np.zeros(5, dtype=int))
        np.testing.assert_allclose(loss.backward().sum(axis=1), 0.0, atol=1e-12)

    def test_extreme_logits_stable(self):
        loss = SoftmaxCrossEntropyLoss()
        pred = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
        value = loss.forward(pred, np.array([0, 1]))
        assert math.isfinite(value)
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_float32_probability_below_1e38_is_finite(self):
        """exp(-200) underflows to 0 in float32, and so did the old
        ``log(p + 1e-300)``'s offset: log(0) = -inf, then NaN where the
        batched loss masked a padded entry.  The log-softmax stays finite,
        and so does the padded-stack gradient, zero at padded entries."""
        pred = np.array([[[0.0, 200.0], [0.0, 200.0]], [[50.0, 0.0], [0.0, 200.0]]],
                        dtype=np.float32)
        target = np.array([[0, 0], [1, 0]])
        mask = np.array([[True, False], [True, True]])
        with np.errstate(divide="raise", invalid="raise"):
            single = reference(SoftmaxCrossEntropyLoss())
            value = single.forward(pred[:, 0], target[:, 0])
            assert value == pytest.approx(125.0)
            assert np.isfinite(single.backward()).all()
            grad = padded_gradient(SoftmaxCrossEntropyLoss(), pred, target, mask)
        assert np.isfinite(grad).all() and not grad[0, 1].any()

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropyLoss().forward(np.zeros((3, 2)), np.zeros(4))


class TestBCEWithLogits:
    def test_known_value(self):
        loss = BCEWithLogitsLoss()
        assert loss.forward(np.zeros(4), np.ones(4)) == pytest.approx(math.log(2))

    @given(st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_gradient_matches_numeric(self, n):
        rng = np.random.default_rng(n)
        pred = rng.standard_normal(n)
        target = rng.integers(0, 2, size=n).astype(float)
        loss = reference(BCEWithLogitsLoss())
        loss.forward(pred, target)
        np.testing.assert_allclose(
            loss.backward(), numeric_grad_loss(loss, pred, target), atol=1e-6
        )

    def test_column_vector_shape_preserved(self):
        loss = reference(BCEWithLogitsLoss())
        pred = np.zeros((3, 1))
        loss.forward(pred, np.ones(3))
        assert loss.backward().shape == (3, 1)

    def test_extreme_logits_stable(self):
        loss = BCEWithLogitsLoss()
        assert math.isfinite(loss.forward(np.array([1e4, -1e4]), np.array([1.0, 0.0])))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            BCEWithLogitsLoss().forward(np.zeros(3), np.zeros(4))


class TestCoxPHLoss:
    def _target(self, times, events):
        return np.stack([np.asarray(times, float), np.asarray(events, float)], axis=1)

    def test_two_record_hand_computation(self):
        # Records: (t=1, event), (t=2, censored).  Risk set of the event is
        # both records: loss = -(eta0 - log(e^eta0 + e^eta1)).
        eta = np.array([0.3, -0.2])
        target = self._target([1.0, 2.0], [1, 0])
        expected = -(eta[0] - math.log(math.exp(eta[0]) + math.exp(eta[1])))
        assert CoxPHLoss().forward(eta, target) == pytest.approx(expected)

    @given(st.integers(3, 10))
    @settings(max_examples=20, deadline=None)
    def test_gradient_matches_numeric(self, n):
        rng = np.random.default_rng(n)
        pred = rng.standard_normal(n)
        times = rng.uniform(0.1, 10.0, size=n)
        events = rng.integers(0, 2, size=n)
        if events.sum() == 0:
            events[0] = 1
        target = self._target(times, events)
        loss = reference(CoxPHLoss())
        loss.forward(pred, target)
        np.testing.assert_allclose(
            loss.backward(), numeric_grad_loss(loss, pred, target), atol=1e-6
        )

    def test_column_vector_shape_preserved(self):
        loss = reference(CoxPHLoss())
        pred = np.array([[0.1], [0.2], [0.3]])
        loss.forward(pred, self._target([1, 2, 3], [1, 1, 0]))
        assert loss.backward().shape == (3, 1)

    def test_rejects_no_events(self):
        with pytest.raises(ValueError):
            CoxPHLoss().forward(np.zeros(3), self._target([1, 2, 3], [0, 0, 0]))

    def test_rejects_single_record(self):
        with pytest.raises(ValueError):
            CoxPHLoss().forward(np.zeros(1), self._target([1], [1]))

    def test_lower_loss_for_correct_ranking(self):
        # Predicting higher risk for the earlier event should reduce loss.
        target = self._target([1.0, 2.0, 3.0], [1, 1, 1])
        good = CoxPHLoss().forward(np.array([2.0, 1.0, 0.0]), target)
        bad = CoxPHLoss().forward(np.array([0.0, 1.0, 2.0]), target)
        assert good < bad


class TestConcordanceIndex:
    def test_perfect_ranking(self):
        times = np.array([1.0, 2.0, 3.0])
        events = np.array([1, 1, 1])
        assert concordance_index(np.array([3.0, 2.0, 1.0]), times, events) == 1.0

    def test_inverted_ranking(self):
        times = np.array([1.0, 2.0, 3.0])
        events = np.array([1, 1, 1])
        assert concordance_index(np.array([1.0, 2.0, 3.0]), times, events) == 0.0

    def test_ties_count_half(self):
        times = np.array([1.0, 2.0])
        events = np.array([1, 0])
        assert concordance_index(np.array([0.5, 0.5]), times, events) == 0.5

    def test_censored_records_not_events(self):
        # With no events there are no comparable pairs -> 0.5 by convention.
        times = np.array([1.0, 2.0])
        events = np.array([0, 0])
        assert concordance_index(np.array([1.0, 0.0]), times, events) == 0.5

    def test_hand_computed_mixed_case(self):
        times = np.array([1.0, 2.0, 3.0])
        events = np.array([1, 0, 1])
        risk = np.array([3.0, 1.0, 2.0])
        # Comparable pairs: (0,1), (0,2): both concordant. Record 2 has an
        # event but no later records -> not comparable.
        assert concordance_index(risk, times, events) == 1.0

    # Few distinct values so ties in risk and time are common; NaN risk
    # is comparable but neither concordant nor tied.
    @given(
        st.integers(0, 40).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.sampled_from([-1.0, 0.0, 0.5, 2.0, np.nan]), min_size=n, max_size=n
                ),
                st.lists(st.integers(0, 5), min_size=n, max_size=n),
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_pair_loop(self, case):
        risk, times, events = (np.array(v, dtype=float) for v in case)
        assert concordance_index(risk, times, events) == loop_concordance_index(
            risk, times, events
        )

    def test_no_comparable_pair_is_half_like_the_loop(self):
        # Every event is at the latest time: nothing is comparable.
        risk = np.array([1.0, 0.0, 3.0])
        times = np.array([1.0, 2.0, 2.0])
        events = np.array([0, 1, 1])
        assert concordance_index(risk, times, events) == 0.5
        assert loop_concordance_index(risk, times, events) == 0.5

    def test_blocks_equal_one_pass(self, monkeypatch):
        rng = np.random.default_rng(0)
        risk, times = rng.normal(size=300), rng.exponential(size=300)
        events = rng.integers(0, 2, size=300)
        whole = concordance_index(risk, times, events)
        monkeypatch.setattr(losses, "_PAIR_BLOCK", 300 * 3)  # 3 event rows a block
        assert concordance_index(risk, times, events) == whole
        assert whole == loop_concordance_index(risk, times, events)

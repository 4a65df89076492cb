"""Tests for remaining training utilities and small API corners."""

import numpy as np
import pytest
from reference_nn import reference, train_epochs

from repro.accounting.accountant import RdpEvent
from repro.accounting.rdp import DEFAULT_ALPHAS, gaussian_rdp_curve
from repro.accounting.subsampled import subsampled_gaussian_rdp_curve
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.model import build_tiny_mlp


class TestTrainEpochsEdges:
    def test_zero_epochs_noop(self):
        rng = np.random.default_rng(2)
        model = build_tiny_mlp(4, 6, 2, rng)
        before = model.get_flat_params()
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 2, 6)
        train_epochs(model, SoftmaxCrossEntropyLoss(), x, y, lr=0.5, epochs=0,
                     rng=np.random.default_rng(3))
        np.testing.assert_array_equal(before, model.get_flat_params())

    def test_single_record_dataset(self):
        rng = np.random.default_rng(4)
        model = build_tiny_mlp(4, 6, 2, rng)
        x = rng.standard_normal((1, 4))
        y = np.array([1])
        train_epochs(model, SoftmaxCrossEntropyLoss(), x, y, lr=0.1, epochs=3,
                     rng=np.random.default_rng(5))
        # Model fits the single record quickly.
        assert reference(model).forward(x).argmax() == 1


class TestRdpEvent:
    def test_full_participation_curve(self):
        event = RdpEvent(noise_multiplier=4.0, sample_rate=1.0, steps=3)
        np.testing.assert_allclose(
            event.curve(DEFAULT_ALPHAS), gaussian_rdp_curve(4.0, 3)
        )

    def test_subsampled_curve(self):
        event = RdpEvent(noise_multiplier=4.0, sample_rate=0.2, steps=2)
        np.testing.assert_allclose(
            event.curve(DEFAULT_ALPHAS), subsampled_gaussian_rdp_curve(0.2, 4.0, 2)
        )

    def test_frozen(self):
        event = RdpEvent(1.0)
        with pytest.raises(Exception):
            event.steps = 5  # type: ignore[misc]

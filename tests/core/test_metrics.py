"""Tests for task-dependent evaluation, including degenerate models."""

import pickle

import numpy as np
import pytest

from repro.core.metrics import evaluate_model, make_loss, metric_name, output_width
from repro.data import (
    build_creditcard_benchmark,
    build_mnist_benchmark,
    build_tcgabrca_benchmark,
)
from repro.nn.layers import ReLU
from repro.nn.losses import concordance_index
from repro.nn.model import Sequential, build_mnist_cnn, build_tiny_mlp
from repro.nn.train import evaluate_accuracy, predict


class TestOutputWidth:
    def test_mlp(self):
        model = build_tiny_mlp(4, 8, 3, np.random.default_rng(0))
        assert output_width(model) == 3

    def test_no_linear_layer_rejected(self):
        with pytest.raises(ValueError):
            output_width(Sequential([ReLU()]))


class TestEvaluateModel:
    def test_classification_keys(self):
        fed = build_creditcard_benchmark(n_users=5, n_silos=2, n_records=60,
                                         n_test=30, seed=0)
        model = build_tiny_mlp(30, 4, 2, np.random.default_rng(0))
        scores = evaluate_model(fed, model)
        assert set(scores) == {"loss", "accuracy"}
        assert 0 <= scores["accuracy"] <= 1

    def test_survival_keys(self):
        fed = build_tcgabrca_benchmark(n_users=6, silo_sizes=(40, 40), seed=0)
        model = build_tiny_mlp(39, 4, 1, np.random.default_rng(0))
        scores = evaluate_model(fed, model)
        assert set(scores) == {"loss", "c_index"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_classifier_reports_inf_loss(self):
        fed = build_creditcard_benchmark(n_users=5, n_silos=2, n_records=60,
                                         n_test=30, seed=0)
        model = build_tiny_mlp(30, 4, 2, np.random.default_rng(0))
        model.set_flat_params(np.full(model.num_params, np.inf))
        scores = evaluate_model(fed, model)
        assert scores["loss"] == float("inf")
        assert scores["accuracy"] == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_survival_reports_chance(self):
        fed = build_tcgabrca_benchmark(n_users=6, silo_sizes=(40, 40), seed=0)
        model = build_tiny_mlp(39, 4, 1, np.random.default_rng(0))
        model.set_flat_params(np.full(model.num_params, np.nan))
        scores = evaluate_model(fed, model)
        assert scores["loss"] == float("inf")
        assert scores["c_index"] == 0.5


    @pytest.mark.parametrize("task", ["multiclass", "survival"])
    def test_one_forward_same_scores(self, task, monkeypatch):
        """The metric is derived from the predictions the loss was computed
        on: bit-equal to forwarding again, with half the forwards."""
        if task == "survival":
            fed = build_tcgabrca_benchmark(n_users=6, silo_sizes=(40, 40), seed=0)
            model = build_tiny_mlp(39, 4, 1, np.random.default_rng(0))
        else:
            fed = build_creditcard_benchmark(n_users=5, n_silos=2, n_records=60,
                                             n_test=30, seed=0)
            model = build_tiny_mlp(30, 4, 2, np.random.default_rng(0))
        pred = predict(model, fed.test_x)
        expected = {"loss": float(make_loss(fed.task, model).forward(pred, fed.test_y))}
        if task == "survival":
            expected["c_index"] = concordance_index(
                pred.ravel(), fed.test_y[:, 0], fed.test_y[:, 1])
        else:
            expected["accuracy"] = evaluate_accuracy(model, fed.test_x, fed.test_y)
        forwards = []
        forward = model.forward
        monkeypatch.setattr(
            model, "forward", lambda x: forwards.append(len(x)) or forward(x))
        assert evaluate_model(fed, model) == expected
        assert forwards == [len(fed.test_x)]


class TestEvaluationLeavesNoCaches:
    """A model that has evaluated a test set copies and pickles at the size
    of its parameters: forward caches are not part of its state."""

    @pytest.fixture()
    def evaluated(self):
        fed = build_mnist_benchmark(
            n_users=6, n_silos=2, n_records=60, n_test=50, seed=0)
        model = build_mnist_cnn(np.random.default_rng(0))
        before = len(pickle.dumps(model))
        evaluate_model(fed, model)
        return model, before

    def test_pickle_size_unchanged(self, evaluated):
        model, before = evaluated
        assert len(pickle.dumps(model)) == before

    def test_clone_holds_only_params_and_grads(self, evaluated):
        model, _ = evaluated
        assert any(
            isinstance(value, (np.ndarray, tuple))
            for layer in model.layers
            for name, value in vars(layer).items()
            if name.startswith("_")
        ), "evaluation left no cache behind: the test checks nothing"
        clone = model.clone()
        owned = {id(a) for a in (*clone.params, *clone.grads)}

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    yield from arrays(item)

        for layer in clone.layers:
            for value in vars(layer).values():
                for array in arrays(value):
                    assert id(array) in owned
        np.testing.assert_array_equal(
            clone.get_flat_params(), model.get_flat_params())


class TestTopLevelExports:
    def test_lazy_exports_resolve(self):
        import repro

        assert repro.SecureUldpAvg.__name__ == "SecureUldpAvg"
        assert callable(repro.calibrate_noise_multiplier)
        assert callable(repro.run_experiment)

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            _ = repro.NotAThing

    def test_dir_includes_exports(self):
        import repro

        names = dir(repro)
        assert "Trainer" in names and "UldpAvg" in names

"""Tests for task-dependent evaluation, including degenerate models."""

import pickle
import tracemalloc

import numpy as np
import pytest
from reference_nn import reference

from repro.core import metrics
from repro.core.metrics import accuracy_of, evaluate_model, make_loss, metric_name, output_width
from repro.data import (
    build_creditcard_benchmark,
    build_mnist_benchmark,
    build_tcgabrca_benchmark,
    federate_presiloed,
)
from repro.data.synthetic import synthetic_heartdisease, synthetic_tcgabrca
from repro.nn import batched
from repro.nn.batched import FORWARD_CHUNK, forward_logits, scratch_model
from repro.nn.layers import ReLU
from repro.nn.losses import concordance_index
from repro.nn.model import (
    Sequential,
    build_cox_linear,
    build_creditcard_mlp,
    build_logistic,
    build_mnist_cnn,
    build_tiny_mlp,
)
from repro.nn.workspace import Workspace

#: float32's machine epsilon, 1.19e-7.
EPS32 = np.finfo(np.float32).eps


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
        """Loss and metric come from one set of float32 logits, computed in
        float64 on them; the logits agree with the float64 forward to 64
        float32 eps of the largest logit.

        A logit is two layers of float32 dot products (``build_tiny_mlp``:
        30 or 39 features, 4 hidden units) over float32-rounded records and
        weights, each rounding worth ~1 eps of its term; the largest error
        measured over both tasks is 1.1 ``EPS32 * max|logit|``.  64 is the
        engine-equivalence tests' float32 tolerance, ~50x that."""
        if task == "survival":
            fed = build_tcgabrca_benchmark(n_users=6, silo_sizes=(40, 40), seed=0)
            model = build_tiny_mlp(39, 4, 1, np.random.default_rng(0))
        else:
            fed = build_creditcard_benchmark(n_users=5, n_silos=2, n_records=60,
                                             n_test=30, seed=0)
            model = build_tiny_mlp(30, 4, 2, np.random.default_rng(0))
        forwards = []

        def recording(local, x):
            forwards.append(forward_logits(local, x))
            return forwards[-1]

        monkeypatch.setattr(metrics, "forward_logits", recording)
        scores = evaluate_model(fed, model)
        [pred] = forwards
        assert pred.dtype == np.float64 and len(pred) == len(fed.test_x)
        np.testing.assert_array_equal(pred.astype(np.float32), pred)
        expected = {"loss": float(make_loss(fed.task, model).forward(pred, fed.test_y))}
        if task == "survival":
            expected["c_index"] = concordance_index(
                pred.ravel(), fed.test_y[:, 0], fed.test_y[:, 1])
        else:
            expected["accuracy"] = accuracy_of(pred, fed.test_y)
        assert scores == expected
        plain = reference(model).forward(fed.test_x)
        scale = max(1.0, float(np.abs(plain).max()))
        np.testing.assert_allclose(pred, plain, rtol=0, atol=64 * EPS32 * scale)


class TestEvaluationLeavesNoCaches:
    """A model is its parameters: after an evaluation it holds no forward
    cache, and it copies and pickles at the size of its parameters -- the
    reference passes keep their caches on themselves."""

    @pytest.fixture()
    def evaluated(self):
        fed = build_mnist_benchmark(
            n_users=6, n_silos=2, n_records=60, n_test=50, seed=0)
        model = build_mnist_cnn(np.random.default_rng(0))
        before = len(pickle.dumps(model))
        evaluate_model(fed, model)
        return fed, model, before

    def test_template_holds_no_forward_cache(self, evaluated):
        _, model, _ = evaluated
        for layer in model.layers:
            for name, value in vars(layer).items():
                if name.startswith("_"):
                    assert value is None, f"{type(layer).__name__}.{name}"

    def test_pickle_size_unchanged(self, evaluated):
        _, model, before = evaluated
        state = sum(a.nbytes for a in model.params)
        assert len(pickle.dumps(model)) == before <= state + 4096

    def test_clone_holds_only_params(self, evaluated):
        fed, model, _ = evaluated
        plain = reference(model)
        plain.forward(fed.test_x)  # the reference's forward does cache
        assert any(
            isinstance(value, (np.ndarray, tuple))
            for layer in plain.layers
            for name, value in vars(layer).items()
            if name.startswith("_")
        ), "the forward left no cache behind: the test checks nothing"
        clone = model.clone()
        owned = {id(a) for a in clone.params}

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


def _chunked_case(kind, n_test=4 * FORWARD_CHUNK + 37):
    """(fed, model) of one task, by default with four full forward chunks
    of test records and a partial fifth."""
    rng = np.random.default_rng(0)
    if kind == "mlp":
        fed = build_creditcard_benchmark(
            n_users=5, n_silos=2, n_records=60, n_test=n_test, seed=0)
        return fed, build_creditcard_mlp(rng)
    if kind == "cnn":
        fed = build_mnist_benchmark(
            n_users=6, n_silos=2, n_records=60, n_test=n_test, seed=0)
        return fed, build_mnist_cnn(rng)
    if kind == "logistic":
        raw = synthetic_heartdisease(n_test=n_test, seed=0)
        return federate_presiloed(*raw, 6, "uniform", 1), build_logistic(rng)
    raw = synthetic_tcgabrca(n_test=n_test, seed=0)
    fed = federate_presiloed(*raw, 6, "uniform", 1, min_records_per_pair=2)
    return fed, build_cox_linear(rng)


def _traced_peak(call) -> int:
    """Peak bytes ``call()`` allocates, as ``tracemalloc`` sees them."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["mlp", "cnn", "logistic", "cox"])
class TestChunkedEvaluation:
    """A test set of several chunks evaluates in one chunk's memory, and
    its scores do not depend on what the process ran before."""

    def test_second_evaluation_allocates_predictions_and_one_chunk(self, kind, monkeypatch):
        """A warm evaluation allocates at most the logits and one chunk of
        records more than scoring ready-made logits does.  The scoring --
        float64 loss and metric, not chunked (the Cox loss builds an n x n
        risk-set matrix) -- is measured by handing it the logits."""
        fed, model = _chunked_case(kind)
        evaluate_model(fed, model)
        evaluated = _traced_peak(lambda: evaluate_model(fed, model))
        pred = forward_logits(scratch_model(model, model.get_flat_params()), fed.test_x)
        monkeypatch.setattr(metrics, "forward_logits", lambda local, x: pred)
        scoring = _traced_peak(lambda: evaluate_model(fed, model))
        assert evaluated <= scoring + pred.nbytes + FORWARD_CHUNK * fed.test_x[0].nbytes

    def test_workspace_stays_chunk_sized(self, kind, monkeypatch):
        fed, model = _chunked_case(kind)
        one_chunk, _ = _chunked_case(kind, n_test=FORWARD_CHUNK)
        monkeypatch.setattr(batched, "WORKSPACE", Workspace())
        evaluate_model(one_chunk, model)  # sizes the slab; the next scope grows it
        evaluate_model(one_chunk, model)
        chunk_sized = batched.WORKSPACE.nbytes
        assert chunk_sized > 0
        for _ in range(2):
            evaluate_model(fed, model)
            assert batched.WORKSPACE.nbytes == chunk_sized

    def test_scores_equal_fresh_and_warmed(self, kind, monkeypatch):
        fed, model = _chunked_case(kind)
        monkeypatch.setattr(batched, "WORKSPACE", Workspace())
        fresh = evaluate_model(fed, model.clone())  # new slab, new float32 copy
        evaluate_model(fed, model)
        ws = batched.WORKSPACE
        ws.reset()
        ws.take((ws.nbytes,), np.uint8).fill(0xFF)  # every float in it NaN
        assert evaluate_model(fed, model) == fresh


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

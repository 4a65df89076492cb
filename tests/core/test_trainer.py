"""Tests for the Trainer, history bookkeeping, and model selection."""

import numpy as np
import pytest

from repro.core import Default, Trainer, UldpAvg, UldpNaive, default_model_for
from repro.core.metrics import make_loss, metric_name, output_width
from repro.data import (
    build_creditcard_benchmark,
    build_heartdisease_benchmark,
    build_mnist_benchmark,
    build_tcgabrca_benchmark,
)
from repro.nn.losses import BCEWithLogitsLoss, CoxPHLoss, SoftmaxCrossEntropyLoss
from repro.nn.model import build_tiny_mlp


@pytest.fixture()
def cc_fed():
    return build_creditcard_benchmark(
        n_users=10, n_silos=3, n_records=240, n_test=60, seed=0
    )


class TestTrainerBasics:
    def test_history_length_and_fields(self, cc_fed):
        model = build_tiny_mlp(30, 8, 2, np.random.default_rng(0))
        trainer = Trainer(cc_fed, UldpAvg(local_epochs=1), rounds=3, model=model, seed=0)
        history = trainer.run()
        assert len(history.records) == 3
        assert history.final.round == 3
        assert history.final.metric_name == "accuracy"
        assert history.final.epsilon is not None

    def test_eval_every(self, cc_fed):
        model = build_tiny_mlp(30, 8, 2, np.random.default_rng(0))
        trainer = Trainer(
            cc_fed, UldpAvg(local_epochs=1), rounds=5, model=model, seed=0, eval_every=2
        )
        history = trainer.run()
        assert [r.round for r in history.records] == [2, 4, 5]

    def test_epsilon_series_increases(self, cc_fed):
        model = build_tiny_mlp(30, 8, 2, np.random.default_rng(0))
        trainer = Trainer(cc_fed, UldpNaive(local_epochs=1), rounds=4, model=model, seed=0)
        eps = trainer.run().series("epsilon")
        assert all(b > a for a, b in zip(eps, eps[1:]))

    def test_nonprivate_epsilon_is_none(self, cc_fed):
        model = build_tiny_mlp(30, 8, 2, np.random.default_rng(0))
        history = Trainer(Default(local_epochs=1) and cc_fed, Default(local_epochs=1),
                          rounds=2, model=model, seed=0).run()
        assert history.final.epsilon is None
        assert "non-private" in history.summary()

    def test_method_that_reports_no_participation_is_refused(self, cc_fed):
        """The trainer logs what the method reports and does not guess."""

        class Silent(Default):
            def round(self, t, params, participation=None):
                return params.copy()  # breaks the contract: no last_participation

        model = build_tiny_mlp(30, 8, 2, np.random.default_rng(0))
        trainer = Trainer(cc_fed, Silent(local_epochs=1), rounds=1, model=model)
        with pytest.raises(RuntimeError, match="Silent.*last_participation"):
            trainer.run()

    def test_series_rejects_unknown_key(self, cc_fed):
        model = build_tiny_mlp(30, 8, 2, np.random.default_rng(0))
        history = Trainer(cc_fed, Default(local_epochs=1), rounds=1, model=model).run()
        with pytest.raises(ValueError):
            history.series("f1")

    def test_empty_history_final_raises(self):
        from repro.core.trainer import TrainingHistory

        with pytest.raises(ValueError):
            _ = TrainingHistory(method="m", dataset="d").final

    def test_rejects_bad_arguments(self, cc_fed):
        model = build_tiny_mlp(30, 8, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            Trainer(cc_fed, Default(), rounds=0, model=model)
        with pytest.raises(ValueError):
            Trainer(cc_fed, Default(), rounds=1, model=model, delta=0.0)
        with pytest.raises(ValueError):
            Trainer(cc_fed, Default(), rounds=1, model=model, eval_every=0)

    def test_seed_reproducibility(self, cc_fed):
        def run(seed):
            model = build_tiny_mlp(30, 8, 2, np.random.default_rng(7))
            return Trainer(
                cc_fed, UldpAvg(local_epochs=1, noise_multiplier=1.0),
                rounds=2, model=model, seed=seed,
            ).run().final.metric

        assert run(3) == run(3)


class TestDefaultModelSelection:
    def test_creditcard_gets_mlp(self, cc_fed):
        model = default_model_for(cc_fed, np.random.default_rng(0))
        assert 3500 <= model.num_params <= 4500

    def test_mnist_gets_cnn(self):
        fed = build_mnist_benchmark(n_users=5, n_silos=2, n_records=60, n_test=20, seed=0)
        model = default_model_for(fed, np.random.default_rng(0))
        assert model.num_params > 10_000

    def test_heartdisease_gets_logistic(self):
        fed = build_heartdisease_benchmark(n_users=10, seed=0)
        model = default_model_for(fed, np.random.default_rng(0))
        assert model.num_params < 100
        assert output_width(model) == 1

    def test_tcga_gets_cox(self):
        fed = build_tcgabrca_benchmark(n_users=10, seed=0)
        model = default_model_for(fed, np.random.default_rng(0))
        assert model.num_params < 100
        assert fed.task == "survival"


class TestLossSelection:
    def test_by_task_and_width(self, cc_fed):
        mlp = build_tiny_mlp(30, 4, 2, np.random.default_rng(0))
        assert isinstance(make_loss("binary", mlp), SoftmaxCrossEntropyLoss)
        logistic = build_tiny_mlp(13, 4, 1, np.random.default_rng(0))
        assert isinstance(make_loss("binary", logistic), BCEWithLogitsLoss)
        assert isinstance(make_loss("survival", logistic), CoxPHLoss)
        with pytest.raises(ValueError):
            make_loss("ranking", mlp)

    def test_metric_names(self):
        assert metric_name("survival") == "c_index"
        assert metric_name("binary") == "accuracy"


class TestEndToEndSurvival:
    def test_tcga_trainer_produces_cindex(self):
        fed = build_tcgabrca_benchmark(n_users=8, seed=0)
        trainer = Trainer(
            fed, UldpAvg(local_epochs=1, noise_multiplier=1.0, clip=5.0),
            rounds=2, seed=0,
        )
        history = trainer.run()
        assert history.final.metric_name == "c_index"
        assert 0.0 <= history.final.metric <= 1.0

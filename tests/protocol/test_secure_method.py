"""End-to-end tests: SecureUldpAvg == plaintext ULDP-AVG-w (Theorem 4)."""

import numpy as np
import pytest
from toy_crypto import TOY_DH_GROUP

from repro.core import Trainer, UldpAvg
from repro.data import build_creditcard_benchmark
from repro.nn.model import build_tiny_mlp
from repro.protocol import SecureUldpAvg


@pytest.fixture(scope="module")
def fed():
    return build_creditcard_benchmark(
        n_users=6, n_silos=3, n_records=120, n_test=40, seed=0
    )


def make_model():
    return build_tiny_mlp(30, 2, 2, np.random.default_rng(42))  # 68 params


def run(method, fed, rounds=2, seed=0):
    model = make_model()
    trainer = Trainer(fed, method, rounds=rounds, model=model, seed=seed)
    history = trainer.run()
    return model.get_flat_params(), history


class TestSecureMatchesPlain:
    def test_parameters_match_within_precision(self, fed):
        plain_params, _ = run(
            UldpAvg(weighting="proportional", local_epochs=1, noise_multiplier=1.0,
                    local_lr=0.1),
            fed, seed=7,
        )
        secure_params, _ = run(
            SecureUldpAvg(local_epochs=1, noise_multiplier=1.0, local_lr=0.1,
                          paillier_bits=256, dh_group=TOY_DH_GROUP),
            fed, seed=7,
        )
        # Same trainer seed => same local training and noise draws; the only
        # difference is fixed-point quantisation, amplified by global_lr.
        np.testing.assert_allclose(secure_params, plain_params, atol=1e-6)

    def test_epsilon_identical(self, fed):
        _, plain_hist = run(
            UldpAvg(weighting="proportional", local_epochs=1, noise_multiplier=5.0),
            fed, seed=3,
        )
        _, secure_hist = run(
            SecureUldpAvg(local_epochs=1, noise_multiplier=5.0, paillier_bits=256,
                          dh_group=TOY_DH_GROUP),
            fed, seed=3,
        )
        assert secure_hist.final.epsilon == pytest.approx(plain_hist.final.epsilon)

    def test_subsampling_matches(self, fed):
        plain_params, _ = run(
            UldpAvg(weighting="proportional", local_epochs=1, noise_multiplier=1.0,
                    local_lr=0.1, user_sample_rate=0.5),
            fed, seed=11,
        )
        secure_params, _ = run(
            SecureUldpAvg(local_epochs=1, noise_multiplier=1.0, local_lr=0.1,
                          user_sample_rate=0.5, paillier_bits=256,
                          dh_group=TOY_DH_GROUP),
            fed, seed=11,
        )
        # Same seed => same Poisson sampling on the server side.  The secure
        # variant trains every user locally (silos are sampling-blind) but
        # the aggregate cancels unsampled users, so *aggregates* agree even
        # though per-silo work differs.  Noise draws happen after training
        # in both paths, per silo, so they align too.
        np.testing.assert_allclose(secure_params, plain_params, atol=1e-6)

    def test_timing_report_has_protocol_phases(self, fed):
        method = SecureUldpAvg(
            local_epochs=1, noise_multiplier=1.0, paillier_bits=256,
            dh_group=TOY_DH_GROUP,
        )
        run(method, fed, rounds=1, seed=0)
        report = method.timing_report()
        for phase in ("keygen", "key_exchange", "blinded_histogram",
                      "encrypt_weights", "silo_weighted_encryption",
                      "aggregate_decrypt"):
            assert phase in report
            assert report[phase] >= 0

    def test_display_name(self):
        assert SecureUldpAvg().display_name == "ULDP-AVG-w (secure)"

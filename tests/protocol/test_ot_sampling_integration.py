"""Integration tests for the OT-based private sub-sampling extension."""

import numpy as np
import pytest
from toy_crypto import TOY_DH_GROUP

from repro.core import Trainer
from repro.data import build_creditcard_benchmark
from repro.protocol import PrivateSubsampler, PrivateWeightingProtocol, SecureUldpAvg

HIST = np.array([
    [3, 1, 2, 1],
    [1, 4, 0, 1],
])


def make_protocol(seed=0):
    proto = PrivateWeightingProtocol(
        HIST, n_max=16, paillier_bits=256, seed=seed, dh_group=TOY_DH_GROUP
    )
    proto.run_setup()
    return proto


def make_inputs(proto, d=4, seed=1):
    rng = np.random.default_rng(seed)
    deltas = [
        {u: rng.standard_normal(d) for u in range(proto.n_users) if proto.histogram[s, u] > 0}
        for s in range(proto.n_silos)
    ]
    noises = [rng.standard_normal(d) for _ in range(proto.n_silos)]
    return deltas, noises


class TestRunRoundOtSampling:
    def test_matches_reference_on_sampled_set(self):
        proto = make_protocol()
        deltas, noises = make_inputs(proto)
        seed = proto.silos[0].shared_seed
        subsampler = PrivateSubsampler(seed, n_slots=2)
        sampled = np.array(subsampler.sampled_users(proto.n_users, round_no=0))

        out = proto.run_round_ot_sampling(deltas, noises, subsampler)
        ref = proto.plaintext_reference(deltas, noises, sampled_users=sampled)
        assert np.max(np.abs(out - ref)) < 1e-6

    def test_round_reaches_server_view_and_counter(self):
        """An OT round is recorded like a plain one: the silo ciphertexts
        and the decrypted aggregate enter ``ServerView``, and the
        ciphertext counter advances by S * d."""
        from repro.obs.metrics import get_registry

        proto = make_protocol()
        deltas, noises = make_inputs(proto, d=4)
        subsampler = PrivateSubsampler(proto.silos[0].shared_seed, n_slots=2)
        counter = get_registry().counter("protocol_ciphertexts_total").labels()
        before = counter.value

        out = proto.run_round_ot_sampling(deltas, noises, subsampler)

        (ciphertexts,) = proto.view.round_ciphertexts
        assert [len(vec) for vec in ciphertexts] == [4] * proto.n_silos
        (aggregate,) = proto.view.decrypted_aggregates
        assert np.array_equal(aggregate, out)
        assert counter.value - before == proto.n_silos * 4
        assert proto.round_no == 1

    def test_multiple_rounds_resample(self):
        proto = make_protocol(seed=1)
        seed = proto.silos[0].shared_seed
        subsampler = PrivateSubsampler(seed, n_slots=2)
        sampled_sets = []
        for r in range(3):
            deltas, noises = make_inputs(proto, seed=10 + r)
            expected_sampled = np.array(subsampler.sampled_users(proto.n_users, r))
            out = proto.run_round_ot_sampling(deltas, noises, subsampler)
            ref = proto.plaintext_reference(
                deltas, noises, sampled_users=expected_sampled
            )
            assert np.max(np.abs(out - ref)) < 1e-6
            sampled_sets.append(tuple(expected_sampled.tolist()))
        # The schedule varies across rounds (with overwhelming probability
        # for 4 users x 3 rounds at q=1/2).
        assert len(set(sampled_sets)) > 1

    def test_wrong_seed_rejected(self):
        proto = make_protocol()
        deltas, noises = make_inputs(proto)
        with pytest.raises(ValueError):
            proto.run_round_ot_sampling(
                deltas, noises, PrivateSubsampler(b"not-the-seed", 2)
            )

    def test_requires_setup(self):
        proto = PrivateWeightingProtocol(
            HIST, n_max=16, paillier_bits=256, seed=0, dh_group=TOY_DH_GROUP
        )
        with pytest.raises(RuntimeError):
            proto.run_round_ot_sampling([{}, {}], [np.zeros(2)] * 2,
                                        PrivateSubsampler(b"x", 2))


class TestSecureUldpAvgWithOt:
    @pytest.fixture(scope="class")
    def fed(self):
        return build_creditcard_benchmark(
            n_users=5, n_silos=2, n_records=80, n_test=30, seed=0
        )

    def test_end_to_end_training(self, fed):
        from repro.nn.model import build_tiny_mlp

        method = SecureUldpAvg(
            noise_multiplier=1.0, local_epochs=1, local_lr=0.1,
            paillier_bits=256, private_subsampling_slots=2,
            dh_group=TOY_DH_GROUP,
        )
        model = build_tiny_mlp(30, 2, 2, np.random.default_rng(1))
        history = Trainer(fed, method, rounds=2, model=model, seed=2).run()
        assert len(history.records) == 2
        assert np.isfinite(history.final.loss) or history.final.loss == float("inf")

    def test_accounting_uses_ot_rate(self, fed):
        from repro.nn.model import build_tiny_mlp

        ot = SecureUldpAvg(
            noise_multiplier=5.0, local_epochs=1, paillier_bits=256,
            private_subsampling_slots=4,
            dh_group=TOY_DH_GROUP,
        )
        model = build_tiny_mlp(30, 2, 2, np.random.default_rng(1))
        Trainer(fed, ot, rounds=2, model=model, seed=3).run()

        from repro.accounting import PrivacyAccountant

        expected = PrivacyAccountant()
        expected.step(5.0, sample_rate=0.25, steps=2)
        assert ot.epsilon(1e-5) == pytest.approx(expected.get_epsilon(1e-5))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SecureUldpAvg(private_subsampling_slots=1)
        with pytest.raises(ValueError):
            SecureUldpAvg(private_subsampling_slots=2, user_sample_rate=0.5)

    def test_ot_timing_phase_recorded(self, fed):
        from repro.nn.model import build_tiny_mlp

        method = SecureUldpAvg(
            noise_multiplier=1.0, local_epochs=1, paillier_bits=256,
            private_subsampling_slots=2,
            dh_group=TOY_DH_GROUP,
        )
        model = build_tiny_mlp(30, 2, 2, np.random.default_rng(1))
        Trainer(fed, method, rounds=1, model=model, seed=4).run()
        assert "ot_private_sampling" in method.timing_report()

"""What protects a secure run, and when a run is refused.

The runtime's only Diffie-Hellman group is RFC 3526 group 14 (no toy
default, nothing searched for at start-up, no spec field to change it);
the group cannot reach the trained parameters; an ``n_max`` no Paillier
key size can hold is refused in ``prepare()`` -- before any key is made --
with a message naming the knob the user actually controls, while the
masked backend, which carries no C_LCM, takes the same data; and every
secure method can say in one line how strong (or not) its parameters are.
"""

import logging

import numpy as np
import pytest
from toy_crypto import TOY_DH_GROUP

import repro.crypto.primes
import repro.protocol.parties
from repro.api.runner import build_dataset, build_method, build_simulator, build_trainer
from repro.api.spec import RunSpec
from repro.core import Trainer
from repro.crypto.dh import RFC3526_PRIME_2048, TEST_PRIME_512
from repro.crypto.secagg import MaskedAggregationProtocol
from repro.data import build_creditcard_benchmark
from repro.nn.model import build_tiny_mlp
from repro.protocol import PrivateWeightingProtocol, SecureUldpAvg

BACKENDS = pytest.mark.parametrize("backend", ["fast", "masked"])


def _group_of(method):
    if method.crypto_backend == "masked":
        return method.protocol.group
    return method.protocol.silos[0].dh_keypair.group


class TestNoToyDefault:
    """SNIPPETS.md snippet 2's "toy modulus as the default", DH half."""

    def test_paillier_protocol_falls_back_to_rfc3526(self):
        proto = PrivateWeightingProtocol(
            np.array([[1, 2], [2, 1]]), n_max=16, paillier_bits=128, seed=0
        )
        assert {s.dh_keypair.group.prime for s in proto.silos} == {RFC3526_PRIME_2048}

    def test_masked_protocol_falls_back_to_rfc3526(self):
        assert MaskedAggregationProtocol(3).group.prime == RFC3526_PRIME_2048

    def test_spec_built_method_holds_rfc3526(self):
        method = build_method(RunSpec.from_dict({"method": {"name": "secure-uldp-avg"}}))
        assert method.dh_group.prime == RFC3526_PRIME_2048

    def test_start_up_runs_no_primality_test(self, monkeypatch):
        """The masked backend makes no prime at all, so building a whole
        simulator must never reach Miller-Rabin (the Paillier backend's
        keygen legitimately does)."""

        def boom(*args, **kwargs):
            raise AssertionError("start-up searched for a prime")

        monkeypatch.setattr(repro.crypto.primes, "is_probable_prime", boom)
        sim = build_simulator(RunSpec.from_dict({
            "seed": 1,
            "sim": {"scenario": "ideal-sync", "scale": "smoke"},
            "method": {"name": "secure-uldp-avg", "local_epochs": 1},
            "crypto": {"backend": "masked"},
        }))
        assert _group_of(sim.method).prime == RFC3526_PRIME_2048


class TestGroupCannotReachTheParams:
    @BACKENDS
    def test_toy_group_and_rfc_group_train_identically(self, backend):
        """The decoded aggregate is exact integer arithmetic: no group,
        exponent or mask choice can move a bit of the model or epsilon."""
        fed = build_creditcard_benchmark(
            n_users=6, n_silos=3, n_records=120, n_test=40, seed=0
        )

        def train(dh_group):
            method = SecureUldpAvg(
                local_epochs=1, noise_multiplier=1.0, local_lr=0.1,
                paillier_bits=256, crypto_backend=backend, dh_group=dh_group,
            )
            model = build_tiny_mlp(30, 2, 2, np.random.default_rng(42))
            history = Trainer(fed, method, rounds=2, model=model, seed=7).run()
            return model.get_flat_params(), history.final.epsilon, _group_of(method)

        toy_params, toy_eps, toy_group = train(TOY_DH_GROUP)
        rfc_params, rfc_eps, rfc_group = train(None)
        assert toy_group.prime == TEST_PRIME_512
        assert rfc_group.prime == RFC3526_PRIME_2048
        assert toy_params.tobytes() == rfc_params.tobytes()
        assert toy_eps == rfc_eps


class TestEarlyOverflowRefusal:
    """heartdisease over 2 users: one user holds ~385 of the 740 records,
    ``prepare`` raises n_max from 64 to that, and lcm(1..385) has 557 bits:
    more than a 512-bit Paillier key holds.  The masked backend carries no
    C_LCM and runs it."""

    @staticmethod
    def _spec(backend):
        return RunSpec.from_dict({
            "rounds": 1,
            "dataset": {"name": "heartdisease", "users": 2},
            "method": {"name": "secure-uldp-avg", "local_epochs": 1},
            "crypto": {"backend": backend},
        })

    def test_refused_in_prepare_naming_the_effective_n_max(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a key was generated before the refusal")

        monkeypatch.setattr(repro.protocol.parties, "generate_paillier_keypair", boom)
        spec = self._spec("fast")
        fed = build_dataset(spec)
        largest = int(fed.user_totals().max())
        assert largest > 64
        with pytest.raises(ValueError) as err:
            build_trainer(spec, fed)  # Trainer.__init__ runs prepare()
        message = str(err.value)
        assert f"n_max={largest}" in message
        assert "raised from the configured 64" in message
        assert f"one user holds {largest} records" in message
        assert "crypto.paillier_bits" in message and "dataset.users" in message

    def test_masked_backend_runs_the_same_data(self):
        spec = self._spec("masked")
        fed = build_dataset(spec)
        trainer = build_trainer(spec, fed)
        history = trainer.run()
        assert np.isfinite(trainer.params).all()
        assert history.comm[0].uplink_bytes == fed.n_silos * trainer.model.num_params * 8

    def test_configured_n_max_is_not_blamed_on_the_data(self):
        """When the user did set the hopeless n_max, the constructor's own
        message stands (it says to lower n_max, which they can)."""
        method = SecureUldpAvg(n_max=400)
        fed = build_creditcard_benchmark(
            n_users=6, n_silos=3, n_records=120, n_test=40, seed=0
        )
        model = build_tiny_mlp(30, 2, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="n_max=400") as err:
            Trainer(fed, method, rounds=1, model=model)
        assert "raised from" not in str(err.value)


class TestSecurityLine:
    def test_default_crypto_section_names_group_key_size_and_seeding(self):
        method = build_method(RunSpec.from_dict({"method": {"name": "secure-uldp-avg"}}))
        line = method.security_summary()
        assert "\n" not in line
        assert "rfc3526-2048 (112-bit, 256-bit exponents)" in line
        assert "paillier_bits=512 (<80-bit)" in line
        assert "seeded (reproducible, not secret)" in line

    def test_masked_backend_reports_the_field_width(self):
        line = SecureUldpAvg(crypto_backend="masked").security_summary()
        assert "masks in Z_2^64 (fixed 64-bit ring)" in line and "paillier" not in line

    def test_unseeded_toy_group_is_named(self):
        line = SecureUldpAvg(dh_group=TOY_DH_GROUP, protocol_seed=None).security_summary()
        assert "test-512 (<80-bit" in line and "keys: secrets" in line

    @pytest.mark.parametrize("kwargs, warns", [
        ({}, True),  # the default [crypto]: seeded keys, 512-bit Paillier
        ({"protocol_seed": None, "paillier_bits": 512}, True),
        ({"protocol_seed": None, "crypto_backend": "masked"}, False),
    ])
    def test_prepare_warns_once_when_weak_or_seeded(self, caplog, kwargs, warns):
        fed = build_creditcard_benchmark(
            n_users=4, n_silos=2, n_records=60, n_test=20, seed=0
        )
        method = SecureUldpAvg(local_epochs=1, **kwargs)
        model = build_tiny_mlp(30, 2, 2, np.random.default_rng(0))
        with caplog.at_level(logging.WARNING, logger="repro.protocol.secure_method"):
            Trainer(fed, method, rounds=1, model=model)
        lines = [r.getMessage() for r in caplog.records]
        assert lines == ([method.security_summary()] if warns else [])

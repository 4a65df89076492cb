"""Compression <-> secure-protocol round trip: encode/decode of a support's
values at the magnitude-budget boundaries, Protocol 1 over a shared random
support, and the SecureUldpAvg validation of admissible specs."""

import numpy as np
import pytest
from oracle_reference import decode_vector, plaintext_reference
from toy_crypto import TOY_DH_GROUP

from repro.compress import CompressionSpec
from repro.core import Trainer, UldpAvg
from repro.crypto.encoding import (
    check_magnitude_budget,
    encode_vector,
)
from repro.data import build_creditcard_benchmark
from repro.nn.model import build_tiny_mlp
from repro.protocol import PrivateWeightingProtocol, SecureUldpAvg


class TestSupportEncoding:
    def test_matches_dense_encoding_on_support(self):
        # A party encodes only its support's values; the encoding is
        # elementwise, so that is the dense encoding read on the support.
        modulus, precision = (1 << 127) - 1, 1e-6
        values = np.array([1.5, -2.25, 0.0, 3.125, -0.5])
        indices = np.array([0, 3, 4])
        dense = encode_vector(values, precision, modulus)
        assert encode_vector(values[indices], precision, modulus) == [
            dense[i] for i in indices]

    def test_extreme_magnitudes_at_budget_boundary(self):
        # Integer precision keeps every quantity float-exact, so the
        # modulus can be built to sit exactly at the Theorem 4 boundary:
        # num_terms * (ceil(v) + 1) * c_lcm < n // 2 must hold strictly.
        c_lcm, num_terms, precision = 2520, 6, 1.0
        max_abs = 1e9
        max_encoded = int(max_abs) + 1
        modulus = 2 * num_terms * max_encoded * c_lcm + 3  # budget + 1
        assert check_magnitude_budget(modulus, c_lcm, precision, max_abs, num_terms)
        # Two fewer: exactly at the budget, which must be rejected.
        assert not check_magnitude_budget(
            modulus - 2, c_lcm, precision, max_abs, num_terms
        )
        values = np.array([max_abs, -max_abs, 0.0])
        indices = np.array([0, 1])
        encoded = [
            v * c_lcm % modulus
            for v in encode_vector(values[indices], precision, modulus)
        ]
        decoded = decode_vector(encoded, precision, c_lcm, modulus)
        np.testing.assert_array_equal(decoded, [max_abs, -max_abs])


class TestProtocolSparseRound:
    """Protocol 1 restricted to a shared support == plaintext on that support."""

    def protocol(self, hist, **kwargs):
        defaults = dict(
            n_max=16, paillier_bits=256, precision=1e-8, seed=0,
            dh_group=TOY_DH_GROUP,
        )
        defaults.update(kwargs)
        return PrivateWeightingProtocol(hist, **defaults)

    def test_sparse_round_matches_plaintext_reference(self):
        hist = np.array([[3, 0, 2], [1, 4, 2]])
        protocol = self.protocol(hist)
        protocol.run_setup()
        d, k = 12, 4
        rng = np.random.default_rng(5)
        deltas = [
            {0: rng.standard_normal(d), 2: rng.standard_normal(d)},
            {u: rng.standard_normal(d) for u in range(3)},
        ]
        noises = [rng.standard_normal(d) * 0.1 for _ in range(2)]
        support = np.sort(rng.choice(d, size=k, replace=False))

        sparse_deltas = [
            {u: delta[support] for u, delta in per_silo.items()} for per_silo in deltas
        ]
        sparse_noises = [z[support] for z in noises]
        sub = protocol.run_round(sparse_deltas, sparse_noises)
        expected = plaintext_reference(protocol, sparse_deltas, sparse_noises)
        np.testing.assert_allclose(sub, expected, atol=1e-6)

        # Scattered back, unsent coordinates are exactly zero.
        dense = np.zeros(d)
        dense[support] = sub
        assert np.all(dense[np.setdiff1d(np.arange(d), support)] == 0.0)

    def test_sparse_round_respects_magnitude_budget(self):
        # Extreme coordinate magnitudes must still trip the overflow guard
        # when restricted to a support (the bound is per-coordinate).
        hist = np.array([[2, 1], [1, 2]])
        protocol = self.protocol(hist, precision=1e-40)
        protocol.run_setup()
        big = 1e38
        deltas = [{0: np.array([big, -big])}, {1: np.array([big, -big])}]
        noises = [np.zeros(2), np.zeros(2)]
        with pytest.raises(ValueError, match="magnitude budget"):
            protocol.run_round(deltas, noises)


class TestSecureUldpAvgCompression:
    @pytest.fixture(scope="class")
    def fed(self):
        return build_creditcard_benchmark(
            n_users=6, n_silos=3, n_records=120, n_test=40, seed=0
        )

    def run(self, fed, compression=None, seed=7, rounds=2):
        model = build_tiny_mlp(30, 2, 2, np.random.default_rng(42))
        method = SecureUldpAvg(
            local_epochs=1, noise_multiplier=1.0, local_lr=0.1,
            paillier_bits=256, compression=compression, dh_group=TOY_DH_GROUP,
        )
        trainer = Trainer(fed, method, rounds=rounds, model=model, seed=seed)
        return trainer.run(), method

    def test_randk_shrinks_ciphertext_uplink_exactly(self, fed):
        spec = CompressionSpec(sparsify="randk", fraction=0.25, seed=3)
        dense_hist, method = self.run(fed)
        sparse_hist, _ = self.run(fed, compression=spec)
        dim = method.model.num_params
        k = spec.keep_count(dim)
        ratio = dense_hist.comm[0].uplink_bytes / sparse_hist.comm[0].uplink_bytes
        assert ratio == pytest.approx(dim / k)

    def test_randk_epsilon_identical_to_dense(self, fed):
        spec = CompressionSpec(sparsify="randk", fraction=0.25, seed=3)
        dense_hist, _ = self.run(fed)
        sparse_hist, _ = self.run(fed, compression=spec)
        assert sparse_hist.final.epsilon == dense_hist.final.epsilon

    def test_sparse_secure_training_stays_finite(self, fed):
        spec = CompressionSpec(sparsify="randk", fraction=0.25, seed=3)
        history, _ = self.run(fed, compression=spec)
        assert np.isfinite(history.final.loss)

    @pytest.mark.parametrize(
        "spec",
        [
            CompressionSpec(sparsify="topk", fraction=0.1),
            CompressionSpec(sparsify="randk", fraction=0.1, quantize_bits=8),
            CompressionSpec(sparsify="randk", fraction=0.1, error_feedback=True),
            CompressionSpec(sparsify="randk", fraction=0.1, downlink=True),
        ],
        ids=["topk", "quantized", "error-feedback", "downlink"],
    )
    def test_inadmissible_specs_rejected(self, fed, spec):
        with pytest.raises(ValueError):
            self.run(fed, compression=spec, rounds=1)

    def test_identity_spec_admitted(self, fed):
        history, _ = self.run(fed, compression=CompressionSpec.none(), rounds=1)
        assert history.comm[0].uplink_bytes > 0

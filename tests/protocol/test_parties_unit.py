"""Unit tests for the protocol party roles (step-level behaviour)."""

import random

import numpy as np
import pytest

from toy_crypto import TOY_DH_GROUP

from repro.crypto.dh import DHKeypair
from repro.protocol.parties import ServerParty, SiloParty


@pytest.fixture(scope="module")
def group():
    return TOY_DH_GROUP


def make_silos(group, counts, n_max=16, seed=0):
    rng = random.Random(seed)
    silos = [
        SiloParty(s, np.asarray(row), n_max, group, rng=rng)
        for s, row in enumerate(counts)
    ]
    publics = {s.silo_id: s.dh_keypair.public for s in silos}
    for silo in silos:
        silo.receive_dh_publics(publics)
    return silos


class TestSiloParty:
    def test_rejects_negative_counts(self, group):
        with pytest.raises(ValueError):
            SiloParty(0, np.array([-1, 2]), 16, group)

    def test_rejects_count_over_nmax(self, group):
        with pytest.raises(ValueError):
            SiloParty(0, np.array([99]), 16, group)

    def test_only_silo0_distributes_seed(self, group):
        silos = make_silos(group, [[1, 2], [2, 1]])
        with pytest.raises(ValueError):
            silos[1].generate_seed_ciphertexts([0, 1])

    def test_seed_roundtrip(self, group):
        silos = make_silos(group, [[1, 2], [2, 1], [0, 3]])
        cts = silos[0].generate_seed_ciphertexts([0, 1, 2])
        for peer, ct in cts.items():
            silos[peer].receive_seed_ciphertext(ct)
        assert silos[1].shared_seed == silos[0].shared_seed
        assert silos[2].shared_seed == silos[0].shared_seed

    def test_histogram_requires_setup(self, group):
        silos = make_silos(group, [[1, 2], [2, 1]])
        with pytest.raises(RuntimeError):
            silos[0].blinded_masked_histogram()

    def test_pairwise_keys_symmetric(self, group):
        silos = make_silos(group, [[1], [1], [1]])
        assert silos[0].pair_keys[1] == silos[1].pair_keys[0]
        assert silos[0].pair_keys[2] == silos[2].pair_keys[0]

    def test_one_shared_secret_per_peer_feeds_both_kdf_contexts(self, group, monkeypatch):
        """Set-up costs one modular exponentiation per peer, not three:
        the mask key and the seed-transport key are two KDF contexts of it,
        and seed transport itself exponentiates nothing."""
        calls = []
        original = DHKeypair.shared_secret

        def counting(self, peer_public):
            calls.append(peer_public)
            return original(self, peer_public)

        monkeypatch.setattr(DHKeypair, "shared_secret", counting)
        silos = make_silos(group, [[1], [1], [1]])
        assert len(calls) == 3 * 2  # each silo, each peer, once
        for peer, ct in silos[0].generate_seed_ciphertexts([0, 1, 2]).items():
            silos[peer].receive_seed_ciphertext(ct)
        assert len(calls) == 3 * 2
        assert silos[0].transport_keys[1] == silos[1].transport_keys[0]
        assert silos[0].transport_keys[1] != silos[0].pair_keys[1]
        assert silos[0].pair_keys[1] != silos[0].pair_keys[2]


class TestServerParty:
    def test_invert_requires_aggregation(self):
        server = ServerParty(3, paillier_bits=256, rng=random.Random(0))
        with pytest.raises(RuntimeError):
            server.invert_blinded_totals()

    def test_encrypted_inverses_require_inversion(self):
        server = ServerParty(3, paillier_bits=256, rng=random.Random(0))
        with pytest.raises(RuntimeError):
            server.encrypted_inverses()

    def test_zero_total_user_gets_zero_pseudo_inverse(self):
        server = ServerParty(2, paillier_bits=256, rng=random.Random(0))
        server.aggregate_histograms([[0, 5], [0, 7]])
        server.invert_blinded_totals()
        assert server.blinded_inverses[0] == 0
        assert server.blinded_inverses[1] != 0

    def test_histogram_length_validated(self):
        server = ServerParty(3, paillier_bits=256, rng=random.Random(0))
        with pytest.raises(ValueError):
            server.aggregate_histograms([[1, 2]])

    def test_aggregate_requires_consistent_lengths(self):
        server = ServerParty(1, paillier_bits=256, rng=random.Random(0))
        pk = server.public_key
        rng = random.Random(1)
        a = [pk.encrypt(1, rng=rng), pk.encrypt(2, rng=rng)]
        b = [pk.encrypt(3, rng=rng)]
        with pytest.raises(ValueError):
            server.aggregate_and_decrypt([a, b], 1e-10, 1)

    def test_aggregate_rejects_empty(self):
        server = ServerParty(1, paillier_bits=256, rng=random.Random(0))
        with pytest.raises(ValueError):
            server.aggregate_and_decrypt([], 1e-10, 1)

    def test_decrypt_of_scalar_sum(self):
        """Mini end-to-end of step 2(c) without masks: Enc(a)+Enc(b)."""
        server = ServerParty(1, paillier_bits=256, rng=random.Random(0))
        pk = server.public_key
        rng = random.Random(2)
        from oracle_reference import encode_scalar

        a = pk.encrypt(encode_scalar(0.25, 1e-10, pk.n) * 4 % pk.n, rng=rng)
        b = pk.encrypt(encode_scalar(-0.5, 1e-10, pk.n) * 4 % pk.n, rng=rng)
        out = server.aggregate_and_decrypt([[a], [b]], 1e-10, 4)
        np.testing.assert_allclose(out, [-0.25], atol=1e-9)

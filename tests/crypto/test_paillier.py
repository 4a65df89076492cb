"""Tests for the Paillier cryptosystem: correctness and homomorphic laws."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.paillier import generate_paillier_keypair


@pytest.fixture(scope="module")
def keypair():
    # Small key for fast tests; keygen is the slow part so share it.
    return generate_paillier_keypair(bits=256, rng=random.Random(0))


@pytest.fixture(scope="module")
def rng():
    return random.Random(1)


class TestRoundtrip:
    def test_zero(self, keypair, rng):
        c = keypair.public_key.encrypt(0, rng=rng)
        assert keypair.private_key.decrypt(c) == 0

    def test_small_values(self, keypair, rng):
        for m in (1, 2, 42, 10**6):
            c = keypair.public_key.encrypt(m, rng=rng)
            assert keypair.private_key.decrypt(c) == m

    def test_max_plaintext(self, keypair, rng):
        n = keypair.public_key.n
        c = keypair.public_key.encrypt(n - 1, rng=rng)
        assert keypair.private_key.decrypt(c) == n - 1

    def test_reduction_mod_n(self, keypair, rng):
        n = keypair.public_key.n
        c = keypair.public_key.encrypt(n + 5, rng=rng)
        assert keypair.private_key.decrypt(c) == 5

    def test_negative_via_signed_decrypt(self, keypair, rng):
        c = keypair.public_key.encrypt(-17, rng=rng)
        assert keypair.private_key.decrypt_signed(c) == -17

    def test_ciphertexts_are_randomised(self, keypair, rng):
        c1 = keypair.public_key.encrypt(7, rng=rng)
        c2 = keypair.public_key.encrypt(7, rng=rng)
        assert c1.value != c2.value

    def test_vector_roundtrip(self, keypair, rng):
        values = [0, 1, 99, 12345]
        cts = [keypair.public_key.encrypt(v, rng=rng) for v in values]
        assert [keypair.private_key.decrypt(c) for c in cts] == values


class TestHomomorphism:
    @given(a=st.integers(0, 2**64), b=st.integers(0, 2**64))
    @settings(max_examples=25, deadline=None)
    def test_ciphertext_addition(self, keypair, a, b):
        rng = random.Random(a ^ b)
        pk, sk = keypair.public_key, keypair.private_key
        c = pk.encrypt(a, rng=rng) + pk.encrypt(b, rng=rng)
        assert sk.decrypt(c) == (a + b) % pk.n

    @given(a=st.integers(0, 2**64), k=st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_scalar_multiplication(self, keypair, a, k):
        rng = random.Random(a ^ k)
        pk, sk = keypair.public_key, keypair.private_key
        c = pk.encrypt(a, rng=rng) * k
        assert sk.decrypt(c) == (a * k) % pk.n

    @given(a=st.integers(0, 2**64), b=st.integers(-(2**32), 2**32))
    @settings(max_examples=25, deadline=None)
    def test_scalar_addition(self, keypair, a, b):
        rng = random.Random(a ^ (b & 0xFFFFFFFF))
        pk, sk = keypair.public_key, keypair.private_key
        c = pk.encrypt(a, rng=rng) + b
        assert sk.decrypt(c) == (a + b) % pk.n

    def test_mask_cancellation_in_ciphertext(self, keypair, rng):
        """Adding mask m then -m homomorphically is the identity (mod n)."""
        pk, sk = keypair.public_key, keypair.private_key
        mask = rng.randrange(pk.n)
        c = pk.encrypt(1234, rng=rng)
        c = pk.add_scalar(c, mask)
        c = pk.add_scalar(c, -mask)
        assert sk.decrypt(c) == 1234

    def test_weighted_sum_pattern(self, keypair, rng):
        """The exact access pattern of Protocol 1: sum_i k_i * Enc(x_i) + s."""
        pk, sk = keypair.public_key, keypair.private_key
        xs = [3, 5, 7]
        ks = [11, 13, 17]
        scalar = 1000
        total = pk.encrypt(0, rng=rng)
        for x, k in zip(xs, ks):
            total = total + pk.encrypt(x, rng=rng) * k
        total = total + scalar
        expected = sum(x * k for x, k in zip(xs, ks)) + scalar
        assert sk.decrypt(total) == expected % pk.n


class TestKeyCompatibility:
    def test_cross_key_addition_rejected(self, keypair, rng):
        other = generate_paillier_keypair(bits=256, rng=random.Random(99))
        c1 = keypair.public_key.encrypt(1, rng=rng)
        c2 = other.public_key.encrypt(2, rng=rng)
        with pytest.raises(ValueError):
            _ = c1 + c2

    def test_cross_key_decryption_rejected(self, keypair, rng):
        other = generate_paillier_keypair(bits=256, rng=random.Random(98))
        c = other.public_key.encrypt(1, rng=rng)
        with pytest.raises(ValueError):
            keypair.private_key.decrypt(c)

    def test_keygen_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            generate_paillier_keypair(bits=32)

    def test_modulus_bit_length(self, keypair):
        assert keypair.public_key.n.bit_length() == 256

"""Tests for multiplicative blinding and fixed-point encoding (Algorithm 5)."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.blinding import BlindingFactory
from repro.crypto.encoding import (
    check_magnitude_budget,
    decode_scalar,
    decode_vector,
    encode_scalar,
    encode_vector,
    lcm_of_counts,
    lcm_up_to,
)

MODULUS = (2**127 - 1) * (2**89 - 1)  # composite, like a Paillier n


class TestBlinding:
    def test_same_seed_same_blinds(self):
        a = BlindingFactory(b"R", MODULUS)
        b = BlindingFactory(b"R", MODULUS)
        assert a.blind_for_user(3) == b.blind_for_user(3)

    def test_different_users_different_blinds(self):
        f = BlindingFactory(b"R", MODULUS)
        assert f.blind_for_user(0) != f.blind_for_user(1)

    def test_blind_coprime_with_modulus(self):
        f = BlindingFactory(b"seed", MODULUS)
        for u in range(20):
            assert math.gcd(f.blind_for_user(u), MODULUS) == 1

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=0, max_value=50))
    @settings(max_examples=50)
    def test_blind_then_invert_recovers_inverse(self, value, user):
        """r_u * (r_u * N_u)^-1 == N_u^-1 mod n (the Protocol 1 identity)."""
        f = BlindingFactory(b"R2", MODULUS)
        if math.gcd(value, MODULUS) != 1:
            return
        blinded = f.blind(user, value)
        blinded_inv = pow(blinded, -1, MODULUS)
        recovered = f.unblind_inverse(user, blinded_inv)
        assert recovered == pow(value, -1, MODULUS)

    def test_blinded_sum_factors(self):
        """sum_s r_u * n_su == r_u * N_u mod n."""
        f = BlindingFactory(b"R3", MODULUS)
        counts = [3, 8, 11]
        blinded_sum = sum(f.blind(7, c) for c in counts) % MODULUS
        assert blinded_sum == f.blind(7, sum(counts))

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            BlindingFactory(b"x", 1)


class TestEncoding:
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=100)
    def test_scalar_roundtrip(self, x):
        p = 1e-8
        enc = encode_scalar(x, p, MODULUS)
        dec = decode_scalar(enc, p, 1, MODULUS)
        # p/2 quantisation error plus float64 rounding of x/p for large x.
        assert abs(dec - x) <= p / 2 + abs(x) * 1e-12

    def test_negative_maps_to_upper_half(self):
        enc = encode_scalar(-1.0, 1e-3, MODULUS)
        assert enc > MODULUS // 2

    def test_vector_roundtrip(self):
        v = np.array([0.5, -0.25, 1e-5, -3.125])
        enc = encode_vector(v, 1e-10, MODULUS)
        dec = decode_vector(enc, 1e-10, 1, MODULUS)
        np.testing.assert_allclose(dec, v, atol=1e-10)

    def test_clcm_factor_removed_on_decode(self):
        c_lcm = lcm_up_to(12)
        x = 0.75
        enc = encode_scalar(x, 1e-9, MODULUS) * c_lcm % MODULUS
        dec = decode_scalar(enc, 1e-9, c_lcm, MODULUS)
        assert abs(dec - x) < 1e-8

    def test_weighted_division_is_exact(self):
        """n_su * C_LCM / N_u stays integral when N_u <= N_max (Theorem 4)."""
        n_max = 20
        c_lcm = lcm_up_to(n_max)
        for n_u in range(1, n_max + 1):
            assert c_lcm % n_u == 0

    def test_encode_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            encode_scalar(1.0, 0.0, MODULUS)


class TestLcm:
    def test_lcm_up_to_small(self):
        assert lcm_up_to(1) == 1
        assert lcm_up_to(6) == 60
        assert lcm_up_to(10) == 2520

    def test_lcm_growth_is_fast(self):
        # The paper notes C_LCM grows ~ e^N_max; check it exceeds 2^N for
        # moderate N (motivation for restricting admissible counts).
        assert lcm_up_to(40) > 2**40
        # Exponential: the bit length roughly doubles when N_max doubles.
        assert lcm_up_to(80).bit_length() > 1.7 * lcm_up_to(40).bit_length()

    def test_lcm_of_counts_restricted(self):
        # Paper's suggestion: restrict counts to powers of ten.
        assert lcm_of_counts([10, 100, 1000, 10000]) == 10000

    def test_lcm_of_counts_rejects_empty(self):
        with pytest.raises(ValueError):
            lcm_of_counts([0, -3])

    def test_lcm_up_to_rejects_zero(self):
        with pytest.raises(ValueError):
            lcm_up_to(0)


class TestMagnitudeBudget:
    def test_reasonable_parameters_fit(self):
        # 512-bit modulus, small model, restricted counts.
        modulus = 2**512
        c_lcm = lcm_of_counts([10, 100, 1000])
        assert check_magnitude_budget(modulus, c_lcm, 1e-10, 1e3, num_terms=10_000)

    def test_huge_clcm_overflows(self):
        modulus = 2**128
        c_lcm = lcm_up_to(100)  # astronomically large
        assert not check_magnitude_budget(modulus, c_lcm, 1e-10, 1e3, num_terms=10)

"""Boundary coverage for the fixed-point magnitude budget (Theorem 4) and
vector encode/decode consistency with the scalar forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.encoding import (
    MagnitudeBudgetError,
    check_magnitude_budget,
    decode_scalar,
    decode_vector,
    encode_scalar,
    encode_vector,
    lcm_up_to,
    quantize_vector,
    require_magnitude_headroom,
    round_max_abs,
)


class TestCheckMagnitudeBudget:
    MODULUS = 10_000_019  # arbitrary odd modulus; budget is modulus // 2

    def test_exact_half_budget_fails(self):
        # num_terms * max_encoded * c_lcm == modulus // 2 must be rejected:
        # the signed decoding needs strict inequality.
        modulus = 2 * 6 * 100 * 5 + 1  # modulus // 2 == 6 * 100 * 5
        assert math.ceil(9.9 / 0.1) + 1 == 100
        assert not check_magnitude_budget(
            modulus, c_lcm=5, precision=0.1, max_abs_value=9.9, num_terms=6
        )

    def test_one_below_half_budget_passes(self):
        modulus = 2 * 6 * 100 * 5 + 3  # modulus // 2 == budget + 1
        assert check_magnitude_budget(
            modulus, c_lcm=5, precision=0.1, max_abs_value=9.9, num_terms=6
        )

    def test_zero_terms_always_pass(self):
        assert check_magnitude_budget(
            self.MODULUS, c_lcm=10**6, precision=1e-12, max_abs_value=1e9, num_terms=0
        )

    def test_zero_magnitude_uses_safety_margin(self):
        # max_abs_value = 0 still costs ceil(0) + 1 = 1 per term.
        assert check_magnitude_budget(
            self.MODULUS, c_lcm=1, precision=1.0, max_abs_value=0.0,
            num_terms=self.MODULUS // 2 - 1,
        )
        assert not check_magnitude_budget(
            self.MODULUS, c_lcm=1, precision=1.0, max_abs_value=0.0,
            num_terms=self.MODULUS // 2,
        )


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_magnitude_never_fits(self, bad):
        """Not even with zero terms: there is no fixed-point encoding, and
        ``math.ceil`` would raise a bare ValueError / OverflowError."""
        for num_terms in (0, 1):
            assert not check_magnitude_budget(
                self.MODULUS, c_lcm=1, precision=1.0, max_abs_value=bad,
                num_terms=num_terms,
            )


class TestRoundMaxAbs:
    def test_largest_magnitude_over_deltas_and_noise(self):
        deltas = [{0: np.array([0.5, -3.0])}, {}, {1: np.array([1.0]), 4: np.array([-2.0])}]
        noises = [np.array([0.1]), np.array([-7.5]), np.array([])]
        assert round_max_abs(deltas, noises) == 7.5
        assert round_max_abs([{}, {}], []) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_refused_wherever_it_sits(self, bad):
        """Python's ``max`` ignores a NaN unless it comes first; the holder
        is found and named at any position."""
        deltas = [{0: np.array([9.0, 1.0])}, {3: np.array([1.0, bad])}]
        noises = [np.array([2.0]), np.array([2.0])]
        with pytest.raises(MagnitudeBudgetError, match="silo 1's delta of user 3"):
            round_max_abs(deltas, noises)
        with pytest.raises(MagnitudeBudgetError, match="silo 5's noise"):
            round_max_abs([{}, {}], [np.array([1.0]), np.array([1.0, bad])], noise_silos=[2, 5])


class TestRequireMagnitudeHeadroom:
    """The constructor-time refusal is a *necessary* condition of the
    per-round check: it may never refuse what some round would accept."""

    @given(
        n_max=st.integers(1, 120),
        bits=st.integers(64, 256),
        shrink=st.integers(0, 2**40),
        max_abs=st.floats(1.0, 1e6),
        extra_terms=st.integers(0, 1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_stricter_than_a_round_check(
        self, n_max, bits, shrink, max_abs, extra_terms
    ):
        modulus = (1 << bits) - shrink  # any n the key size allows
        round_ok = check_magnitude_budget(
            modulus, lcm_up_to(n_max), 1e-10, max_abs, 8 + extra_terms
        )
        try:
            require_magnitude_headroom(n_max, "paillier_bits", bits, 1e-10, 1.0, 8)
        except MagnitudeBudgetError:
            assert not round_ok

    def test_refusal_names_n_max_and_the_knob(self):
        with pytest.raises(MagnitudeBudgetError, match=r"n_max=64 .*mask_bits=64"):
            require_magnitude_headroom(64, "mask_bits", 64, 1e-10, 0.0, 4)
        require_magnitude_headroom(24, "mask_bits", 64, 1e-10, 0.0, 4)


class TestEncodingRoundTrip:
    MODULUS = (1 << 127) - 1
    PRECISION = 1e-6

    def test_negative_value_round_trip(self):
        for x in [-1.5, -1e-6, -123.456789, -0.0]:
            encoded = encode_scalar(x, self.PRECISION, self.MODULUS)
            assert 0 <= encoded < self.MODULUS
            decoded = decode_scalar(encoded, self.PRECISION, 1, self.MODULUS)
            assert decoded == pytest.approx(x, abs=self.PRECISION / 2)

    def test_negative_values_map_to_upper_half(self):
        encoded = encode_scalar(-1.0, self.PRECISION, self.MODULUS)
        assert encoded > self.MODULUS // 2

    def test_round_trip_with_c_lcm(self):
        c_lcm = 2520
        for x in [-3.25, 0.0, 7.125]:
            encoded = encode_scalar(x, self.PRECISION, self.MODULUS) * c_lcm % self.MODULUS
            decoded = decode_scalar(encoded, self.PRECISION, c_lcm, self.MODULUS)
            assert decoded == pytest.approx(x, abs=self.PRECISION)

    def test_vector_forms_match_scalar_forms(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.standard_normal(17) * 10, [-0.5, 0.0, 0.5]])
        encoded = encode_vector(values, self.PRECISION, self.MODULUS)
        assert encoded == [
            encode_scalar(float(v), self.PRECISION, self.MODULUS) for v in values
        ]
        decoded = decode_vector(encoded, self.PRECISION, 1, self.MODULUS)
        expected = np.array(
            [decode_scalar(e, self.PRECISION, 1, self.MODULUS) for e in encoded]
        )
        np.testing.assert_array_equal(decoded, expected)

    def test_encode_is_quantize_then_reduce(self):
        """One rounding for both consumers: the Paillier kernel takes the
        signed integers, everything else their residues."""
        values = [-2.5, -1.5, -0.4, 0.0, 0.5, 1.5, 3.25e6]
        signed = quantize_vector(values, 1.0)
        assert signed == [-2, -2, 0, 0, 0, 2, 3250000]  # round-half-even
        values = np.random.default_rng(2).standard_normal(32)
        signed = quantize_vector(values, self.PRECISION)
        assert all(isinstance(v, int) for v in signed)
        assert encode_vector(values, self.PRECISION, self.MODULUS) == [
            v % self.MODULUS for v in signed
        ]
        with pytest.raises(ValueError):
            quantize_vector([1.0], -1.0)

    def test_empty_vector(self):
        assert encode_vector([], self.PRECISION, self.MODULUS) == []
        decoded = decode_vector([], self.PRECISION, 1, self.MODULUS)
        assert decoded.shape == (0,) and decoded.dtype == np.float64

    def test_encode_vector_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            encode_vector([1.0], 0.0, self.MODULUS)

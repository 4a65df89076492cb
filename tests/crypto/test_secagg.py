"""Property tests for pairwise-mask secure aggregation (the masked backend).

Covers the tentpole correctness claims at the protocol layer: mask
cancellation under the full roster, exhaustive dropout-pattern recovery,
PRG/key domain separation, fixed-point round-trips at the field boundary,
and the server-view privacy smoke checks.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from toy_crypto import TOY_DH_GROUP

from repro.crypto.encoding import decode_scalar, encode_scalar
from repro.crypto.secagg import (
    MASK_STREAM_CONTEXT,
    MaskedAggregationProtocol,
    derive_round_key,
    encode_weighted_payload,
    weight_numerators,
)


def build_protocol(n_silos, seed=0, **kwargs):
    proto = MaskedAggregationProtocol(
        n_silos, seed=seed, group=TOY_DH_GROUP, **kwargs
    )
    proto.run_setup()
    return proto


def random_vectors(n_silos, d, seed=0, bound=10**9):
    rng = random.Random(seed)
    return [[rng.randrange(bound) for _ in range(d)] for _ in range(n_silos)]


class TestMaskCancellation:
    @pytest.mark.parametrize("n_silos", [1, 2, 3, 5])
    def test_full_roster_sum_is_plain_sum(self, n_silos):
        proto = build_protocol(n_silos, seed=n_silos)
        vectors = random_vectors(n_silos, 5, seed=n_silos)
        totals = proto.run_round(list(vectors))
        expect = [
            sum(v[k] for v in vectors) % proto.modulus for k in range(5)
        ]
        assert totals == expect

    def test_single_upload_is_masked(self):
        # The server must never see a silo's plain vector (n_silos >= 2).
        proto = build_protocol(3, seed=1)
        vectors = random_vectors(3, 6, seed=1)
        proto.run_round(list(vectors))
        uploads = proto.view.masked_vectors[0]
        for s, vec in enumerate(vectors):
            assert uploads[s] != [v % proto.modulus for v in vec]

    def test_rounds_use_independent_masks(self):
        proto = build_protocol(2, seed=2)
        vec = random_vectors(2, 4, seed=2)
        proto.run_round([list(v) for v in vec])
        proto.run_round([list(v) for v in vec])
        first, second = proto.view.masked_vectors
        assert first[0] != second[0]


class TestDropoutRecovery:
    def test_every_survivor_subset_matches_plain_sum(self):
        """Exhaustive |S| <= 4 enumeration: every non-empty survivor subset
        recovers exactly the field sum over survivors."""
        n_silos, d = 4, 5
        vectors = random_vectors(n_silos, d, seed=7)
        for r in range(1, n_silos + 1):
            for survivors in itertools.combinations(range(n_silos), r):
                proto = build_protocol(n_silos, seed=7)
                inputs = [
                    vectors[s] if s in survivors else None
                    for s in range(n_silos)
                ]
                totals = proto.run_round(inputs)
                expect = [
                    sum(vectors[s][k] for s in survivors) % proto.modulus
                    for k in range(d)
                ]
                assert totals == expect, f"survivors={survivors}"

    def test_recovery_after_full_rounds_keeps_round_keys_aligned(self):
        # Dropout in a later round must derive that round's keys, not round 0's.
        proto = build_protocol(3, seed=3)
        vectors = random_vectors(3, 4, seed=3)
        proto.run_round(list(vectors))
        totals = proto.run_round([vectors[0], None, vectors[2]])
        expect = [
            (vectors[0][k] + vectors[2][k]) % proto.modulus for k in range(4)
        ]
        assert totals == expect

    def test_reveals_are_scoped_to_dropped_peers(self):
        proto = build_protocol(4, seed=4)
        vectors = random_vectors(4, 3, seed=4)
        proto.run_round([vectors[0], None, vectors[2], vectors[3]])
        assert proto.view.reveals  # recovery happened
        for _round_no, survivor, revealed in proto.view.reveals:
            assert revealed == (1,)
            assert survivor != 1

    def test_revealed_key_is_not_the_pair_key(self):
        # Recovery hands over the one-way per-round derivation only.
        proto = build_protocol(2, seed=5)
        silo = proto.silos[0]
        revealed = silo.reveal_round_keys([1], round_no=0)
        assert revealed[1] != silo.pair_keys[1]
        assert revealed[1] != silo.reveal_round_keys([1], round_no=1)[1]

    def test_zero_survivors_rejected(self):
        proto = build_protocol(2, seed=6)
        with pytest.raises(ValueError):
            proto.run_round([None, None])


class TestDomainSeparation:
    def test_round_keys_differ_per_round_and_pair(self):
        key_a, key_b = b"k" * 32, b"q" * 32
        seen = {
            derive_round_key(key, r)
            for key in (key_a, key_b)
            for r in range(4)
        }
        assert len(seen) == 8

    def test_pair_key_context_distinct_from_protocol1(self):
        # The masked backend must not share key material with Protocol 1's
        # "secure-agg" masks derived from the same DH secret.
        from repro.crypto.dh import derive_shared_key
        from repro.crypto.secagg import PAIR_KEY_CONTEXT

        assert PAIR_KEY_CONTEXT != "secure-agg"
        assert derive_shared_key(12345, PAIR_KEY_CONTEXT) != derive_shared_key(
            12345, "secure-agg"
        )

    def test_mask_stream_context_is_stable(self):
        # The recovery stream must expand the exact label silos mask with;
        # renaming one side silently breaks dropout recovery.
        assert MASK_STREAM_CONTEXT == "masked-delta"


class TestFixedPointBoundaries:
    @pytest.mark.parametrize("mask_bits", [64, 128])
    def test_signed_decode_at_field_edges(self, mask_bits):
        # The signed mapping on the wire: field elements strictly above
        # n//2 decode negative, n//2 itself decodes positive, n-1 is the
        # smallest negative step.  Asserted on raw field elements because
        # the boundary integers exceed float64's exact range.
        modulus = 1 << mask_bits
        precision = 1e-6
        half = modulus // 2
        assert decode_scalar(0, precision, 1, modulus) == 0.0
        assert decode_scalar(1, precision, 1, modulus) == precision
        assert decode_scalar(modulus - 1, precision, 1, modulus) == -precision
        assert decode_scalar(half, precision, 1, modulus) > 0
        assert decode_scalar(half + 1, precision, 1, modulus) < 0
        assert decode_scalar(half + 1, precision, 1, modulus) == pytest.approx(
            -decode_scalar(half - 1, precision, 1, modulus), rel=1e-12
        )

    def test_negative_values_wrap_to_upper_half(self):
        modulus = 1 << 64
        assert encode_scalar(-1e-6, 1e-6, modulus) == modulus - 1

    @given(st.integers(min_value=-(2**40), max_value=2**40))
    @settings(max_examples=100)
    def test_integer_grid_roundtrip_exact(self, scaled):
        modulus = 1 << 128
        precision = 1e-10
        x = scaled * precision
        decoded = decode_scalar(
            encode_scalar(x, precision, modulus), precision, 1, modulus
        )
        assert decoded == x

    def test_magnitude_guard_raises_on_overflow(self):
        # lcm(1..24) ~ 2^32: fits the 64-bit field on its own (the
        # constructor accepts it) but not times 100 terms of ~2^33.
        proto = build_protocol(2, seed=8, mask_bits=64, n_max=24)
        with pytest.raises(ValueError, match="magnitude budget"):
            proto.check_round_magnitude(max_abs_value=1.0, num_terms=100)

    def test_hopeless_n_max_is_refused_at_construction(self):
        # lcm(1..64) ~ 2^89 cannot fit a 64-bit field whatever the round
        # holds: refused before any key is made, naming n_max and the knob.
        with pytest.raises(ValueError, match=r"n_max=64 .* mask_bits=64"):
            MaskedAggregationProtocol(2, mask_bits=64, n_max=64, group=TOY_DH_GROUP)


class TestWeightedEncoding:
    def test_numerators_exact_for_proportional_weights(self):
        hist = np.array([[2, 0, 5], [1, 3, 0], [0, 1, 2]])
        totals = hist.sum(axis=0)
        weights = hist / totals
        c_lcm = 2520  # lcm(1..9)
        nums = weight_numerators(weights, hist, c_lcm)
        for s in range(3):
            for u in range(3):
                assert nums[s, u] == hist[s, u] * (c_lcm // totals[u])

    def test_numerators_round_for_renormed_weights(self):
        hist = np.array([[2], [2]])
        weights = np.array([[0.7], [0.3]])  # not n_su / N_u
        nums = weight_numerators(weights, hist, 840)
        assert nums[0, 0] == round(0.7 * 840)
        assert nums[1, 0] == round(0.3 * 840)

    def test_payload_decodes_to_weighted_sum(self):
        proto = build_protocol(1, seed=9, n_max=4)
        rng = np.random.default_rng(0)
        deltas = {0: rng.standard_normal(6), 1: rng.standard_normal(6)}
        noise = rng.standard_normal(6) * 0.1
        nums = {0: proto.c_lcm // 2, 1: proto.c_lcm // 4}
        payload = encode_weighted_payload(
            deltas, nums, noise, proto.precision, proto.c_lcm, proto.modulus
        )
        decoded = proto.decode_aggregate(payload)
        expect = 0.5 * deltas[0] + 0.25 * deltas[1] + noise
        np.testing.assert_allclose(decoded, expect, atol=1e-9)


class TestProtocolState:
    def test_state_roundtrip_resumes_mask_schedule(self):
        vectors = random_vectors(2, 3, seed=10)
        reference = build_protocol(2, seed=10)
        reference.run_round([list(v) for v in vectors])
        expected = reference.run_round([list(v) for v in vectors])

        first = build_protocol(2, seed=10)
        first.run_round([list(v) for v in vectors])
        resumed = build_protocol(2, seed=10)
        resumed.load_state(first.state_dict())
        assert resumed.round_no == 1
        assert resumed.run_round([list(v) for v in vectors]) == expected
        # And the round-1 uploads (not just the cancelled totals) match.
        assert reference.view.masked_vectors[1] == resumed.view.masked_vectors[0]

    def test_setup_required_before_rounds(self):
        proto = MaskedAggregationProtocol(2, seed=0, group=TOY_DH_GROUP)
        with pytest.raises(RuntimeError):
            proto.run_round([[1], [2]])

    def test_timer_has_phases(self):
        proto = build_protocol(3, seed=11)
        proto.run_round([[1, 2], None, [5, 6]])
        report = proto.timer.report()
        for phase in ("keygen", "key_exchange", "mask_and_upload",
                      "aggregate", "dropout_recovery"):
            assert phase in report

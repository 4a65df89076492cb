"""Property tests for pairwise-mask secure aggregation (the masked backend).

Covers the tentpole correctness claims at the protocol layer: mask
cancellation under the full roster, exhaustive dropout-pattern recovery,
PRG/key domain separation, fixed-point round-trips at the field boundary,
the survivor quorum, and the server-view privacy smoke checks.  Most tests
give the silos no user rows, so each silo's plaintext field vector is its
encoded noise (:func:`field_vectors`).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_reference import decode_scalar, encode_scalar
from toy_crypto import TOY_DH_GROUP

from repro.core.weighting import QuorumError
from repro.net.wire import blob_ints
from repro.crypto.secagg import (
    MASK_STREAM_CONTEXT,
    MaskedAggregationProtocol,
    derive_round_key,
    encode_weighted_payload,
    weight_numerators,
)


def build_protocol(n_silos, seed=0, hist=None, **kwargs):
    hist = np.ones((n_silos, 1), dtype=int) if hist is None else hist
    proto = MaskedAggregationProtocol(hist, seed=seed, dh_group=TOY_DH_GROUP, **kwargs)
    proto.run_setup()
    return proto


def run_round(proto, noises):
    """One round of silos holding no user rows (None = dropped); returns
    the field sum the server holds."""
    proto.run_round([{} for _ in noises], noises)
    return list(proto.server.totals)


def field_vectors(proto, noises):
    """Each silo's plaintext field vector in :func:`run_round`: its noise,
    encoded and scaled by C_LCM."""
    return [
        None if z is None else encode_weighted_payload(
            {}, {}, z, proto.precision, proto.c_lcm, proto.modulus)
        for z in noises
    ]


def uploads(proto, round_no):
    """Silo id -> the masked vector the server received in round ``round_no``."""
    return {
        f.payload["silo"]: blob_ints(f.arrays["vector"])
        for f in proto.received("masked_vector")
        if f.payload["round"] == round_no
    }


def reveals(proto):
    """(round_no, survivor, dropped ids revealed) per reveal received."""
    return [
        (f.payload["round"], f.payload["silo"], tuple(sorted(f.payload["peers"])))
        for f in proto.received("reveal")
    ]


def random_noises(n_silos, d, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(d) for _ in range(n_silos)]


class TestMaskCancellation:
    @pytest.mark.parametrize("n_silos", [1, 2, 3, 5])
    def test_full_roster_sum_is_plain_sum(self, n_silos):
        proto = build_protocol(n_silos, seed=n_silos)
        noises = random_noises(n_silos, 5, seed=n_silos)
        vectors = field_vectors(proto, noises)
        totals = run_round(proto, noises)
        expect = [
            sum(v[k] for v in vectors) % proto.modulus for k in range(5)
        ]
        assert totals == expect

    def test_single_upload_is_masked(self):
        # The server must never see a silo's plain vector (n_silos >= 2).
        proto = build_protocol(3, seed=1)
        noises = random_noises(3, 6, seed=1)
        run_round(proto, noises)
        received = uploads(proto, 0)
        for s, vec in enumerate(field_vectors(proto, noises)):
            assert received[s] != [v % proto.modulus for v in vec]

    def test_rounds_use_independent_masks(self):
        proto = build_protocol(2, seed=2)
        noises = random_noises(2, 4, seed=2)
        run_round(proto, noises)
        first = uploads(proto, 0)  # the next round drops this one's frames
        run_round(proto, noises)
        second = uploads(proto, 1)
        assert first[0] != second[0]


class TestDropoutRecovery:
    def test_every_survivor_subset_matches_plain_sum(self):
        """Exhaustive |S| <= 4 enumeration: every non-empty survivor subset
        recovers exactly the field sum over survivors."""
        n_silos, d = 4, 5
        noises = random_noises(n_silos, d, seed=7)
        for r in range(1, n_silos + 1):
            for survivors in itertools.combinations(range(n_silos), r):
                proto = build_protocol(n_silos, seed=7)
                vectors = field_vectors(proto, noises)
                inputs = [
                    noises[s] if s in survivors else None
                    for s in range(n_silos)
                ]
                totals = run_round(proto, inputs)
                expect = [
                    sum(vectors[s][k] for s in survivors) % proto.modulus
                    for k in range(d)
                ]
                assert totals == expect, f"survivors={survivors}"

    def test_recovery_after_full_rounds_keeps_round_keys_aligned(self):
        # Dropout in a later round must derive that round's keys, not round 0's.
        proto = build_protocol(3, seed=3)
        noises = random_noises(3, 4, seed=3)
        vectors = field_vectors(proto, noises)
        run_round(proto, noises)
        totals = run_round(proto, [noises[0], None, noises[2]])
        expect = [
            (vectors[0][k] + vectors[2][k]) % proto.modulus for k in range(4)
        ]
        assert totals == expect

    def test_reveals_are_scoped_to_dropped_peers(self):
        proto = build_protocol(4, seed=4)
        noises = random_noises(4, 3, seed=4)
        run_round(proto, [noises[0], None, noises[2], noises[3]])
        assert reveals(proto)  # recovery happened
        for _round_no, survivor, revealed in reveals(proto):
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
            run_round(proto, [None, None])


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
            MaskedAggregationProtocol(
                np.ones((2, 1)), mask_bits=64, n_max=64, dh_group=TOY_DH_GROUP)


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
        noises = random_noises(2, 3, seed=10)
        reference = build_protocol(2, seed=10)
        run_round(reference, noises)
        expected = run_round(reference, noises)

        first = build_protocol(2, seed=10)
        run_round(first, noises)
        resumed = build_protocol(2, seed=10)
        resumed.load_state(first.state_dict())
        assert resumed.round_no == 1
        assert run_round(resumed, noises) == expected
        # And the round-1 uploads (not just the cancelled totals) match.
        assert uploads(reference, 1) == uploads(resumed, 1)

    def test_setup_required_before_rounds(self):
        proto = MaskedAggregationProtocol(np.ones((2, 1)), seed=0, dh_group=TOY_DH_GROUP)
        with pytest.raises(RuntimeError):
            run_round(proto, [np.ones(1), np.ones(1)])

    def test_timer_has_phases(self):
        proto = build_protocol(3, seed=11)
        run_round(proto, [np.ones(2), None, np.ones(2)])
        report = proto.report()
        for phase in ("keygen", "key_exchange", "mask_and_upload",
                      "aggregate", "dropout_recovery"):
            assert phase in report


HIST4 = np.array([[2, 0, 1], [1, 3, 0], [0, 1, 2], [1, 0, 1]])


class TestSurvivorQuorumProperty:
    """Random deltas, any survivor subset: at least ``min_survivors`` gives
    the plaintext weighted sum over the survivors within the encoding
    precision; fewer is refused before the round counter or the frame log
    moves."""

    @given(
        values=st.lists(st.floats(-1, 1), min_size=24, max_size=24),
        survivors=st.sets(st.integers(0, 3), min_size=1),
        min_survivors=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_quorum_gates_an_exact_aggregate(self, values, survivors, min_survivors):
        proto = build_protocol(4, seed=12, hist=HIST4, min_survivors=min_survivors)
        pairs = iter(np.array(values).reshape(12, 2))
        deltas = [{int(u): next(pairs) for u in np.flatnonzero(row)} for row in HIST4]
        noises = [next(pairs) for _ in HIST4]
        inputs = [deltas[s] if s in survivors else {} for s in range(4)]
        live = [noises[s] if s in survivors else None for s in range(4)]
        if len(survivors) < min_survivors:
            log = list(proto.log)
            with pytest.raises(QuorumError, match="below min_survivors"):
                proto.run_round(inputs, live)
            assert proto.round_no == 0
            assert len(proto.log) == len(log)
            assert all(a is b for a, b in zip(proto.log, log))
            return
        aggregate = proto.run_round(inputs, live)
        totals = HIST4.sum(axis=0)
        expect = sum(
            sum((HIST4[s, u] / totals[u]) * delta for u, delta in deltas[s].items())
            + noises[s]
            for s in survivors
        )
        tolerance = proto.n_silos * (proto.n_users + 1) * proto.precision
        assert np.max(np.abs(aggregate - expect)) <= tolerance
        assert proto.round_no == 1

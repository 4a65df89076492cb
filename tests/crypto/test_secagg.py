"""Property tests for pairwise-mask secure aggregation (the masked backend).

Covers the tentpole correctness claims at the protocol layer: mask
cancellation under the full roster, exhaustive dropout-pattern recovery,
XOF/key domain separation, fixed-point round-trips at the ring's edges,
the 64-bit headroom, the survivor quorum, and the server-view privacy
smoke checks.  Each silo hands the protocol one release; its plaintext
upload is :func:`~repro.crypto.secagg.encode_release` of it
(:func:`encodings`).
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_reference import decode_scalar, encode_scalar
from toy_crypto import TOY_DH_GROUP

from repro.core.weighting import QuorumError
from repro.crypto.encoding import MagnitudeBudgetError
from repro.crypto.secagg import (
    MASK_STREAM_CONTEXT,
    MaskedAggregationProtocol,
    derive_round_key,
    encode_release,
    mask_stream,
)


def build_protocol(n_silos, seed=0, **kwargs):
    proto = MaskedAggregationProtocol(n_silos, seed=seed, dh_group=TOY_DH_GROUP, **kwargs)
    proto.run_setup()
    return proto


def run_round(proto, releases):
    """One round (None = dropped); returns the uint64 sum the server holds."""
    proto.run_round(releases)
    return proto.server.totals.copy()


def encodings(proto, releases):
    """Each silo's unmasked upload in :func:`run_round`."""
    return [None if r is None else encode_release(r, proto.precision) for r in releases]


def uploads(proto, round_no):
    """Silo id -> the masked vector the server received in round ``round_no``."""
    return {
        f.payload["silo"]: f.arrays["vector"]
        for f in proto.received("masked_vector")
        if f.payload["round"] == round_no
    }


def reveals(proto):
    """(round_no, survivor, dropped ids revealed) per reveal received."""
    return [
        (f.payload["round"], f.payload["silo"], tuple(sorted(f.payload["peers"])))
        for f in proto.received("reveal")
    ]


def random_releases(n_silos, d, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(d).astype(np.float32) for _ in range(n_silos)]


def fixed_point_sum(releases, precision):
    """``P * sum_s rint(release_s / P)``: an int64 sum, one float64 scaling."""
    total = sum(np.rint(r.astype(np.float64) / precision).astype(np.int64) for r in releases)
    return total * precision


class TestMaskCancellation:
    @pytest.mark.parametrize("n_silos", [1, 2, 3, 5])
    def test_full_roster_sum_is_plain_sum(self, n_silos):
        proto = build_protocol(n_silos, seed=n_silos)
        releases = random_releases(n_silos, 5, seed=n_silos)
        expect = np.sum(encodings(proto, releases), axis=0, dtype=np.uint64)
        assert np.array_equal(run_round(proto, releases), expect)

    def test_single_upload_is_masked(self):
        # The server must never see a silo's plain vector (n_silos >= 2).
        proto = build_protocol(3, seed=1)
        releases = random_releases(3, 6, seed=1)
        run_round(proto, releases)
        received = uploads(proto, 0)
        for s, vec in enumerate(encodings(proto, releases)):
            assert received[s].dtype == np.uint64
            assert not np.array_equal(received[s], vec)

    def test_rounds_use_independent_masks(self):
        proto = build_protocol(2, seed=2)
        releases = random_releases(2, 4, seed=2)
        run_round(proto, releases)
        first = uploads(proto, 0)  # the next round drops this one's frames
        run_round(proto, releases)
        second = uploads(proto, 1)
        assert not np.array_equal(first[0], second[0])


class TestDropoutRecovery:
    def test_every_survivor_subset_matches_plain_sum(self):
        """Exhaustive |S| <= 4 enumeration: every non-empty survivor
        subset recovers exactly the ring sum over survivors."""
        n_silos, d = 4, 5
        releases = random_releases(n_silos, d, seed=7)
        for r in range(1, n_silos + 1):
            for survivors in itertools.combinations(range(n_silos), r):
                proto = build_protocol(n_silos, seed=7)
                vectors = encodings(proto, releases)
                inputs = [releases[s] if s in survivors else None for s in range(n_silos)]
                totals = run_round(proto, inputs)
                expect = np.sum([vectors[s] for s in survivors], axis=0, dtype=np.uint64)
                assert np.array_equal(totals, expect), f"survivors={survivors}"

    def test_recovery_after_full_rounds_keeps_round_keys_aligned(self):
        # Dropout in a later round must derive that round's keys, not round 0's.
        proto = build_protocol(3, seed=3)
        releases = random_releases(3, 4, seed=3)
        vectors = encodings(proto, releases)
        run_round(proto, releases)
        totals = run_round(proto, [releases[0], None, releases[2]])
        assert np.array_equal(totals, vectors[0] + vectors[2])

    def test_reveals_are_scoped_to_dropped_peers(self):
        proto = build_protocol(4, seed=4)
        releases = random_releases(4, 3, seed=4)
        run_round(proto, [releases[0], None, releases[2], releases[3]])
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

    def test_mask_stream_is_one_xof_call(self):
        key = derive_round_key(b"k" * 32, 3)
        raw = hashlib.shake_256(key + b"masked-delta").digest(8 * 5)
        stream = mask_stream(key, 5)
        assert stream.dtype == np.uint64
        assert stream.tolist() == [int.from_bytes(raw[i:i + 8], "little") for i in range(0, 40, 8)]
        assert np.array_equal(mask_stream(key, 9)[:5], stream)  # a prefix of the longer one
        assert not np.array_equal(mask_stream(derive_round_key(b"k" * 32, 4), 5), stream)


class TestFixedPointBoundaries:
    @pytest.mark.parametrize("bits", [64, 128])
    def test_signed_decode_at_field_edges(self, bits):
        # The signed mapping on the wire: field elements strictly above
        # n//2 decode negative, n//2 itself decodes positive, n-1 is the
        # smallest negative step.  Asserted on raw field elements because
        # the boundary integers exceed float64's exact range.
        modulus = 1 << bits
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
        assert encode_release(np.float32([-1e-6, 0, 1e-6]), 1e-6).tolist() == [
            modulus - 1, 0, 1]

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

    def test_sum_at_the_int64_edge_decodes_exactly(self):
        # Two releases of +-2^61 at P = 1 sum to +-2^62: inside the signed
        # range, so the wrapped uint64 total reads back exactly.
        proto = build_protocol(2, seed=8, precision=1.0)
        edge = np.float32([2.0**61, -(2.0**61)])
        assert proto.run_round([edge, edge]).tolist() == [2.0**62, -(2.0**62)]

    def test_headroom_guard_refuses_before_any_state_moves(self):
        # Two releases of 2^62 at P = 1 could reach 2^63: no int64 holds it.
        proto = build_protocol(2, seed=8, precision=1.0)
        log = list(proto.log)
        with pytest.raises(MagnitudeBudgetError, match="64-bit ring"):
            proto.run_round([np.float32([2.0**62]), np.float32([1.0])])
        assert proto.round_no == 0 and len(proto.log) == len(log)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_release_is_refused_naming_the_silo(self, bad):
        proto = build_protocol(3, seed=9)
        releases = random_releases(3, 4, seed=9)
        releases[2][1] = bad
        with pytest.raises(MagnitudeBudgetError, match="silo 2's release"):
            proto.run_round([None, releases[1], releases[2]])
        assert proto.round_no == 0


class TestProtocolState:
    def test_state_roundtrip_resumes_mask_schedule(self):
        releases = random_releases(2, 3, seed=10)
        reference = build_protocol(2, seed=10)
        run_round(reference, releases)
        expected = run_round(reference, releases)

        first = build_protocol(2, seed=10)
        run_round(first, releases)
        resumed = build_protocol(2, seed=10)
        resumed.load_state(first.state_dict())
        assert resumed.round_no == 1
        assert np.array_equal(run_round(resumed, releases), expected)
        # And the round-1 uploads (not just the cancelled totals) match.
        for s, vector in uploads(reference, 1).items():
            assert np.array_equal(uploads(resumed, 1)[s], vector)

    def test_setup_required_before_rounds(self):
        proto = MaskedAggregationProtocol(2, seed=0, dh_group=TOY_DH_GROUP)
        with pytest.raises(RuntimeError):
            run_round(proto, [np.ones(1), np.ones(1)])

    def test_timer_has_phases(self):
        proto = build_protocol(3, seed=11)
        run_round(proto, [np.ones(2), None, np.ones(2)])
        report = proto.report()
        for phase in ("keygen", "key_exchange", "mask_and_upload",
                      "aggregate", "dropout_recovery"):
            assert phase in report


class TestSurvivorQuorumProperty:
    """Random releases, any survivor subset: at least ``min_survivors``
    gives the survivors' fixed-point sum; fewer is refused before the
    round counter or the frame log moves."""

    @given(
        values=st.lists(st.floats(-1, 1, width=32), min_size=8, max_size=8),
        survivors=st.sets(st.integers(0, 3), min_size=1),
        min_survivors=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_quorum_gates_an_exact_aggregate(self, values, survivors, min_survivors):
        proto = build_protocol(4, seed=12, min_survivors=min_survivors)
        releases = list(np.float32(values).reshape(4, 2))
        live = [releases[s] if s in survivors else None for s in range(4)]
        if len(survivors) < min_survivors:
            log = list(proto.log)
            with pytest.raises(QuorumError, match="below min_survivors"):
                proto.run_round(live)
            assert proto.round_no == 0
            assert len(proto.log) == len(log)
            assert all(a is b for a, b in zip(proto.log, log))
            return
        aggregate = proto.run_round(live)
        expect = fixed_point_sum([releases[s] for s in sorted(survivors)], proto.precision)
        assert np.array_equal(aggregate, expect)
        assert proto.round_no == 1


@st.composite
def masked_rounds(draw):
    """|S| in 2..6 finite float32 releases of one length, a ``min_survivors``
    and a survivor subset that meets it."""
    n_silos = draw(st.integers(2, 6))
    dim = draw(st.integers(1, 6))
    value = st.floats(-1e6, 1e6, width=32, allow_nan=False)
    releases = [np.float32(draw(st.lists(value, min_size=dim, max_size=dim)))
                for _ in range(n_silos)]
    min_survivors = draw(st.integers(1, n_silos))
    survivors = draw(st.sets(st.integers(0, n_silos - 1), min_size=min_survivors))
    return releases, min_survivors, sorted(survivors)


class TestMaskedReleaseProperty:
    """The carrier end to end: whatever the releases and whichever
    survivors upload, the decoded aggregate is the survivors' fixed-point
    sum bit for bit, and no upload is the silo's unmasked encoding."""

    @given(masked_rounds())
    @settings(deadline=None)
    def test_decoded_aggregate_is_the_fixed_point_sum(self, case):
        releases, min_survivors, survivors = case
        n_silos = len(releases)
        proto = build_protocol(n_silos, seed=n_silos, min_survivors=min_survivors)
        live = [releases[s] if s in survivors else None for s in range(n_silos)]
        aggregate = proto.run_round(live)
        assert aggregate.dtype == np.float64
        assert np.array_equal(
            aggregate, fixed_point_sum([releases[s] for s in survivors], proto.precision))
        received = uploads(proto, 0)
        assert sorted(received) == survivors
        for s in survivors:
            assert not np.array_equal(received[s], encode_release(releases[s], proto.precision))

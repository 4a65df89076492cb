"""Failure-injection tests: what breaks when protocol assumptions break.

The paper's trust model requires all silos to participate in every round
(secure-aggregation masks only cancel over the full set) and semi-honest
behaviour.  These tests verify the implementation *fails loudly or
detectably* rather than silently producing wrong results when those
assumptions are violated.
"""

import numpy as np
import pytest
from oracle_reference import plaintext_reference
from toy_crypto import TOY_DH_GROUP

from repro.core import Trainer
from repro.core.weighting import RoundParticipation
from repro.crypto.encoding import MagnitudeBudgetError
from repro.crypto.masking import PairwiseMasker
from repro.crypto.paillier import PaillierCiphertext
from repro.crypto.secagg import MaskedAggregationProtocol
from repro.data import build_creditcard_benchmark
from repro.nn.model import build_tiny_mlp
from repro.protocol import PrivateWeightingProtocol, SecureUldpAvg
from repro.protocol.oblivious import PrivateSubsampler
from repro.protocol.parties import run_weighted_delta_kernel

HIST = np.array([
    [3, 0, 2],
    [1, 4, 1],
    [2, 1, 1],
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


class TestSiloDropout:
    def test_missing_silo_corrupts_aggregate(self):
        """Dropping one silo's ciphertexts leaves uncancelled masks: the
        decrypted aggregate is garbage (enormous), not a plausible value --
        dropout is detectable, matching the all-rounds participation
        assumption."""
        proto = make_protocol()
        deltas, noises = make_inputs(proto)
        enc_inverses = proto.server.encrypted_inverses()
        pk = proto.server.public_key
        vectors = []
        for s, silo in enumerate(proto.silos):
            task = silo.weighted_delta_task(
                enc_inverses, deltas[s], noises[s], round_no=0,
                precision=proto.precision,
            )
            vectors.append(
                [PaillierCiphertext(v, pk) for v in run_weighted_delta_kernel(task)]
            )
        # Server aggregates only two of three silos.
        partial = proto.server.aggregate_and_decrypt(
            vectors[:2], proto.precision, proto.c_lcm
        )
        reference = plaintext_reference(proto, deltas, noises)
        # The result is wildly off (uncancelled ~n-sized masks decode to
        # astronomically large magnitudes), never a near-miss.
        assert np.max(np.abs(partial - reference)) > 1e6

    def test_full_participation_recovers(self):
        proto = make_protocol()
        deltas, noises = make_inputs(proto)
        out = proto.run_round(deltas, noises)
        ref = plaintext_reference(proto, deltas, noises)
        assert np.max(np.abs(out - ref)) < 1e-6


class TestMaskMisuse:
    def test_context_reuse_breaks_cancellation(self):
        """Masks are bound to (step, round) contexts; reusing a context
        across different value vectors double-counts masks."""
        keys = {1: b"k" * 32}
        a = PairwiseMasker(0, keys, modulus=2**61 - 1)
        b = PairwiseMasker(1, {0: b"k" * 32}, modulus=2**61 - 1)
        m_a = a.mask_vector(3, context="round-0")
        m_b = b.mask_vector(3, context="round-1")  # wrong context
        total = [(x + y) % (2**61 - 1) for x, y in zip(m_a, m_b)]
        assert total != [0, 0, 0]

    def test_same_context_cancels(self):
        a = PairwiseMasker(0, {1: b"k" * 32}, modulus=2**61 - 1)
        b = PairwiseMasker(1, {0: b"k" * 32}, modulus=2**61 - 1)
        m_a = a.mask_vector(3, context="round-0")
        m_b = b.mask_vector(3, context="round-0")
        assert [(x + y) % (2**61 - 1) for x, y in zip(m_a, m_b)] == [0, 0, 0]


class TestHistogramTampering:
    def test_inconsistent_silo_histogram_shifts_weights_only(self):
        """A silo lying about its counts (semi-honest violation) changes
        weights but cannot break decryption -- quantifying the blast
        radius."""
        proto_honest = make_protocol(seed=3)
        deltas, noises = make_inputs(proto_honest)
        honest = proto_honest.run_round(deltas, noises)

        lying_hist = HIST.copy()
        lying_hist[0, 0] = 9  # silo 0 inflates its count for user 0
        proto_lying = PrivateWeightingProtocol(
            lying_hist, n_max=16, paillier_bits=256, seed=3,
            dh_group=TOY_DH_GROUP,
        )
        proto_lying.run_setup()
        lying = proto_lying.run_round(deltas, noises)

        # Both decode to finite, plausible aggregates...
        assert np.all(np.isfinite(lying))
        # ...but user 0's effective weight moved (3/6 -> 9/12).
        assert not np.allclose(lying, honest, atol=1e-8)

    def test_user_exceeding_nmax_rejected_at_construction(self):
        bad = HIST.copy()
        bad[0, 0] = 100
        with pytest.raises(ValueError):
            PrivateWeightingProtocol(bad, n_max=16, paillier_bits=256, seed=0)


class TestEncodingOverflowInjection:
    def test_overflow_guard_triggers_before_corruption(self):
        proto = make_protocol()
        deltas, noises = make_inputs(proto)
        # Must breach n/2 after the 1/P fixed-point scaling and the C_LCM
        # factor: for a 256-bit modulus that needs ~1e65.
        deltas[0][0] = np.full(4, 1e65)
        with pytest.raises(ValueError, match="magnitude budget"):
            proto.run_round(deltas, noises)


class TestNonFiniteInputs:
    """A NaN or infinity has no fixed-point encoding.  Python's ``max``
    skips a NaN that is not first, so it used to slip past Theorem 4's
    guard and die later as a bare ``cannot convert float NaN to integer``
    (``inf``: ``OverflowError``); both backends now refuse it as a
    ``MagnitudeBudgetError`` that names who holds it."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_paillier_names_the_silo_and_user(self, bad):
        proto = make_protocol()
        deltas, noises = make_inputs(proto)
        deltas[1][2][3] = bad  # neither the first vector nor its first slot
        with pytest.raises(MagnitudeBudgetError, match="silo 1's delta of user 2"):
            proto.run_round(deltas, noises)
        assert proto.round_no == 0 and not proto.received("weighted_delta")

    def test_paillier_ot_round_names_the_noisy_silo(self):
        proto = make_protocol()
        deltas, noises = make_inputs(proto)
        noises[2][1] = np.nan
        sub = PrivateSubsampler(proto.silos[0].shared_seed, n_slots=2)
        with pytest.raises(MagnitudeBudgetError, match="silo 2's noise"):
            proto.run_round_ot_sampling(deltas, noises, sub)

    def test_masked_backend_names_the_silo_behind_a_dropped_one(self, monkeypatch):
        """Silo 0 is dropped, so silo 2's release is the *second* vector the
        round holds; the refusal must still say silo 2."""
        fed = build_creditcard_benchmark(
            n_users=6, n_silos=3, n_records=120, n_test=40, seed=0
        )
        method = SecureUldpAvg(
            crypto_backend="masked", dh_group=TOY_DH_GROUP, local_epochs=1,
            noise_multiplier=1.0, local_lr=0.1,
        )
        model = build_tiny_mlp(30, 2, 2, np.random.default_rng(42))
        trainer = Trainer(fed, method, rounds=1, model=model, seed=0)
        payloads = method._shard_payloads

        def poisoned(*args):
            released = payloads(*args)
            for s, _, release in released:
                if s == 2:
                    release[-1] = np.inf
            return released

        monkeypatch.setattr(method, "_shard_payloads", poisoned)
        mask = np.array([False, True, True])
        with pytest.raises(MagnitudeBudgetError, match="silo 2's release"):
            trainer.step(participation=RoundParticipation(silo_mask=mask))

    def test_masked_protocol_refuses_a_non_finite_magnitude(self):
        proto = MaskedAggregationProtocol(len(HIST), dh_group=TOY_DH_GROUP, seed=0)
        proto.run_setup()
        for bad in (np.nan, np.inf):
            with pytest.raises(MagnitudeBudgetError, match="silo 0's release"):
                proto.run_round([np.array([bad]), np.ones(1), np.ones(1)])
        assert proto.round_no == 0

"""Equivalence of the runtime Paillier protocol with its reference oracle.

The runtime (CRT decryption, the split-exponent weighting kernel, offline
randomizer pools, across-silo process parallelism) must be a pure
performance change: under a seeded RNG every silo ciphertext must decrypt
to the *same element of F_n* as the seed implementation's (which lives in
``tests/protocol/oracle_reference.py``), the shared RNG must be in the same
state after every round, and every aggregate and training history must be
bit-identical.  The ciphertexts themselves differ by an n-th residue
(``c^e`` vs ``c^(e mod n)``), so they are compared in plaintext, not in
bits; runtime-vs-runtime (process pool vs serial) stays ``==``.
"""

import random

import numpy as np
import pytest

from oracle_reference import (
    ReferencePrivateWeightingProtocol,
    ReferenceSecureUldpAvg,
    plaintext_reference,
)
from toy_crypto import TOY_DH_GROUP

from repro.core.weighting import proportional_weights, subsample_weights
from repro.crypto.fastexp import FixedBaseExp, choose_window, fixed_base_cost, worthwhile
from repro.crypto.paillier import PaillierCiphertext, PaillierCrt, generate_paillier_keypair
from repro.crypto.pool import RandomizerPool
from repro.net.wire import blob_ints
from repro.protocol import PrivateWeightingProtocol, SecureUldpAvg
from repro.protocol.oblivious import PrivateSubsampler
from repro.protocol.parties import ServerParty, SiloParty


@pytest.fixture(scope="module")
def crt_keypair():
    return generate_paillier_keypair(bits=256, rng=random.Random(0), with_crt=True)


@pytest.fixture(scope="module")
def plain_keypair():
    return generate_paillier_keypair(bits=256, rng=random.Random(0))


class TestPaillierCrt:
    def test_same_rng_gives_same_key_with_and_without_crt(self, crt_keypair, plain_keypair):
        assert crt_keypair.public_key == plain_keypair.public_key
        assert crt_keypair.private_key.lam == plain_keypair.private_key.lam
        assert crt_keypair.private_key.crt is not None
        assert plain_keypair.private_key.crt is None

    def test_crt_decrypt_matches_reference(self, crt_keypair, plain_keypair):
        pk = crt_keypair.public_key
        rng = random.Random(7)
        for m in [0, 1, pk.n - 1, pk.n // 2, pk.n // 2 + 1] + [
            rng.randrange(pk.n) for _ in range(20)
        ]:
            ct = pk.encrypt(m, rng=rng)
            assert crt_keypair.private_key.decrypt(ct) == m
            assert crt_keypair.private_key.decrypt(ct) == plain_keypair.private_key.decrypt(ct)

    def test_crt_decrypt_signed(self, crt_keypair):
        pk = crt_keypair.public_key
        rng = random.Random(3)
        for m in [-5, -1, 0, 1, 12345]:
            ct = pk.encrypt(m, rng=rng)
            assert crt_keypair.private_key.decrypt_signed(ct) == m

    def test_pow_to_n_matches_direct(self, crt_keypair):
        pk = crt_keypair.public_key
        crt = crt_keypair.private_key.crt
        rng = random.Random(11)
        for _ in range(10):
            r = rng.randrange(1, pk.n)
            assert crt.pow_to_n(r) == pow(r, pk.n, pk.n_squared)

    def test_rejects_equal_factors(self):
        with pytest.raises(ValueError):
            PaillierCrt.from_factors(17, 17)


class TestFixedBaseExp:
    MOD = 1000003 * 999983  # composite, like n^2

    def test_matches_builtin_pow(self):
        rng = random.Random(1)
        base = rng.randrange(2, self.MOD)
        fb = FixedBaseExp(base, self.MOD, exp_bits=64, window=5)
        for e in [0, 1, 2, 31, 32, (1 << 64) - 1] + [rng.randrange(1 << 64) for _ in range(50)]:
            assert fb.pow(e) == pow(base, e, self.MOD)

    def test_exponent_with_zero_digits(self):
        base = 12345
        fb = FixedBaseExp(base, self.MOD, exp_bits=40, window=8)
        # Exponents whose radix-256 digits are mostly zero exercise the
        # skip-empty-digit path.
        for e in [1 << 8, 1 << 16, 1 << 32, (1 << 32) + 255]:
            assert fb.pow(e) == pow(base, e, self.MOD)

    def test_rejects_out_of_range_exponents(self):
        fb = FixedBaseExp(7, self.MOD, exp_bits=16, window=4)
        with pytest.raises(ValueError):
            fb.pow(-1)
        with pytest.raises(ValueError):
            fb.pow(1 << 16)

    def test_auto_window_grows_with_batch_size(self):
        assert choose_window(512, 4) <= choose_window(512, 100000)

    def test_auto_window_respects_table_memory_cap(self):
        from repro.crypto.fastexp import MAX_TABLE_ENTRIES, _digits

        # Even an enormous batch at paper-scale exponents must not pick a
        # window whose table exceeds the entry cap (gigabytes of bigints).
        w = choose_window(3072, 10**6)
        assert _digits(3072, w) << w <= MAX_TABLE_ENTRIES

    def test_worthwhile_cost_model(self):
        # One exponentiation never amortises a table; a big batch does.
        assert not worthwhile(512, 1)
        assert worthwhile(512, 1024)
        # Cost model sanity: the table term scales with 2^w.
        assert fixed_base_cost(512, 9, 0) > fixed_base_cost(512, 2, 0)


class TestRandomizerPool:
    def test_pooled_encryption_is_bit_identical_to_reference(self, crt_keypair):
        pk = crt_keypair.public_key
        pool = RandomizerPool(pk, crt=crt_keypair.private_key.crt, rng=random.Random(5))
        pool.refill(8)
        reference_rng = random.Random(5)
        for m in range(8):
            expected = pk.encrypt(m, rng=reference_rng)
            assert pool.encrypt(m).value == expected.value

    def test_take_falls_back_to_on_demand_generation(self, crt_keypair):
        pk = crt_keypair.public_key
        pool = RandomizerPool(pk, rng=random.Random(9))
        assert len(pool) == 0
        value = pool.take()  # no refill: generated on demand
        expected_rng = random.Random(9)
        r = pk._random_unit(expected_rng)
        assert value == pow(r, pk.n, pk.n_squared)

    def test_pooled_ciphertexts_decrypt_correctly(self, crt_keypair):
        pool = RandomizerPool(
            crt_keypair.public_key, crt=crt_keypair.private_key.crt, rng=random.Random(2)
        )
        pool.refill(3)
        for m in [0, 17, 123456]:
            assert crt_keypair.private_key.decrypt(pool.encrypt(m)) == m

    def test_mismatched_crt_context_rejected(self, crt_keypair):
        other = generate_paillier_keypair(bits=256, rng=random.Random(42), with_crt=True)
        with pytest.raises(ValueError):
            RandomizerPool(crt_keypair.public_key, crt=other.private_key.crt)


HIST = [
    [3, 0, 2, 1],
    [1, 4, 0, 1],
    [2, 1, 1, 0],
]


PROTOCOLS = {
    "reference": ReferencePrivateWeightingProtocol,
    "fast": PrivateWeightingProtocol,
}
METHODS = {"reference": ReferenceSecureUldpAvg, "fast": SecureUldpAvg}


def make_protocol(backend, seed=0, workers=1):
    proto = PROTOCOLS[backend](
        np.asarray(HIST), n_max=16, paillier_bits=256, seed=seed, workers=workers,
        dh_group=TOY_DH_GROUP,
    )
    proto.run_setup()
    return proto


def round_inputs(proto, d=7, seed=1):
    rng = np.random.default_rng(seed)
    deltas, noises = [], []
    for s in range(proto.n_silos):
        per_user = {
            u: rng.standard_normal(d)
            for u in range(proto.n_users)
            if proto.histogram[s, u] > 0
        }
        deltas.append(per_user)
        noises.append(rng.standard_normal(d))
    return deltas, noises


def round_ciphertexts(proto):
    """Per round, per silo: the ciphertexts of the ``weighted_delta``
    frames the server received (the log keeps the latest round's)."""
    vectors = [blob_ints(f.arrays["delta"]) for f in proto.received("weighted_delta")]
    return [vectors[i : i + proto.n_silos] for i in range(0, len(vectors), proto.n_silos)]


def lockstep_rounds(ref, fast, run, rounds=1, d=7):
    """Run ``rounds`` rounds on both protocols and assert oracle
    equivalence at the level the runtime preserves: per round, silo and
    coordinate ``Dec(fast) == Dec(reference)`` as integers in F_n,
    ``np.array_equal`` aggregates, and an equal RNG state after every round
    (which pins the draw order that ciphertext equality used to imply).
    Returns the last round's ``(deltas, noises, aggregate)``.
    """
    assert ref.server.blinded_totals == fast.server.blinded_totals
    pk, sk = fast.server.public_key, fast.server.keypair.private_key
    assert pk == ref.server.public_key
    for r in range(rounds):
        deltas, noises = round_inputs(ref, d=d, seed=10 + r)
        deltas_f, noises_f = round_inputs(fast, d=d, seed=10 + r)
        agg_ref = run(ref, deltas, noises)
        agg_fast = run(fast, deltas_f, noises_f)
        assert np.array_equal(agg_ref, agg_fast)
        assert ref.rng.getstate() == fast.rng.getstate()
        ref_cts, fast_cts = round_ciphertexts(ref)[-1], round_ciphertexts(fast)[-1]
        assert len(ref_cts) == len(fast_cts) == ref.n_silos
        for ref_vec, fast_vec in zip(ref_cts, fast_cts):
            assert len(ref_vec) == len(fast_vec) == d
            for c_ref, c_fast in zip(ref_vec, fast_vec):
                assert sk.decrypt(PaillierCiphertext(c_fast, pk)) == sk.decrypt(
                    PaillierCiphertext(c_ref, pk)
                )
    return deltas, noises, agg_ref


class TestProtocolBackendEquivalence:
    def test_unknown_backend_rejected(self):
        """``crypto_backend`` survives on ``SecureUldpAvg`` alone (fast vs
        masked), validated at construction; the protocol and the parties
        have one implementation and no such parameter."""
        for name in ("reference", "quantum"):
            with pytest.raises(ValueError, match="crypto_backend"):
                SecureUldpAvg(crypto_backend=name)
        for build in (
            lambda **kw: PrivateWeightingProtocol(np.asarray(HIST), **kw),
            lambda **kw: SiloParty(0, np.asarray(HIST[0]), 16, TOY_DH_GROUP, **kw),
            lambda **kw: ServerParty(4, paillier_bits=256, **kw),
        ):
            with pytest.raises(TypeError, match="crypto_backend"):
                build(crypto_backend="fast")

    def test_run_round_bit_identical(self):
        ref, fast = make_protocol("reference"), make_protocol("fast")
        lockstep_rounds(ref, fast, lambda p, d, z: p.run_round(d, z))
        assert "offline_randomizers" in fast.report()

    def test_run_round_with_sampling_bit_identical(self):
        ref, fast = make_protocol("reference"), make_protocol("fast")
        weights = subsample_weights(proportional_weights(HIST), np.array([0, 2]))
        lockstep_rounds(ref, fast, lambda p, d, z: p.run_round(d, z, weights))

    def test_multiple_rounds_stay_in_lockstep(self):
        ref, fast = make_protocol("reference"), make_protocol("fast")
        lockstep_rounds(ref, fast, lambda p, d, z: p.run_round(d, z), rounds=3)

    @pytest.mark.parametrize("sampled", [None, np.array([0, 2])])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_process_pool_matches_serial(self, workers, sampled):
        # HIST's 3 silos x d = 7 units split into 2 or 3 flat chunks: the
        # offline powers' chunks straddle silo boundaries at workers=2.
        serial = make_protocol("fast", workers=1)
        pooled = make_protocol("fast", workers=workers)
        weights = None if sampled is None else subsample_weights(
            proportional_weights(HIST), sampled)
        try:
            for r in range(3):
                deltas, noises = round_inputs(serial, seed=10 + r)
                deltas_p, noises_p = round_inputs(pooled, seed=10 + r)
                agg_serial = serial.run_round(deltas, noises, weights)
                agg_pooled = pooled.run_round(deltas_p, noises_p, weights)
                assert round_ciphertexts(serial) == round_ciphertexts(pooled)
                assert np.array_equal(agg_serial, agg_pooled)
                assert serial.rng.getstate() == pooled.rng.getstate()
        finally:
            pooled.close()

    def test_process_pool_matches_oracle(self):
        ref, fast = make_protocol("reference"), make_protocol("fast", workers=2)
        try:
            lockstep_rounds(ref, fast, lambda p, d, z: p.run_round(d, z), rounds=2)
        finally:
            fast.close()

    def test_ot_round_enforces_magnitude_budget(self):
        proto = make_protocol("fast")
        sub = PrivateSubsampler(proto.silos[0].shared_seed, n_slots=2)
        deltas, noises = round_inputs(proto, d=4)
        deltas[0][0] = np.full(4, 1e65)  # breaches n/2 for a 256-bit modulus
        with pytest.raises(ValueError, match="magnitude budget"):
            proto.run_round_ot_sampling(deltas, noises, sub)

    def test_ot_sampling_round_bit_identical(self):
        ref, fast = make_protocol("reference"), make_protocol("fast")
        sub_ref = PrivateSubsampler(ref.silos[0].shared_seed, n_slots=2)
        assert ref.silos[0].shared_seed == fast.silos[0].shared_seed
        deltas, noises, agg_ref = lockstep_rounds(
            ref, fast, lambda p, d, z: p.run_round_ot_sampling(d, z, sub_ref)
        )
        sampled = np.array(sub_ref.sampled_users(ref.n_users, 0))
        expected = plaintext_reference(ref, deltas, noises, sampled_users=sampled)
        np.testing.assert_allclose(agg_ref, expected, atol=1e-6)

    def test_matches_plaintext_reference(self):
        fast = make_protocol("fast")
        deltas, noises = round_inputs(fast)
        agg = fast.run_round(deltas, noises)
        np.testing.assert_allclose(agg, plaintext_reference(fast, deltas, noises), atol=1e-6)


class TestSecureMethodBackendEquivalence:
    def test_training_history_identical(self):
        from repro.core import Trainer
        from repro.data import build_creditcard_benchmark
        from repro.nn.model import build_tiny_mlp

        fed = build_creditcard_benchmark(
            n_users=6, n_silos=3, n_records=120, n_test=40, seed=0
        )
        results = {}
        for backend in ("reference", "fast"):
            method = METHODS[backend](
                local_epochs=1, noise_multiplier=1.0, local_lr=0.1,
                paillier_bits=256, dh_group=TOY_DH_GROUP,
            )
            model = build_tiny_mlp(30, 2, 2, np.random.default_rng(42))
            trainer = Trainer(fed, method, rounds=2, model=model, seed=7)
            history = trainer.run()
            results[backend] = (model.get_flat_params(), history)
        ref_params, ref_hist = results["reference"]
        fast_params, fast_hist = results["fast"]
        np.testing.assert_array_equal(fast_params, ref_params)
        assert [r.metric for r in fast_hist.records] == [r.metric for r in ref_hist.records]
        assert [r.loss for r in fast_hist.records] == [r.loss for r in ref_hist.records]

"""Property and regression tests for Protocol 1's weighting kernel.

``run_weighted_delta_kernel`` splits each user's exponent into one
key-width power ``A_u = c_u^(f_u)`` and d short, *signed* fixed-point
powers ``A_u^(x_uj)`` (biased by ``2^B`` so a (B+1)-bit table answers
them).  Whatever the inputs, every output must decrypt to::

    sum_u  m_u * f_u * x_uj  +  additive_j      (mod n)

and no table the kernel builds may ever be key-width again -- that is the
regression the split removed, and ciphertext equality with the oracle no
longer catches it (the oracle is compared in plaintext now).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_reference import plaintext_reference
from toy_crypto import TOY_DH_GROUP

from repro.crypto.encoding import quantize_vector
from repro.crypto.fastexp import FixedBaseExp, worthwhile
from repro.crypto.paillier import PaillierCiphertext, generate_paillier_keypair
from repro.protocol import PrivateWeightingProtocol
from repro.protocol import parties
from repro.protocol.parties import run_weighted_delta_kernel

KEYPAIRS = {
    bits: generate_paillier_keypair(bits, rng=random.Random(bits), with_crt=True)
    for bits in (128, 256)
}


def make_task(keypair, users, additive, rng):
    """A kernel task from plaintexts: ``users`` is ``[(m_u, f_u, [x_uj])]``."""
    pk = keypair.public_key
    d = len(additive)
    return {
        "n": pk.n,
        "d": d,
        "zero_values": [pk.encrypt(0, rng=rng).value for _ in range(d)],
        "user_terms": [(pk.encrypt(m, rng=rng).value, f, list(xs)) for m, f, xs in users],
        "additive": list(additive),
    }


def expected_plaintexts(n, users, additive):
    return [
        (sum(m * f * xs[j] for m, f, xs in users) + a) % n
        for j, a in enumerate(additive)
    ]


def decrypt_all(keypair, values):
    pk, sk = keypair.public_key, keypair.private_key
    return [sk.decrypt(PaillierCiphertext(v, pk)) for v in values]


def assert_kernel_correct(keypair, users, additive, seed=0):
    task = make_task(keypair, users, additive, random.Random(seed))
    out = run_weighted_delta_kernel(task)
    assert decrypt_all(keypair, out) == expected_plaintexts(
        keypair.public_key.n, users, additive
    )
    return task, out


class TestKernelDecryptsToTheWeightedSum:
    @given(data=st.data(), bits=st.sampled_from([128, 256]))
    @settings(max_examples=40, deadline=None)
    def test_random_tasks(self, data, bits):
        keypair = KEYPAIRS[bits]
        n = keypair.public_key.n
        d = data.draw(st.integers(1, 12))
        magnitude = data.draw(st.sampled_from([1, 1 << 8, 1 << 38, n // 2 - 1]))
        field = st.integers(0, n - 1)
        users = data.draw(
            st.lists(
                st.tuples(
                    field,
                    field,
                    st.lists(st.integers(-magnitude, magnitude), min_size=d, max_size=d),
                ),
                max_size=4,
            )
        )
        additive = data.draw(st.lists(field, min_size=d, max_size=d))
        assert_kernel_correct(keypair, users, additive)

    @pytest.mark.parametrize("bits", [128, 256])
    @pytest.mark.parametrize("d", [1, 9])
    def test_budget_edge_magnitudes(self, bits, d):
        """``+/-(n/2 - 1)`` is the largest value Theorem 4's budget admits
        (one term, C_LCM = 1): a "short" exponent of n - 1 bits."""
        keypair = KEYPAIRS[bits]
        n = keypair.public_key.n
        top = n // 2 - 1
        users = [(3, 5, [top] * d), (n - 2, n - 1, [-top] * d)]
        assert_kernel_correct(keypair, users, list(range(d)))

    def test_zero_and_all_negative_rows(self):
        keypair = KEYPAIRS[128]
        users = [(7, 11, [0, 0, 0, 0]), (5, 13, [-1, -2, -(1 << 37), -3])]
        assert_kernel_correct(keypair, users, [0, 1, 2, 3])

    def test_all_zero_task_has_a_one_bit_table(self):
        keypair = KEYPAIRS[128]
        assert_kernel_correct(keypair, [(7, 11, [0] * 8)], [1] * 8)

    def test_single_coordinate_takes_the_plain_pow_branch(self, monkeypatch):
        assert not worthwhile(39, 1)
        monkeypatch.setattr(
            parties, "FixedBaseExp", lambda *a, **k: pytest.fail("table built for d = 1")
        )
        keypair = KEYPAIRS[128]
        assert_kernel_correct(keypair, [(9, 4, [-(1 << 37)]), (2, 3, [5])], [17])

    def test_silo_without_user_terms_ships_its_additive_term(self):
        keypair = KEYPAIRS[128]
        task, out = assert_kernel_correct(keypair, [], [4, 0, 99])
        assert out != task["zero_values"]  # the additive scalar was applied

    def test_two_users_sharing_a_base(self):
        keypair = KEYPAIRS[128]
        rng = random.Random(3)
        task = make_task(keypair, [(6, 10, [1, -2, 3])], [0, 0, 0], rng)
        base = task["user_terms"][0][0]
        task["user_terms"].append((base, 21, [-4, 5, 6]))
        out = run_weighted_delta_kernel(task)
        users = [(6, 10, [1, -2, 3]), (6, 21, [-4, 5, 6])]
        n = keypair.public_key.n
        assert decrypt_all(keypair, out) == expected_plaintexts(n, users, [0, 0, 0])


HIST = np.array([
    [3, 0, 2, 1],
    [1, 4, 0, 1],
    [2, 1, 1, 0],
])


def make_protocol():
    proto = PrivateWeightingProtocol(
        HIST, n_max=16, paillier_bits=256, seed=0, workers=1, dh_group=TOY_DH_GROUP
    )
    proto.run_setup()
    return proto


def make_inputs(proto, d, seed=1):
    rng = np.random.default_rng(seed)
    deltas = [
        {u: rng.standard_normal(d) for u in range(proto.n_users) if proto.histogram[s, u] > 0}
        for s in range(proto.n_silos)
    ]
    noises = [rng.standard_normal(d) for _ in range(proto.n_silos)]
    return deltas, noises


class TestFreshRandomness:
    def test_identical_inputs_give_different_ciphertexts(self):
        """Same deltas, noise, weights *and round number*: the plaintexts
        are equal, the ciphertexts must not be (fresh pooled ``Enc(0)``)."""
        proto = make_protocol()
        deltas, noises = make_inputs(proto, d=5)
        enc_inverses = proto.server.encrypted_inverses()
        keypair = proto.server.keypair
        runs = [
            run_weighted_delta_kernel(
                proto.silos[0].weighted_delta_task(
                    enc_inverses, deltas[0], noises[0], round_no=0,
                    precision=proto.precision,
                )
            )
            for _ in range(2)
        ]
        assert decrypt_all(keypair, runs[0]) == decrypt_all(keypair, runs[1])
        assert all(a != b for a, b in zip(*runs))


class TestExponentWidthGuard:
    def test_tables_are_fixed_point_width_and_one_wide_pow_per_pair(self, monkeypatch):
        """Deterministic guard against the removed regression: in a whole
        round every table covers at most B + 1 bits (B = the silo's largest
        quantised ``|x|``), never ``n.bit_length()``, and the only
        key-width exponentiation is the one ``c_u^(f_u)`` per (silo, user).
        """
        proto = make_protocol()
        d = 16
        deltas, noises = make_inputs(proto, d)
        n_bits = proto.server.public_key.n.bit_length()
        widths = [
            max(
                abs(x).bit_length()
                for delta in per_silo.values()
                for x in quantize_vector(delta, proto.precision)
            )
            for per_silo in deltas
        ]
        assert max(widths) + 1 < n_bits // 4  # "short" means short
        assert worthwhile(min(widths) + 1, d)

        tables, pows = [], []

        class RecordingFixedBaseExp(FixedBaseExp):
            def __init__(self, base, modulus, exp_bits, **kwargs):
                tables.append(exp_bits)
                super().__init__(base, modulus, exp_bits, **kwargs)

        def recording_pow(base, exponent, modulus):
            pows.append(exponent)
            return pow(base, exponent, modulus)

        monkeypatch.setattr(parties, "FixedBaseExp", RecordingFixedBaseExp)
        monkeypatch.setattr(parties, "pow", recording_pow, raising=False)
        aggregate = proto.run_round(deltas, noises)
        np.testing.assert_allclose(
            aggregate, plaintext_reference(proto, deltas, noises), atol=1e-6
        )

        pairs_per_silo = [len(per_silo) for per_silo in deltas]
        expected_tables = [w + 1 for w, k in zip(widths, pairs_per_silo) for _ in range(k)]
        assert tables == expected_tables
        wide = [e for e in pows if abs(e).bit_length() > max(widths) + 1]
        assert len(wide) == sum(pairs_per_silo)
        # Everything else the kernel raised anything to is the bias.
        assert sorted(set(pows) - set(wide)) == sorted({-(1 << w) for w in widths})

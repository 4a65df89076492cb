"""Theorem 4: Protocol 1 computes the same aggregate as the plain method.

|Delta - Delta_sec|_inf must stay within the fixed-point precision P for
arbitrary clipped deltas and noise, including with sub-sampled (zeroed)
users and with users missing from some silos.
"""

import numpy as np
import pytest
from toy_crypto import TOY_DH_GROUP

from repro.protocol import PrivateWeightingProtocol


def make_protocol(hist, seed=0, **kwargs):
    proto = PrivateWeightingProtocol(
        np.asarray(hist), paillier_bits=256, seed=seed, dh_group=TOY_DH_GROUP,
        **kwargs
    )
    proto.run_setup()
    return proto


def random_inputs(proto, d=6, seed=1, scale=1.0):
    rng = np.random.default_rng(seed)
    deltas, noises = [], []
    for s in range(proto.n_silos):
        per_user = {}
        for u in range(proto.n_users):
            if proto.histogram[s, u] > 0:
                per_user[u] = scale * rng.standard_normal(d)
        deltas.append(per_user)
        noises.append(scale * rng.standard_normal(d))
    return deltas, noises


HIST = [
    [3, 0, 2, 1],
    [1, 4, 0, 1],
    [2, 1, 1, 0],
]


def tol(proto):
    """Accumulated fixed-point error bound: each encoded term contributes
    up to precision/2; the aggregate sums |S| * (|U| + 1) terms."""
    return proto.n_silos * (proto.n_users + 1) * proto.precision / 2


class TestTheorem4:
    def test_matches_plaintext_reference(self):
        proto = make_protocol(HIST, n_max=16)
        deltas, noises = random_inputs(proto)
        secure = proto.run_round(deltas, noises)
        plain = proto.plaintext_reference(deltas, noises)
        assert np.max(np.abs(secure - plain)) <= tol(proto)

    def test_multiple_rounds_independent(self):
        proto = make_protocol(HIST, n_max=16)
        for round_seed in (1, 2, 3):
            deltas, noises = random_inputs(proto, seed=round_seed)
            secure = proto.run_round(deltas, noises)
            plain = proto.plaintext_reference(deltas, noises)
            assert np.max(np.abs(secure - plain)) <= tol(proto)

    def test_subsampled_users_zeroed(self):
        proto = make_protocol(HIST, n_max=16)
        deltas, noises = random_inputs(proto)
        sampled = np.array([0, 2])
        secure = proto.run_round(deltas, noises, sampled_users=sampled)
        plain = proto.plaintext_reference(deltas, noises, sampled_users=sampled)
        assert np.max(np.abs(secure - plain)) <= tol(proto)

    def test_nobody_sampled_yields_noise_only(self):
        proto = make_protocol(HIST, n_max=16)
        deltas, noises = random_inputs(proto)
        secure = proto.run_round(deltas, noises, sampled_users=np.array([], dtype=int))
        plain = sum(noises)
        assert np.max(np.abs(secure - plain)) <= tol(proto)

    def test_user_absent_from_some_silos(self):
        hist = [[5, 0], [0, 3]]  # disjoint users
        proto = make_protocol(hist, n_max=8)
        deltas, noises = random_inputs(proto, d=4)
        secure = proto.run_round(deltas, noises)
        plain = proto.plaintext_reference(deltas, noises)
        assert np.max(np.abs(secure - plain)) <= tol(proto)

    def test_weights_are_eq3(self):
        """Decoded aggregate uses exactly w = n_su / N_u."""
        hist = np.array([[3, 1], [1, 1]])
        proto = make_protocol(hist.tolist(), n_max=8)
        d = 3
        # One-hot deltas isolate the weight of each (silo, user) pair.
        deltas = [
            {0: np.ones(d), 1: np.zeros(d)},
            {0: np.zeros(d), 1: np.zeros(d)},
        ]
        noises = [np.zeros(d), np.zeros(d)]
        out = proto.run_round(deltas, noises)
        np.testing.assert_allclose(out, 3.0 / 4.0, atol=tol(proto))

    def test_large_magnitudes_within_budget(self):
        proto = make_protocol(HIST, n_max=16)
        deltas, noises = random_inputs(proto, scale=100.0)
        secure = proto.run_round(deltas, noises)
        plain = proto.plaintext_reference(deltas, noises)
        # Relative fixed-point error grows with magnitude; still tiny.
        assert np.max(np.abs(secure - plain)) <= 1e-6

    def test_magnitude_budget_guard_raises(self):
        # Tiny Paillier modulus + huge values must be rejected, not corrupted.
        proto = PrivateWeightingProtocol(
            np.asarray(HIST), n_max=16, paillier_bits=128, seed=0,
            dh_group=TOY_DH_GROUP,
        )
        proto.run_setup()
        deltas, noises = random_inputs(proto, scale=1e30)
        with pytest.raises(ValueError):
            proto.run_round(deltas, noises)


class TestValidation:
    def test_requires_setup(self):
        proto = PrivateWeightingProtocol(
            np.asarray(HIST), paillier_bits=256, seed=0, dh_group=TOY_DH_GROUP
        )
        deltas = [dict() for _ in range(3)]
        noises = [np.zeros(2)] * 3
        with pytest.raises(RuntimeError):
            proto.run_round(deltas, noises)

    def test_rejects_single_silo(self):
        with pytest.raises(ValueError):
            PrivateWeightingProtocol(np.array([[1, 2]]), paillier_bits=256, seed=0)

    def test_rejects_user_over_nmax(self):
        with pytest.raises(ValueError):
            PrivateWeightingProtocol(
                np.array([[10, 0], [10, 0]]), n_max=8, paillier_bits=256, seed=0
            )

    def test_rejects_wrong_silo_count(self):
        proto = make_protocol(HIST, n_max=16)
        with pytest.raises(ValueError):
            proto.run_round([{}], [np.zeros(2)])

    def test_silo_rejects_foreign_user_delta(self):
        proto = make_protocol(HIST, n_max=16)
        deltas, noises = random_inputs(proto)
        deltas[0][1] = np.ones(6)  # silo 0 has no records of user 1
        with pytest.raises(ValueError):
            proto.run_round(deltas, noises)

    def test_deterministic_with_seed(self):
        a = make_protocol(HIST, n_max=16, seed=5)
        b = make_protocol(HIST, n_max=16, seed=5)
        deltas, noises = random_inputs(a)
        out_a = a.run_round(deltas, noises)
        out_b = b.run_round(deltas, noises)
        np.testing.assert_allclose(out_a, out_b)

"""Property-based tests: Protocol 1 correctness over random inputs.

Theorem 4 holds for *any* deltas/noise within the magnitude budget and any
histogram within N_max; hypothesis explores that space on a fixed protocol
instance (setup is the expensive part), plus a seeded sweep over random
histogram shapes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracle_reference import plaintext_reference
from toy_crypto import TOY_DH_GROUP

from repro.core.weighting import proportional_weights, subsample_weights
from repro.protocol import PrivateWeightingProtocol

HIST = np.array([
    [2, 0, 3, 1, 1],
    [1, 2, 0, 2, 1],
    [3, 1, 1, 0, 2],
])


@pytest.fixture(scope="module")
def proto():
    p = PrivateWeightingProtocol(
        HIST, n_max=16, paillier_bits=256, seed=42, dh_group=TOY_DH_GROUP
    )
    p.run_setup()
    return p


def build_inputs(proto, flat_values, d):
    """Deterministically spread hypothesis-provided floats over the inputs."""
    values = iter(flat_values)

    def take():
        try:
            return next(values)
        except StopIteration:
            return 0.5

    deltas, noises = [], []
    for s in range(proto.n_silos):
        per_user = {}
        for u in range(proto.n_users):
            if proto.histogram[s, u] > 0:
                per_user[u] = np.array([take() for _ in range(d)])
        deltas.append(per_user)
        noises.append(np.array([take() for _ in range(d)]))
    return deltas, noises


class TestTheorem4Property:
    @given(
        flat=st.lists(
            st.floats(-50.0, 50.0, allow_nan=False), min_size=10, max_size=60
        ),
        d=st.integers(1, 3),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_secure_equals_plain_for_any_values(self, proto, flat, d):
        deltas, noises = build_inputs(proto, flat, d)
        secure = proto.run_round(deltas, noises)
        plain = plaintext_reference(proto, deltas, noises)
        tolerance = proto.n_silos * (proto.n_users + 1) * proto.precision
        assert np.max(np.abs(secure - plain)) <= tolerance

    @given(
        sample=st.lists(st.integers(0, 4), min_size=0, max_size=5, unique=True),
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_sampled_subset(self, proto, sample):
        rng = np.random.default_rng(7)
        deltas, noises = build_inputs(proto, rng.standard_normal(40).tolist(), 2)
        sampled = np.array(sample, dtype=int)
        weights = subsample_weights(proportional_weights(HIST), sampled)
        secure = proto.run_round(deltas, noises, weights)
        plain = plaintext_reference(proto, deltas, noises, sampled_users=sampled)
        tolerance = proto.n_silos * (proto.n_users + 1) * proto.precision
        assert np.max(np.abs(secure - plain)) <= tolerance


class TestRandomHistograms:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        n_silos = int(rng.integers(2, 5))
        n_users = int(rng.integers(2, 7))
        hist = rng.integers(0, 4, size=(n_silos, n_users))
        # Every silo needs at least one record for a meaningful test; the
        # protocol itself tolerates empty silos.
        hist[:, 0] = np.maximum(hist[:, 0], 1)
        proto = PrivateWeightingProtocol(
            hist, n_max=16, paillier_bits=256, seed=seed, dh_group=TOY_DH_GROUP
        )
        proto.run_setup()
        deltas, noises = build_inputs(proto, rng.standard_normal(80).tolist(), 3)
        secure = proto.run_round(deltas, noises)
        plain = plaintext_reference(proto, deltas, noises)
        tolerance = proto.n_silos * (proto.n_users + 1) * proto.precision
        assert np.max(np.abs(secure - plain)) <= tolerance

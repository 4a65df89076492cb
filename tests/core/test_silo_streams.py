"""A silo's randomness is a pure function of (run, release, silo).

``UldpAvg._draw_silo`` builds silo s's generator for one release from the
run's root (drawn once at ``prepare``), the release and s -- nothing that
another silo, the walk order or the carrier could move.  Pinned here bit
for bit: for random rosters in random orders, every silo's payload is the
one it forms in a full round walked in index order over the row view
(``oracle_loop.segment_payloads``), through the shard pool (in process
and behind two workers), that walk and ``silo_payload``, for both local
kernels, full batch and minibatches; and no carrier touches the
trainer's generator.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_loop import segment_payloads

from repro.core import UldpAvg, UldpSgd
from repro.core.engine import EngineConfig
from repro.core.methods.uldp_avg import ASYNC_JOB, SYNC_ROUND
from repro.data import build_creditcard_benchmark
from repro.nn import build_tiny_mlp

N_SILOS = 4


@pytest.fixture(scope="module")
def fed():
    return build_creditcard_benchmark(
        n_users=40, n_silos=N_SILOS, n_records=400, n_test=40, seed=0,
        distribution="zipf",
    )


def _prepared(cls, fed, batch_size, workers=0):
    method = cls(weighting="proportional")
    # ULDP-SGD's kernel reads no batch size; its schedules are still drawn.
    method.batch_size = batch_size
    method.prepare(
        fed, build_tiny_mlp(30, 8, 2, np.random.default_rng(1)),
        np.random.default_rng(5),
        engine=EngineConfig(workers=workers, shard_size=8),
    )
    return method


@pytest.fixture(
    scope="module",
    params=[
        (cls, batch_size, workers)
        for cls in (UldpAvg, UldpSgd)
        for batch_size in (None, 4)
        for workers in (0, 2)
    ],
    ids=lambda p: f"{p[0].local_kernel}-batch{p[1]}-workers{p[2]}",
)
def case(request, fed):
    """A prepared method, and every silo's ``(users, payload bytes)`` for
    release ``(SYNC_ROUND, 0)`` in a full round walked in index order."""
    cls, batch_size, workers = request.param
    method = _prepared(cls, fed, batch_size, workers)
    params = method.model.get_flat_params()
    full = segment_payloads(
        method, params, method.weights, method._noise_std(), list(range(N_SILOS)))
    yield method, {s: (users, payload.tobytes()) for s, users, payload in full}
    method.close()


@settings(max_examples=8, deadline=None)
@given(order=st.permutations(range(N_SILOS)), size=st.integers(1, N_SILOS))
def test_a_silos_payload_ignores_the_roster_and_the_order(case, order, size):
    method, reference = case
    active = list(order[:size])
    params, weights = method.model.get_flat_params(), method.weights
    noise_std = method._noise_std()
    start = method.rng.bit_generator.state
    walk = partial(segment_payloads, method)
    for name, carrier in (("shard", method._shard_payloads), ("walk", walk)):
        got = carrier(params, weights, noise_std, active)
        assert [s for s, _, _ in got] == active
        for s, users, payload in got:
            assert (users, payload.tobytes()) == reference[s], (
                f"{name}: silo {s} in {active}")
    for s in active:
        users, payload = method.silo_payload(s, params, weights[s], noise_std)
        assert (users, payload.tobytes()) == reference[s]
    assert method.rng.bit_generator.state == start


def test_releases_are_keyed_apart(fed):
    # Same silo, same inputs, another release: other draws.  Rounds and
    # async jobs are separate key spaces, so round k and job k differ.
    method = _prepared(UldpAvg, fed, 4)
    params, weights = method.model.get_flat_params(), method.weights
    s = int(np.argmax([len(silo.users_present()) for silo in fed.silos]))

    def payload(release):
        _, vector = method.silo_payload(
            s, params, weights[s], 1.0, release=release)
        return vector.tobytes()

    drawn = [payload((space, key))
             for space in (SYNC_ROUND, ASYNC_JOB) for key in (0, 1)]
    assert len(set(drawn)) == 4
    assert payload((SYNC_ROUND, 1)) == drawn[1]  # and a pure function of it
    method._release = (SYNC_ROUND, 1)
    assert payload(None) == drawn[1]  # None: the round the method is in

"""The buffered-async release's privacy bookkeeping, as properties.

``UldpAvg.release_buffered`` merges K staleness-discounted payloads into
one release.  Theorem 3's user-level bound holds for it only if

- each user is charged the sum of their discounted weights ``d * w`` over
  every payload they sit in (a silo may have two versions in flight, so a
  user can appear in several), and
- the accountant's noise scale is the merged noise's real std in units of
  sigma * C: K payloads of std ``sigma * C / sqrt(K)`` (``buffered_job``)
  discounted by ``d`` sum to ``sigma * C * sqrt(mean(d^2))``.

A golden hash pins one run's bits; these state the two numbers for any
buffer.  CI reruns them with ``HYPOTHESIS_PROFILE=fuzz``.
"""

from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.methods.base import CommSummary  # noqa: E402
from repro.core.methods.uldp_avg import UldpAvg  # noqa: E402
from repro.data import build_creditcard_benchmark  # noqa: E402
from repro.nn.model import build_tiny_mlp  # noqa: E402
from repro.sim import staleness_weight  # noqa: E402

SIGMA, CLIP = 2.0, 1.5
N_USERS, N_SILOS = 10, 3
#: 33 002 parameters: the merged noise's std is estimated to ~0.4 %.
HIDDEN = 1000
NO_BYTES = CommSummary(0, 0)


@cache
def prepared() -> UldpAvg:
    fed = build_creditcard_benchmark(
        n_users=N_USERS, n_silos=N_SILOS, n_records=200, n_test=60, seed=0)
    method = UldpAvg(noise_multiplier=SIGMA, clip=CLIP, local_epochs=1)
    model = build_tiny_mlp(30, HIDDEN, 2, np.random.default_rng(1))
    method.prepare(fed, model, np.random.default_rng(5))
    return method


def update(silo, users, weights, payload):
    """One buffered job's result, as the scheduler holds it."""
    return SimpleNamespace(
        silo=silo, users=np.array(users, dtype=np.int64),
        weights=np.array(weights, dtype=np.float64), payload=payload)


@given(data=st.data())
def test_a_user_in_k_payloads_is_charged_the_sum_of_their_discounted_weights(data):
    # User 0 sits in every one of the k payloads; every other user sits in
    # one, weighing no more than user 0 there, so user 0's charge is the
    # release's sensitivity.
    method = prepared()
    k = data.draw(st.integers(1, 6), label="k")
    unit = st.floats(0.05, 1.0)
    discounts = np.array(data.draw(st.lists(unit, min_size=k, max_size=k)))
    mine = data.draw(st.lists(unit, min_size=k, max_size=k), label="weights of user 0")
    others = data.draw(st.lists(
        st.integers(0, k - 1), max_size=N_USERS - 1), label="payload of users 1..")
    payload = np.zeros(method.model.num_params, dtype=np.float32)
    buffer = []
    for i in range(k):
        users = [0] + [1 + v for v, at in enumerate(others) if at == i]
        weights = [mine[i]] + [
            data.draw(st.floats(0.0, mine[i])) for _ in users[1:]]
        buffer.append(update(data.draw(st.integers(0, N_SILOS - 1)), users, weights, payload))

    report = method.release_buffered(
        np.zeros(payload.size), buffer, discounts, NO_BYTES)

    charge = 0.0
    for d, w in zip(discounts, mine):
        charge += d * w
    assert method.last_release.sensitivity == pytest.approx(charge, rel=1e-12)
    assert report.participation.users_seen == 1 + len(others)
    assert report.participation.silos_seen == len({u.silo for u in buffer})


@given(
    stale=st.integers(3, 8),
    staleness=st.lists(st.integers(0, 8), max_size=7),
    seq=st.integers(0, 2**20),
)
def test_the_noise_scale_is_the_merged_noise_std(stale, staleness, seq):
    # No user has weight, so the release is the discounted noise alone;
    # one payload is at least 3 versions stale, so the noise scale is
    # below 0.96.
    method = prepared()
    taus = [stale, *staleness]
    k = len(taus)
    discounts = np.array([staleness_weight(tau) for tau in taus])
    params = np.zeros(method.model.num_params)
    broadcast = method.broadcast(params)
    nobody = np.zeros(N_USERS, dtype=bool)
    buffer = []
    for i in range(k):
        s = i % N_SILOS
        users, weights, payload = method.buffered_job(s, broadcast, seq + i, nobody, k)
        assert users.size == 0
        buffer.append(update(s, users, weights, payload))

    report = method.release_buffered(params, buffer, discounts, NO_BYTES)

    merged = report.params * (N_USERS * k) / method.global_lr
    release = method.last_release
    assert release.sensitivity == 0.0
    assert np.std(merged) / (SIGMA * CLIP) == pytest.approx(release.noise_scale, rel=0.025)

"""The broadcast's proof obligation: a silo reads no more of the params
than its method's ``broadcast_dtype`` carries.

A round hands its silos ``FLMethod.broadcast(params)``: float32 for every
engine-trained method, because the engine rounds the params to
``TRAIN_DTYPE`` before it touches a weight.  So for every local kernel
and every carrier, a silo's output from the float64 params must equal,
bit for bit, its output from their float32 cast -- otherwise the narrower
broadcast would change the run.  ULDP-GROUP's DP-SGD runs in float64 and
does read the low bits (the pinned case below), which is why its
broadcast stays float64.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Default, UldpAvg, UldpGroup, UldpNaive, UldpSgd
from repro.core.engine import batched_local_deltas
from repro.core.methods.uldp_avg import SYNC_ROUND
from repro.data import build_creditcard_benchmark
from repro.nn.layers import TRAIN_DTYPE
from repro.nn.model import build_tiny_mlp


@pytest.fixture(scope="module")
def fed():
    return build_creditcard_benchmark(
        n_users=12, n_silos=3, n_records=300, n_test=60, seed=3,
        distribution="zipf",
    )


def prepared(method, fed):
    model = build_tiny_mlp(30, 8, 2, np.random.default_rng(1))
    method.prepare(fed, model, np.random.default_rng(7))
    return method


def silo_payloads(method, params):
    """Every silo's ``silo_payload`` for round 0 (users and noisy sum)."""
    return [
        method.silo_payload(s, params, method.weights[s], 0.5,
                            release=(SYNC_ROUND, 0))
        for s in range(method.fed.n_silos)
    ]


def silo_segments(method, params):
    """Every silo's ``silo_round_segment`` (users, rows, noise)."""
    return [
        method.silo_round_segment(s, params, method.weights[s], 0.5,
                                  release=(SYNC_ROUND, 0))
        for s in range(method.fed.n_silos)
    ]


def silo_level_deltas(method, params):
    """What DEFAULT's and ULDP-NAIVE's silos train: one whole-silo job
    each (schedules from one fixed generator), through the engine."""
    fed, model, _ = method._require_prepared()
    rng = np.random.default_rng(11)
    jobs = [method._local_job(rng, silo.x, silo.y, method.local_epochs,
                              method.batch_size)
            for silo in fed.silos]
    return batched_local_deltas(model, fed.task, params, jobs,
                                method.local_lr, method.local_epochs).copy()


#: name -> (method factory, what its silos compute from the params).
CARRIERS = {
    "single-step delta": (lambda: UldpAvg(local_epochs=1), silo_payloads),
    "multi-epoch full-batch": (
        lambda: UldpAvg(local_epochs=2, weighting="proportional"), silo_payloads),
    "minibatch-scheduled": (
        lambda: UldpAvg(local_epochs=2, batch_size=4), silo_payloads),
    "gradient": (lambda: UldpSgd(), silo_payloads),
    "silo_round_segment rows": (
        lambda: UldpAvg(local_epochs=2, batch_size=4), silo_segments),
    "DEFAULT silos": (lambda: Default(local_epochs=2), silo_level_deltas),
    "ULDP-NAIVE silos": (
        lambda: UldpNaive(local_epochs=1, batch_size=None), silo_level_deltas),
}


def as_bytes(output):
    """A carrier's output as comparable bytes, arrays and ids alike."""
    if isinstance(output, np.ndarray):
        return output.dtype.str, output.shape, output.tobytes()
    if isinstance(output, (list, tuple)):
        return [as_bytes(item) for item in output]
    return output


@pytest.mark.parametrize("carrier", sorted(CARRIERS))
def test_every_carrier_reads_only_the_float32_broadcast(fed, carrier):
    make, compute = CARRIERS[carrier]
    method = prepared(make(), fed)
    assert method.broadcast_dtype == TRAIN_DTYPE
    size = method.model.num_params

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 0.1, 1.0, 30.0]))
    def same_bits(seed, scale):
        params = np.random.default_rng(seed).normal(0.0, scale, size)
        broadcast = method.broadcast(params)
        assert broadcast.dtype == TRAIN_DTYPE
        assert np.any(broadcast.astype(np.float64) != params)  # bits dropped
        assert as_bytes(compute(method, params)) == as_bytes(
            compute(method, broadcast))

    same_bits()


def test_uldp_group_reads_the_low_bits():
    """ULDP-GROUP's silos run float64 DP-SGD from the params, so the
    float32 cast moves their deltas: its broadcast must stay float64."""
    fed = build_creditcard_benchmark(
        n_users=12, n_silos=3, n_records=300, n_test=60, seed=3)
    size = build_tiny_mlp(30, 8, 2, np.random.default_rng(1)).num_params
    params = np.random.default_rng(5).normal(0.0, 0.1, size)
    deltas = []
    for start in (params, params.astype(np.float32).astype(np.float64)):
        method = prepared(
            UldpGroup(group_size=4, local_steps=2, expected_batch_size=16), fed)
        assert method.broadcast_dtype == np.float64
        assert method.broadcast(start).tobytes() == start.tobytes()
        deltas.append(method.round(0, start).params - start)
    gap = np.abs(deltas[0] - deltas[1]).max()
    assert 0 < gap < 1e-6, gap

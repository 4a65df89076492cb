"""``batch_model(reuse=True)``: one resident replica per template, served
as leading-axis views.

The multi-epoch engine trains one bucket at a time and asks for a replica
of a different group count with every bucket.  Whatever ``G`` it asks for
it gets ``[:G]`` of the template's one ``REPLICA_GROUPS``-group replica --
so the deltas must be those of a freshly built ``G``-group replica bit for
bit, the storage must exist once, and it must not grow with the number of
distinct ``G``.
"""

import numpy as np
import pytest

import repro.core.engine as engine
from repro.core.engine import MICRO_BATCH, LocalJob, draw_minibatch_schedule
from repro.nn import model as nn_model
from repro.nn.layers import TRAIN_DTYPE
from repro.nn.model import (
    REPLICA_GROUPS,
    batch_model,
    build_creditcard_mlp,
    build_mnist_cnn,
)

EPOCHS = 2


def _mlp_jobs(rng, groups):
    jobs = []
    for _ in range(groups):
        n = int(rng.integers(1, 7))
        y = rng.integers(0, 2, size=n)
        schedule = draw_minibatch_schedule(n, 4, EPOCHS, rng)
        jobs.append(LocalJob(rng.standard_normal((n, 30)), y, schedule))
    return jobs


def _cnn_jobs(rng, groups):
    return [
        LocalJob(rng.standard_normal((2, 1, 14, 14)), rng.integers(0, 10, size=2))
        for _ in range(groups)
    ]


def _deltas(template, params, jobs, reuse, monkeypatch):
    with monkeypatch.context() as patch:
        if not reuse:
            patch.setattr(
                engine, "batch_model", lambda t, g, reuse: batch_model(t, g)
            )
        return engine._train_bucket(
            template, "multiclass", params, jobs, lr=0.1, epochs=EPOCHS
        )


@pytest.mark.parametrize(
    "build, make_jobs, sequence_length",
    [(build_creditcard_mlp, _mlp_jobs, 12), (build_mnist_cnn, _cnn_jobs, 4)],
    ids=["creditcard-mlp", "mnist-cnn"],
)
def test_views_train_like_fresh_replicas(build, make_jobs, sequence_length, monkeypatch):
    rng = np.random.default_rng(11)
    template = build(np.random.default_rng(1))
    params = template.get_flat_params()
    # A random walk over group counts, the widest bucket, a repeat (stale
    # parameters and gradients from the first visit), and one count the
    # resident replica cannot serve.
    sequence = [int(g) for g in rng.integers(1, MICRO_BATCH + 1, size=sequence_length)]
    sequence += [MICRO_BATCH, sequence[0], MICRO_BATCH + 2]
    for groups in sequence:
        jobs = make_jobs(rng, groups)
        viewed = _deltas(template, params, jobs, True, monkeypatch)
        fresh = _deltas(template, params, jobs, False, monkeypatch)
        assert viewed.shape == (groups, params.size)
        assert viewed.tobytes() == fresh.tobytes(), f"G={groups} diverged"


def _resident_bytes(template) -> int:
    """Bytes of the distinct arrays that own what ``template``'s reusable
    replicas read and write."""
    owners = {}
    for replica in nn_model._REPLICAS[template].values():
        for array in [*replica.params, *replica.grads]:
            owner = array if array.base is None else array.base
            owners[id(owner)] = owner.nbytes
    return sum(owners.values())


def test_storage_exists_once_per_template_and_does_not_grow():
    assert REPLICA_GROUPS == MICRO_BATCH
    template = build_creditcard_mlp(np.random.default_rng(1))
    other = build_creditcard_mlp(np.random.default_rng(2))
    budget = 2 * MICRO_BATCH * template.num_params * TRAIN_DTYPE.itemsize

    small = batch_model(template, 3, reuse=True)
    assert _resident_bytes(template) == budget
    heads = [batch_model(template, g, reuse=True) for g in range(1, MICRO_BATCH + 1)]
    assert _resident_bytes(template) == budget
    assert batch_model(template, 3, reuse=True) is small

    wide = heads[-1]
    for head in heads:
        assert head.groups == len(head.params[0]) == head.params[0].shape[0]
        for mine, full in zip([*head.params, *head.grads], [*wide.params, *wide.grads]):
            assert np.shares_memory(mine, full)
            assert mine.flags.c_contiguous
    foreign = batch_model(other, 3, reuse=True)
    for mine, theirs in zip(small.params, foreign.params):
        assert not np.shares_memory(mine, theirs)

    # Past the resident replica's width the call is a plain build: a fresh
    # replica each time, nothing kept.
    big = batch_model(template, MICRO_BATCH + 1, reuse=True)
    assert big is not batch_model(template, MICRO_BATCH + 1, reuse=True)
    assert not np.shares_memory(big.params[0], wide.params[0])
    assert _resident_bytes(template) == budget


def test_a_view_writes_only_its_own_groups():
    template = build_creditcard_mlp(np.random.default_rng(1))
    wide = batch_model(template, MICRO_BATCH, reuse=True)
    wide.set_flat_params(np.full(template.num_params, 7.0))
    head = batch_model(template, 5, reuse=True)
    head.set_flat_params(np.zeros(template.num_params))
    flat = wide.get_flat_params()
    assert not flat[:5].any() and (flat[5:] == 7.0).all()


def test_backward_writes_gradients_and_releases_its_cache():
    # One backward per step is the engine's only use, so the batched
    # layers overwrite: stale gradients from an earlier bucket never leak
    # into a step, and nothing holds the step's activations afterwards.
    rng = np.random.default_rng(3)
    template = build_creditcard_mlp(np.random.default_rng(1))
    bm = batch_model(template, 4)
    bm.set_flat_params(template.get_flat_params())
    x = rng.standard_normal((4, 3, 30))
    grad_out = rng.standard_normal((4, 3, 2))
    bm.forward(x)
    bm.backward(grad_out)
    first = bm.get_flat_grads()
    for g in bm.grads:
        g.fill(123.0)
    bm.forward(x)
    bm.backward(grad_out)
    assert bm.get_flat_grads().tobytes() == first.tobytes()
    assert all(layer._x is None for layer in bm.layers if layer.params)

"""The privacy boundary of local training: float32 inside, float64 from the clip on.

Local training computes in ``TRAIN_DTYPE`` (float32).  The guarantee the
paper proves depends only on what happens after it: every user's delta
(or negated gradient) is clipped to l2 norm C, weighted, summed and
noised at ``sigma * C``.  So the rows leaving the engine must be float64,
and each row's *float64* norm must be at most C -- whatever the float32
walk did, including overflowing to inf / NaN on huge records.

The property test drives the three engine kernels -- the fused
single-step walk (one full-batch epoch), the bucketed multi-epoch
replicas, and the ULDP-SGD gradient -- on an MLP, a CNN and a logistic
model, with records scaled by up to 1e40 (past float32's 3.4e38).  The
sentinel checks where each dtype lives in a whole round.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.engine as engine
from repro.api.runner import build_trainer
from repro.api.spec import RunSpec
from repro.core.engine import (
    LocalJob,
    batched_clipped_gradients,
    batched_clipped_local_deltas,
    draw_minibatch_schedule,
)
from repro.core.reduce import BinnedSum
from repro.nn.layers import TRAIN_DTYPE
from repro.nn.model import build_logistic, build_mnist_cnn, build_tiny_mlp
from repro.nn.workspace import WORKSPACE

#: A clipped row's float64 norm is C up to the rounding of one norm (a
#: float64 sum of at most ~20k exact squares) and one scale: well under
#: 1e-12 relative.  A norm summed in float32 misses by ~1e-7.
SLACK = 1e-12

MODELS = {
    "mlp": (lambda rng: build_tiny_mlp(6, 8, 3, rng), (6,), 3),
    "cnn": (lambda rng: build_mnist_cnn(rng, image_size=8, n_classes=3), (1, 8, 8), 3),
    "logistic": (lambda rng: build_logistic(rng, in_features=5), (5,), 2),
}


def _jobs(rng, shape, classes, scale, kernel):
    jobs = []
    for _ in range(int(rng.integers(1, 10))):
        n = int(rng.integers(1, 6))
        x = rng.standard_normal((n, *shape)) * scale
        y = rng.integers(0, classes, size=n)
        schedule = draw_minibatch_schedule(n, 2, 2, rng) if kernel == "bucketed" else None
        jobs.append(LocalJob(x, y, schedule))
    return jobs


def _boundary_rows(name, kernel, exponent, clip, seed):
    build, shape, classes = MODELS[name]
    rng = np.random.default_rng(seed)
    model = build(rng)
    task = "multiclass" if classes > 2 else "binary"
    jobs = _jobs(rng, shape, classes, 10.0 ** exponent, kernel)
    params = model.get_flat_params()
    with np.errstate(all="ignore"):  # the records are meant to overflow float32
        if kernel == "gradient":
            return batched_clipped_gradients(model, task, params, jobs, clip)
        epochs = 1 if kernel == "fused" else 2
        return batched_clipped_local_deltas(model, task, params, jobs, 0.5, epochs, clip)


@given(
    name=st.sampled_from(sorted(MODELS)),
    kernel=st.sampled_from(["fused", "bucketed", "gradient"]),
    exponent=st.floats(0.0, 40.0),
    clip=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**16),
)
@example(name="cnn", kernel="fused", exponent=3.0, clip=0.1, seed=0)
@example(name="mlp", kernel="bucketed", exponent=40.0, clip=1.0, seed=1)
@settings(max_examples=60, deadline=None)
def test_every_prenoise_row_is_float64_and_within_the_clip(
    name, kernel, exponent, clip, seed
):
    rows, factors = _boundary_rows(name, kernel, exponent, clip, seed)
    assert rows.dtype == np.float64 and factors.dtype == np.float64
    assert np.isfinite(rows).all()
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    assert (norms <= clip * (1 + SLACK)).all()
    # The documented conventions: factor in [0, 1]; 0 (a non-finite local
    # vector) leaves an exact zero row; a zero row that was not dropped
    # reports 1; a row that was scaled down sits on the clip.
    assert ((factors >= 0) & (factors <= 1)).all()
    assert not rows[factors == 0].any()
    assert (factors[(norms == 0) & (factors != 0)] == 1).all()
    clipped = (factors > 0) & (factors < 1)
    np.testing.assert_allclose(norms[clipped], clip, rtol=SLACK)


@pytest.mark.parametrize("kernel", ["fused", "bucketed", "gradient"])
def test_the_property_is_not_vacuous(kernel):
    """Records at 1e3 make rows clip, at 1e40 every row non-finite: both
    halves of the bound above are exercised on every kernel."""
    rows, factors = _boundary_rows("cnn", kernel, 3.0, 0.1, 0)
    assert ((factors > 0) & (factors < 1)).sum() >= 2
    rows, factors = _boundary_rows("mlp", kernel, 40.0, 1.0, 1)
    assert (factors == 0).all() and not rows.any()


@pytest.mark.parametrize("local_epochs", [1, 2], ids=["fused", "bucketed"])
def test_dtype_sentinel(local_epochs, monkeypatch):
    """One ULDP-AVG round: float32 training, float64 everywhere the clip
    and the release can see."""
    takes, results, folded, weights, aggregates = [], [], [], [], []
    take, result, add = WORKSPACE.take, WORKSPACE.result, BinnedSum.add
    per_group_step = engine.per_group_step

    def spy_take(shape, dtype):
        view = take(shape, dtype)
        takes.append(view.dtype)
        return view

    def spy_result(shape):
        rows = result(shape)
        results.append(rows.dtype)
        return rows

    def spy_add(acc, vec):
        folded.append(np.asarray(vec).dtype)
        return add(acc, vec)

    def spy_step(model, bucket_weights, *args):
        # The bucket's per-group weights, one (G, *shape) array a parameter.
        weights.extend(w.dtype for layer in bucket_weights for w in layer)
        return per_group_step(model, bucket_weights, *args)

    monkeypatch.setattr(WORKSPACE, "take", spy_take)
    monkeypatch.setattr(WORKSPACE, "result", spy_result)
    monkeypatch.setattr(BinnedSum, "add", spy_add)
    monkeypatch.setattr(engine, "per_group_step", spy_step)
    spec = RunSpec.from_dict({
        "name": "dtype-sentinel", "seed": 1, "rounds": 1,
        "dataset": {"name": "mnist", "users": 8, "silos": 2, "records": 32,
                    "test_records": 8},
        "method": {"name": "uldp-avg-w", "local_epochs": local_epochs},
    })
    trainer = build_trainer(spec)
    round_aggregate = trainer.method._round_aggregate

    def spy_aggregate(params, round_weights):
        out = round_aggregate(params, round_weights)
        aggregates.append(out[0].dtype)
        return out

    trainer.method._round_aggregate = spy_aggregate
    trainer.run()

    assert trainer.params.dtype == np.float64
    assert results and set(results) == {np.dtype(np.float64)}
    assert folded and set(folded) == {np.dtype(np.float64)}
    assert aggregates == [np.dtype(np.float64)]
    # The walk's scratch is float32 (and its masks bool); the only float64
    # views are the row blocks ``result`` takes for the engine.
    floats = [d for d in takes if d.kind == "f"]
    assert floats.count(np.dtype(np.float64)) == len(results)
    if local_epochs == 1:
        assert floats.count(TRAIN_DTYPE) > 0 and not weights
    else:
        assert weights and set(weights) == {TRAIN_DTYPE}

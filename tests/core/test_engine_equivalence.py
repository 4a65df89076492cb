"""Differential tests: the batched engine against the per-user loop oracle.

The loop (``oracle_loop.py``: one tiny training run per (silo, user)
pair, the seed implementation) is the correctness oracle; the methods'
batched engine must reproduce its round aggregates exactly -- same RNG
stream, same clipping, same noise -- up to floating-point reassociation
of the float32 local training both run, for every ULDP method and every
task type: ``ATOL`` (``ATOL_CNN`` on the MNIST CNN).
"""

from unittest import mock

import numpy as np
import oracle_loop
import pytest
from oracle_loop import LOOP

from repro.core import Default, UldpAvg, UldpGroup, UldpNaive, UldpSgd
from repro.data import build_creditcard_benchmark, build_mnist_benchmark, build_tcgabrca_benchmark
from repro.nn.model import build_cox_linear, build_mnist_cnn, build_tiny_mlp

EPS32 = np.finfo(np.float32).eps  # 1.19e-7

#: 64 EPS32 = 7.6e-6.  Both sides train in float32 and sum per-record
#: terms in different orders; over seeds 0-5 no dense or survival case
#: drifts past 2.2 EPS32 in two rounds (the float64 engine: 16 eps64).
ATOL = 64 * EPS32

#: 1024 EPS32 = 1.2e-4 on the CNN.  Most runs stay within 13 EPS32, but a
#: max-pool or ReLU decision taken within float32 rounding of its boundary
#: moves one step's gradient by a finite amount, which two local epochs
#: carry into the next round: 180 EPS32 (2.1e-5) for ``avg-q2`` at seed 0.
ATOL_CNN = 1024 * EPS32


@pytest.fixture(scope="module")
def small_fed():
    return build_creditcard_benchmark(
        n_users=12, n_silos=3, n_records=300, n_test=60, seed=0, distribution="zipf"
    )


@pytest.fixture(scope="module")
def survival_fed():
    return build_tcgabrca_benchmark(n_users=10, seed=0)


@pytest.fixture(scope="module")
def image_fed():
    return build_mnist_benchmark(n_users=15, n_silos=3, n_records=240, n_test=40, seed=1)


def run_rounds(method, fed, rounds=2, seed=0, model_builder=None):
    """Train ``rounds`` rounds from a fixed model/seed; returns final params."""
    rng = np.random.default_rng(seed)
    build = model_builder or (
        lambda r: build_tiny_mlp(fed.test_x.shape[1], 8, 2, r)
    )
    model = build(np.random.default_rng(1))
    method.prepare(fed, model, rng)
    params = model.get_flat_params()
    for t in range(rounds):
        params = method.round(t, params).params
    return params


def assert_engines_agree(make_method, fed, rounds=2, model_builder=None, atol=ATOL):
    """``make_method(classes)`` builds the method from ``classes[runtime class]``:
    the runtime classes themselves, or their loop oracles."""
    loop = run_rounds(make_method(LOOP), fed, rounds, model_builder=model_builder)
    vec = run_rounds(
        make_method({cls: cls for cls in LOOP}), fed, rounds,
        model_builder=model_builder,
    )
    np.testing.assert_allclose(vec, loop, atol=atol, rtol=0)


ULDP_AVG_CONFIGS = [
    pytest.param(dict(local_epochs=1), id="single-step"),
    pytest.param(dict(local_epochs=2), id="multi-epoch"),
    pytest.param(dict(local_epochs=2, batch_size=8), id="minibatch"),
    pytest.param(dict(local_epochs=1, weighting="proportional"), id="proportional"),
    pytest.param(
        dict(local_epochs=1, user_sample_rate=0.5), id="subsampled"
    ),
    pytest.param(
        dict(local_epochs=2, batch_size=8, user_sample_rate=0.5),
        id="minibatch-subsampled",
    ),
]


@pytest.mark.parametrize("kwargs", ULDP_AVG_CONFIGS)
def test_uldp_avg_engines_agree(small_fed, kwargs):
    # Non-vacuity guard: the oracle hooks into the runtime class by
    # overriding one method, so a refactor that stops calling that method
    # would compare the engine with itself and pass.  The loop's
    # ``train_epochs`` must run once per trained (silo, user) pair.
    with mock.patch.object(
        oracle_loop, "train_epochs", wraps=oracle_loop.train_epochs
    ) as loop_body:
        assert_engines_agree(lambda c: c[UldpAvg](**kwargs), small_fed)
    pairs = int(np.count_nonzero(small_fed.histogram()))
    if "user_sample_rate" in kwargs:
        assert 0 < loop_body.call_count < 2 * pairs
    else:
        assert loop_body.call_count == 2 * pairs  # two rounds


def test_uldp_sgd_engines_agree(small_fed, kwargs={}):
    # The same non-vacuity guard for the gradient kernel: one loop
    # ``gradient`` call per trained (silo, user) pair and round.
    with mock.patch.object(
        oracle_loop, "gradient", wraps=oracle_loop.gradient
    ) as loop_body:
        assert_engines_agree(lambda c: c[UldpSgd](**kwargs), small_fed)
    pairs = int(np.count_nonzero(small_fed.histogram()))
    if "user_sample_rate" in kwargs:
        assert 0 < loop_body.call_count < 2 * pairs
    else:
        assert loop_body.call_count == 2 * pairs  # two rounds


@pytest.mark.parametrize(
    "kwargs",
    [
        pytest.param(dict(weighting="proportional"), id="proportional"),
        pytest.param(dict(user_sample_rate=0.5), id="subsampled"),
    ],
)
def test_uldp_sgd_variants_engines_agree(small_fed, kwargs):
    test_uldp_sgd_engines_agree(small_fed, kwargs)


def test_uldp_naive_engines_agree(small_fed):
    assert_engines_agree(lambda c: c[UldpNaive](), small_fed)


def test_uldp_group_engines_agree(small_fed):
    assert_engines_agree(
        lambda c: c[UldpGroup](
            group_size=4, local_steps=2, expected_batch_size=16
        ),
        small_fed,
    )


def test_default_engines_agree(small_fed):
    assert_engines_agree(lambda c: c[Default](), small_fed)


@pytest.mark.parametrize(
    "make_method",
    [
        pytest.param(lambda c: c[UldpAvg](local_epochs=1), id="avg"),
        pytest.param(lambda c: c[UldpSgd](), id="sgd"),
        pytest.param(
            lambda c: c[UldpGroup](
                group_size=4, local_steps=1, expected_batch_size=8
            ),
            id="group",
        ),
    ],
)
def test_survival_engines_agree(survival_fed, make_method):
    """Cox partial likelihood, including degenerate (event-free) users."""
    assert_engines_agree(
        make_method,
        survival_fed,
        model_builder=lambda r: build_cox_linear(
            r, in_features=survival_fed.test_x.shape[1]
        ),
    )


@pytest.mark.parametrize(
    "make_method",
    [
        pytest.param(lambda c: c[UldpAvg](local_epochs=1), id="avg-q1"),
        pytest.param(lambda c: c[UldpAvg](local_epochs=2), id="avg-q2"),
        pytest.param(
            lambda c: c[UldpGroup](
                group_size=2, local_steps=1, expected_batch_size=64
            ),
            id="group",
        ),
    ],
)
def test_cnn_engines_agree(image_fed, make_method):
    """The convolutional (NHWC shared-weight) engine path on the MNIST CNN."""
    assert_engines_agree(
        make_method,
        image_fed,
        model_builder=lambda r: build_mnist_cnn(r, image_size=14),
        atol=ATOL_CNN,
    )


def test_invalid_engine_rejected():
    """No method constructor takes ``engine`` any more, and a spec that
    names one fails the ordinary unknown-key check."""
    from repro.api.spec import RunSpec, SpecError

    for cls in LOOP:
        with pytest.raises(TypeError):
            cls(engine="loop")
    with pytest.raises(SpecError, match=r"method\.engine"):
        RunSpec.from_dict({"method": {"engine": "loop"}})

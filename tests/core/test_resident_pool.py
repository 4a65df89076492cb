"""The resident pool: a shard task names its records, the workers hold them.

``ShardedEngine.bind`` installs the method's federation and template model
in every process that runs its tasks; ``UldpAvg._shard_payloads`` then
plans tasks that carry ``(silo, user ids, schedules)`` and no model.  What
is pinned here: such a task trains on exactly the rows an inline task
would (bit for bit against the walk over the row view,
``oracle_loop.segment_payloads``, for every execution layout), it can not be resolved against another federation, a closed pool
comes back holding the same context, a task stays small, and the worker's
per-template state is built once per process.
"""

import copy
import functools
import multiprocessing
import os
import pickle

import numpy as np
import pytest
from oracle_loop import segment_payloads

import repro.core.engine as engine_module
from repro.core import Trainer, UldpAvg, UldpSgd
from repro.core.engine import (
    EngineConfig,
    ResidentMismatchError,
    ShardedEngine,
    make_shard_task,
    plan_shards,
)
from repro.data import build_creditcard_benchmark
from repro.nn import build_tiny_mlp
from repro.nn.model import Sequential


def _fed(seed=0, n_users=300):
    return build_creditcard_benchmark(
        n_users=n_users, n_silos=2, n_records=1500, n_test=60, seed=seed,
        distribution="zipf",
    )


def _model():
    return build_tiny_mlp(30, 8, 2, np.random.default_rng(1))


@pytest.fixture(scope="module")
def fed():
    return _fed()


def _prepared(cls, fed, batch_size, engine=None):
    method = cls(weighting="proportional")
    # ULDP-SGD's constructor has no batch size (its kernel reads none); the
    # schedules are still drawn, carried and ignored, like any job's.
    method.batch_size = batch_size
    method.prepare(fed, _model(), np.random.default_rng(5), engine=engine)
    return method


def _inline_payloads(method, params, weights, noise_std, active):
    """What ``bench/probes.py`` does: ``LocalJob`` lists and an explicit
    model through the method's own pool (then the release's cast)."""
    engine = method.shard_engine
    payloads = []
    for s in active:
        users, jobs, noise = method._draw_silo(s, weights[s], noise_std, params.size)
        w = weights[s, users]
        tasks = [
            make_shard_task(
                mode=method.local_kernel, model=method.model, task=method.fed.task,
                params=params, jobs=jobs[a:b], weights=w[a:b], clip=method.clip,
                scale=engine.scale(method.clip), silo=s, shard=i,
                lr=method.local_lr, epochs=method.local_epochs,
                backend=engine.config.backend,
            )
            for i, (a, b) in enumerate(
                plan_shards(len(jobs), engine.config.aligned_shard_size))
        ]
        if tasks:
            noise = noise + engine.reduce(engine.run_tasks(tasks)).total()
        payloads.append((s, users, noise.astype(method.payload_dtype)))
    return payloads


#: Users per silo each roster leaves with non-zero weight.  "full": 128 and
#: 256 plan a ragged last shard, 1024 a single one.  "zero-weight-shard":
#: every user of silo 0's second 128-user shard departed.  "empty-silo":
#: silo 1's users all departed, so it plans no task and sends its noise.
ROSTERS = {
    "full": [233, 230],
    "zero-weight-shard": [128, 230],
    "empty-silo": [233, 0],
}


def _roster_weights(weights, fed, roster):
    weights = weights.copy()
    if roster == "zero-weight-shard":
        weights[0, fed.silos[0].users_present()[128:]] = 0.0
    elif roster == "empty-silo":
        weights[1] = 0.0
    return weights


@pytest.mark.parametrize("roster", sorted(ROSTERS))
@pytest.mark.parametrize("batch_size", [None, 4], ids=["full-batch", "batch4"])
@pytest.mark.parametrize("cls", [UldpAvg, UldpSgd], ids=["delta", "gradient"])
def test_every_carrier_and_layout_matches_the_walk(fed, cls, batch_size, roster):
    walker = _prepared(cls, fed, batch_size)
    params = walker.model.get_flat_params()
    weights = _roster_weights(walker.weights, fed, roster)
    noise_std = walker._noise_std()
    active = list(range(fed.n_silos))
    walk = segment_payloads(walker, params, weights, noise_std, active)
    assert [len(users) for _, users, _ in walk] == ROSTERS[roster]

    for workers in (0, 1, 2):
        for shard_size in (128, 256, 1024):
            method = _prepared(
                cls, fed, batch_size,
                engine=EngineConfig(workers=workers, shard_size=shard_size),
            )
            try:
                for carrier in (method._shard_payloads, _inline_payloads):
                    start = method.rng.bit_generator.state
                    if carrier is _inline_payloads:
                        got = carrier(method, params, weights, noise_std, active)
                    else:
                        got = carrier(params, weights, noise_std, active)
                    assert method.rng.bit_generator.state == start
                    for (s, users, payload), (s_w, users_w, want) in zip(got, walk):
                        assert (s, users) == (s_w, users_w)
                        assert payload.tobytes() == want.tobytes(), (
                            f"{carrier.__name__} workers={workers} "
                            f"shard_size={shard_size} silo={s} diverged"
                        )
            finally:
                method.close()


def _walk(method):
    """Route ``method``'s in-process rounds through the row-view walk."""
    method._shard_payloads = lambda *args: segment_payloads(method, *args)


def _run(fed, engine=None, walk=False, rounds=3, **kwargs):
    method = UldpAvg(weighting="proportional", **kwargs)
    if walk:
        _walk(method)
    trainer = Trainer(fed, method, rounds=rounds, model=_model(), seed=2, engine=engine)
    trainer.run()
    return trainer.model.get_flat_params().tobytes(), method.epsilon(1e-5)


def test_subsampled_rounds_match_the_walk(fed):
    # Poisson user sampling: a different user list, shard plan and bucket
    # sequence every round.
    want = _run(fed, walk=True, user_sample_rate=0.5)
    for workers in (0, 2):
        got = _run(fed, EngineConfig(workers=workers, shard_size=128),
                   user_sample_rate=0.5)
        assert got == want


def test_flaky_silos_rounds_match_the_walk():
    from repro.api import RunSpec
    from repro.api.runner import build_simulator

    spec = RunSpec.from_dict({
        "seed": 2,
        "sim": {"scenario": "flaky-silos", "scale": "smoke"},
        "method": {"name": "uldp-avg-w", "local_epochs": 2},
    })

    def final(walk, workers):
        sim = build_simulator(spec)
        method = sim.method
        if walk:
            _walk(method)
        if workers:
            method.shard_engine = ShardedEngine(
                EngineConfig(workers=workers, shard_size=128))
            method.shard_engine.bind(sim.fed, sim.trainer.model)
        try:
            sim.run()
        finally:
            method.close()
        seen = [(p.silos_seen, p.users_seen) for p in sim.history.participation]
        return sim.trainer.params.tobytes(), seen

    want = final(True, 0)
    assert len({silos for silos, _ in want[1]}) > 1  # silos did drop out
    assert final(False, 0) == want
    assert final(False, 2) == want


def test_spawned_workers_hold_a_pickled_copy(fed, monkeypatch):
    if "spawn" not in multiprocessing.get_all_start_methods():
        pytest.skip("no spawn start method on this platform")
    want = _run(fed, walk=True, rounds=2, local_epochs=2, batch_size=4)
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: spawn)
    got = _run(fed, EngineConfig(workers=1, shard_size=128), rounds=2,
               local_epochs=2, batch_size=4)
    assert got == want


def _planned_tasks(method, params):
    """The tasks one round of ``method`` plans, captured unrun."""
    captured = []
    engine = method.shard_engine
    real = engine.run_tasks
    engine.run_tasks = lambda tasks: captured.extend(tasks) or real(tasks)
    try:
        method._shard_payloads(
            params, method.weights, method._noise_std(),
            list(range(method.fed.n_silos)))
    finally:
        del engine.run_tasks
    return captured


def test_a_task_carries_ids_not_records():
    fed = build_creditcard_benchmark(
        n_users=400, n_silos=2, n_records=6000, n_test=60, seed=0)
    method = _prepared(UldpAvg, fed, None, EngineConfig(shard_size=256))
    params = method.model.get_flat_params()
    task = _planned_tasks(method, params)[0]
    n_users = len(task["weights"])
    assert n_users == 256 and task["model"] is None
    assert task["jobs"]["schedules"] is None
    budget = params.nbytes + task["weights"].nbytes + 8 * n_users + 4096
    assert len(pickle.dumps(task)) <= budget
    # What it used to cost: the same shard with its records and model inline.
    inline = dict(task, model=method.model, jobs=engine_module._pack_jobs(
        engine_module.resident_jobs(task["jobs"])))
    assert len(pickle.dumps(inline)) > 4 * budget


@pytest.mark.parametrize("workers", [0, 1])
def test_a_task_is_refused_by_a_process_holding_another_federation(fed, workers):
    other = _fed(seed=7)
    method = _prepared(UldpAvg, fed, None, EngineConfig(workers=workers, shard_size=128))
    engine = method.shard_engine
    try:
        params = method.model.get_flat_params()
        tasks = _planned_tasks(method, params)
        # The engine moves on to another method's federation (a sweep
        # sharing one engine); the first method's tasks are now stale.
        engine.bind(other, method.model)
        with pytest.raises(ResidentMismatchError) as refusal:
            engine.run_tasks(tasks)
        assert str(fed.token()) in str(refusal.value)
        assert str(other.token()) in str(refusal.value)
        # Inline jobs with their own model name nothing, so they still run.
        inline = [dict(tasks[0], model=method.model, jobs=engine_module._pack_jobs([]),
                       weights=np.zeros(0))]
        assert engine.run_tasks(inline)[0]["n_jobs"] == 0
    finally:
        method.close()


def test_an_unbound_engine_refuses_by_reference_tasks(fed):
    method = _prepared(UldpAvg, fed, None, EngineConfig(shard_size=128))
    tasks = _planned_tasks(method, method.model.get_flat_params())
    for workers in (0, 1):
        engine = ShardedEngine(EngineConfig(workers=workers))
        try:
            with pytest.raises(ResidentMismatchError, match="holds None"):
                engine.run_tasks(tasks[:1])
        finally:
            engine.close()


def test_prepare_on_another_federation_replaces_the_pool(fed):
    other = _fed(seed=7)
    config = EngineConfig(workers=1, shard_size=128)
    method = UldpAvg(weighting="proportional")
    try:
        method.prepare(fed, _model(), np.random.default_rng(5), engine=config)
        method.round(0, method.model.get_flat_params())
        assert method.shard_engine._executor is not None  # holding ``fed``
        model = _model()
        method.prepare(other, model, np.random.default_rng(5), engine=config)
        assert method.shard_engine._executor is None
        got = method.round(0, model.get_flat_params()).params
    finally:
        method.close()
    fresh = UldpAvg(weighting="proportional")
    fresh.prepare(other, _model(), np.random.default_rng(5))
    assert got.tobytes() == fresh.round(0, model.get_flat_params()).params.tobytes()


@pytest.mark.parametrize("workers", [0, 2])
def test_close_then_reuse_reinstalls_the_context(fed, workers):
    config = EngineConfig(workers=workers, shard_size=128)

    def two_rounds(close_between):
        method = UldpAvg(weighting="proportional")
        method.prepare(fed, _model(), np.random.default_rng(5), engine=config)
        try:
            params = method.round(0, method.model.get_flat_params()).params
            if close_between:
                method.close()
                assert method.shard_engine._executor is None
                # Whatever this process resolved last is not what counts.
                engine_module.install_resident(None, None)
            return method.round(1, params).params.tobytes()
        finally:
            method.close()

    assert two_rounds(True) == two_rounds(False)


def test_a_worker_copies_the_template_once(fed, monkeypatch):
    # The single-step kernel binds the round's parameters to a scratch copy
    # of the template, keyed by the template object.  The worker's template
    # is resident -- one object for the life of the process -- so that is
    # one deepcopy per worker, not one per task.
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("counts in a forked worker")
    parent = os.getpid()
    copies = multiprocessing.get_context("fork").Value("i", 0)
    real = copy.deepcopy

    def counting(obj, *args, **kwargs):
        if os.getpid() != parent and isinstance(obj, Sequential):
            with copies.get_lock():
                copies.value += 1
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(copy, "deepcopy", counting)
    method = UldpAvg(weighting="proportional", local_epochs=1)
    tasks = []
    trainer = Trainer(fed, method, rounds=2, model=_model(), seed=2,
                      engine=EngineConfig(workers=1, shard_size=128))
    run_tasks = method.shard_engine.run_tasks
    method.shard_engine.run_tasks = lambda ts: tasks.extend(ts) or run_tasks(ts)
    trainer.run()
    assert len(tasks) >= 6  # several tasks a round, two rounds
    assert copies.value == 1


def test_an_explicit_model_of_the_resident_architecture_is_the_resident_one(fed):
    # The kernels read a template's structure only (values come from the
    # task's params), so an inline task's own copy of the template runs on
    # the resident object's warm float32 scratch copy (a single-step
    # method's kernel builds one per template); another architecture runs
    # as sent.
    from repro.nn.batched import _SCRATCH_MODELS

    single_step = functools.partial(UldpAvg, local_epochs=1)
    method = _prepared(single_step, fed, None, EngineConfig(shard_size=128))
    params = method.model.get_flat_params()
    by_reference = _planned_tasks(method, params)[0]
    jobs = engine_module.resident_jobs(by_reference["jobs"])
    twin = pickle.loads(pickle.dumps(method.model))
    assert twin.architecture() == method.model.architecture()
    inline = dict(by_reference, model=twin, jobs=engine_module._pack_jobs(jobs))
    want, got = method.shard_engine.run_tasks([by_reference, inline])
    assert got["state"].keys() == want["state"].keys()
    for key, value in want["state"].items():
        assert np.array_equal(got["state"][key], value)
    assert method.model in _SCRATCH_MODELS and twin not in _SCRATCH_MODELS

    wider = build_tiny_mlp(30, 9, 2, np.random.default_rng(1))
    assert wider.architecture() != method.model.architecture()
    task = dict(inline, model=wider, params=wider.get_flat_params())
    method.shard_engine.run_tasks([task])
    assert wider in _SCRATCH_MODELS


@pytest.mark.parametrize("workers", [0, 2])
def test_the_parent_fetches_each_pair_once_a_round(workers):
    # ``bench/harness.py`` counts a run's (silo, user) updates by shadowing
    # each silo's ``records_of_user`` *instance attribute* in the parent:
    # the planning pass must go through it once per pair per round, and
    # resolving a task (in this process when ``workers = 0``) must not.
    fed = _fed()
    fetched = []
    for silo in fed.silos:
        def counted(user, _inner=silo.records_of_user):
            fetched.append(user)
            return _inner(user)
        silo.records_of_user = counted
    method = UldpAvg(weighting="proportional")
    trainer = Trainer(fed, method, rounds=2, model=_model(), seed=2,
                      engine=EngineConfig(workers=workers, shard_size=128))
    trainer.run()
    assert len(fetched) == 2 * np.count_nonzero(method.weights)

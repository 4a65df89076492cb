"""ShardedEngine: plans, kernels, and the worker-count bit-identity claim.

The contract under test (docs/scaleout.md): for a fixed ordered job
list, the reduced aggregate is byte-identical for any worker count and
any micro-batch-aligned shard size, because (a) every kernel consumes
jobs in fixed MICRO_BATCH chunks, (b) chunk partials fold into a
BinnedSum whose merge is exact, and (c) results reduce in shard order.
"""

import numpy as np
import pytest

from repro.core.engine import (
    MICRO_BATCH,
    EngineConfig,
    LocalJob,
    ShardedEngine,
    batched_clipped_gradients,
    batched_clipped_local_deltas,
    clipped_rows,
    fold_clipped_rows,
    fold_weighted_rows,
    make_shard_task,
    plan_shards,
    run_shard_task,
)
from repro.core.reduce import BinnedSum, fold_scale
from repro.nn import build_logistic
from repro.nn.backend import get_backend


def _jobs(rng, n, d=6, rows=5):
    return [
        LocalJob(
            x=rng.standard_normal((rows, d)),
            y=(rng.random(rows) < 0.5).astype(np.float64),
        )
        for _ in range(n)
    ]


def _tasks(model, params, jobs, weights, shard_size, mode="delta"):
    scale = fold_scale(1.0, MICRO_BATCH)
    out = []
    for i, (a, b) in enumerate(plan_shards(len(jobs), shard_size)):
        out.append(
            make_shard_task(
                mode=mode,
                model=model,
                task="binary",
                params=params,
                jobs=jobs[a:b],
                weights=weights[a:b],
                clip=1.0,
                scale=scale,
                silo=0,
                shard=i,
                lr=0.05,
                epochs=1,
            )
        )
    return out


class TestPlanShards:
    def test_alignment(self):
        for n in (1, MICRO_BATCH - 1, MICRO_BATCH, MICRO_BATCH + 1, 1000):
            for size in (MICRO_BATCH, 2 * MICRO_BATCH, 5 * MICRO_BATCH):
                spans = plan_shards(n, size)
                assert spans[0][0] == 0 and spans[-1][1] == n
                for (a, b), (c, _) in zip(spans, spans[1:]):
                    assert b == c
                    assert a % MICRO_BATCH == 0
                assert all(b - a <= size for a, b in spans)

    def test_unaligned_size_rounds_up(self):
        # plan_shards aligns internally, so any caller-supplied size
        # yields MICRO_BATCH-aligned boundaries.
        spans = plan_shards(3 * MICRO_BATCH, MICRO_BATCH + 1)
        assert spans == [(0, 2 * MICRO_BATCH), (2 * MICRO_BATCH, 3 * MICRO_BATCH)]

    def test_empty(self):
        assert plan_shards(0, MICRO_BATCH) == []

    def test_config_aligns_shard_size(self):
        cfg = EngineConfig(shard_size=1)
        assert cfg.aligned_shard_size == MICRO_BATCH
        cfg = EngineConfig(shard_size=MICRO_BATCH + 1)
        assert cfg.aligned_shard_size == 2 * MICRO_BATCH


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(workers=-1)
        with pytest.raises(ValueError):
            EngineConfig(shard_size=0)
        with pytest.raises(ValueError):
            EngineConfig(backend="jax")


class TestMakeShardTask:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            make_shard_task(
                mode="nope", model=None, task="binary", params=np.zeros(1),
                jobs=[], weights=np.zeros(0), clip=1.0, scale=1.0,
                silo=0, shard=0,
            )

    def test_weight_job_mismatch(self):
        rng = np.random.default_rng(0)
        model = build_logistic(np.random.default_rng(1), in_features=6)
        task = make_shard_task(
            mode="delta", model=model, task="binary",
            params=model.get_flat_params(), jobs=_jobs(rng, 3),
            weights=np.full(2, 0.1), clip=1.0,
            scale=fold_scale(1.0, MICRO_BATCH), silo=0, shard=0, lr=0.05,
        )
        with pytest.raises(ValueError, match="weights"):
            run_shard_task(task)


class TestBitIdentity:
    @pytest.fixture()
    def setup(self):
        rng = np.random.default_rng(7)
        jobs = _jobs(rng, 300)
        model = build_logistic(np.random.default_rng(1), in_features=6)
        params = model.get_flat_params()
        weights = np.random.default_rng(2).uniform(0.0, 1.0 / 300, 300)
        return model, params, jobs, weights

    def _total(self, tasks, workers, shard_size):
        engine = ShardedEngine(EngineConfig(workers=workers, shard_size=shard_size))
        try:
            return engine.reduce(engine.run_tasks(tasks)).total()
        finally:
            engine.close()

    @pytest.mark.parametrize("mode", ["delta", "gradient"])
    def test_workers_and_shard_size_invariance(self, setup, mode):
        model, params, jobs, weights = setup
        ref_tasks = _tasks(model, params, jobs, weights, MICRO_BATCH, mode=mode)
        ref = self._total(ref_tasks, 0, MICRO_BATCH)
        for workers, size in [(0, 2 * MICRO_BATCH), (2, MICRO_BATCH), (2, 4096)]:
            tasks = _tasks(model, params, jobs, weights, size, mode=mode)
            assert self._total(tasks, workers, size).tobytes() == ref.tobytes(), (
                f"{mode}: workers={workers} shard_size={size} diverged"
            )

    def test_matches_direct_fold(self, setup):
        # The shard tasks' merged partials equal folding the materialised
        # clipped delta matrix with the same chunking -- the row-view walk
        # the carrier tests compare against (oracle_loop.segment_payloads).
        model, params, jobs, weights = setup
        rows, _ = batched_clipped_local_deltas(
            model, "binary", params, jobs, lr=0.05, epochs=1, clip=1.0
        )
        acc = BinnedSum(params.size, fold_scale(1.0, MICRO_BATCH))
        fold_weighted_rows(acc, weights, rows, get_backend("numpy"))
        tasks = _tasks(model, params, jobs, weights, 4096)
        assert self._total(tasks, 0, 4096).tobytes() == acc.total().tobytes()


class TestFoldClippedRows:
    """The one fold every silo payload takes (``fold_clipped_rows``) and
    the kernel dispatch under it (``clipped_rows``)."""

    @pytest.fixture()
    def setup(self):
        rng = np.random.default_rng(11)
        jobs = _jobs(rng, 2 * MICRO_BATCH + 44)  # three micro-batches
        model = build_logistic(np.random.default_rng(1), in_features=6)
        weights = np.random.default_rng(3).uniform(0.0, 1.0 / len(jobs), len(jobs))
        return model, model.get_flat_params(), jobs, weights

    @pytest.mark.parametrize("mode", ["delta", "gradient"])
    def test_dispatches_to_the_kernel(self, setup, mode):
        model, params, jobs, _ = setup
        got = clipped_rows(mode, model, "binary", params, jobs, 0.5, 0.05, 1).copy()
        if mode == "delta":
            want, _ = batched_clipped_local_deltas(
                model, "binary", params, jobs, lr=0.05, epochs=1, clip=0.5)
        else:
            want, _ = batched_clipped_gradients(model, "binary", params, jobs, 0.5)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "mode, epochs", [("delta", 1), ("delta", 2), ("gradient", 1)])
    def test_equals_folding_the_materialised_rows(self, setup, mode, epochs):
        # Chunk by chunk, the fold adds exactly what one fold_weighted_rows
        # over the whole row matrix adds -- the row-view walk's bits.
        model, params, jobs, weights = setup
        scale = fold_scale(1.0, MICRO_BATCH)
        want = BinnedSum(params.size, scale)
        rows = clipped_rows(mode, model, "binary", params, jobs, 1.0, 0.05, epochs)
        fold_weighted_rows(want, weights, rows, get_backend("numpy"))
        want = want.total()
        got = BinnedSum(params.size, scale)
        fold_clipped_rows(
            got, mode, model, "binary", params, jobs, weights, 1.0, "numpy",
            0.05, epochs)
        assert got.total().tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", ["delta", "gradient"])
    def test_every_row_lands_on_a_tiny_clip(self, setup, mode):
        # With a clip far below every local vector's norm, each row is
        # scaled onto the clip sphere (Algorithm 3 line 16).
        model, params, jobs, _ = setup
        rows = clipped_rows(mode, model, "binary", params, jobs, 1e-6, 0.05, 1)
        np.testing.assert_allclose(
            np.linalg.norm(rows, axis=1), 1e-6, rtol=1e-9, atol=0)

    def test_no_jobs_fold_nothing(self, setup):
        model, params, _, _ = setup
        acc = BinnedSum(params.size, fold_scale(1.0, MICRO_BATCH))
        fold_clipped_rows(
            acc, "delta", model, "binary", params, [], np.zeros(0), 1.0,
            "numpy", 0.05, 1)
        assert not acc.total().any()

    def test_shard_result_carries_no_clip_factors(self, setup):
        model, params, jobs, weights = setup
        (task,) = _tasks(model, params, jobs, weights, 4096)
        assert set(run_shard_task(task)) == {
            "shard", "silo", "n_jobs", "state", "seconds"}


def test_engine_reuse_and_close():
    engine = ShardedEngine(EngineConfig(workers=2, shard_size=MICRO_BATCH))
    assert engine.run_tasks([]) == []
    engine.close()
    engine.close()  # idempotent

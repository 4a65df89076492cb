"""Vectorized multi-user local-training engine (the hot path of ULDP-AVG).

ULDP-AVG's defining cost is that every silo trains a *separate* per-user
model delta each round (Algorithm 3), which the straightforward
implementation realises as a Python loop over |S| x |U| tiny training runs:
clone the model, load the global parameters, run Q local epochs on a
handful of records.  This module replaces that loop with one batched
computation: all sampled users of a silo are stacked into a padded
``(n_users, batch, features)`` tensor, a :class:`repro.nn.model.BatchedSequential`
holds one parameter copy per user, and the Q local epochs run as batched
forward/backward passes -- returning the full matrix of per-user deltas in
one shot.  Per-user clipping then becomes a row-wise operation
(:func:`repro.core.clipping.l2_clip_rows`) and aggregation a weighted
matmul.

Equivalence contract: for every job the batched computation performs the
same linear algebra as a per-user training loop -- same initial
parameters, same minibatch partitions, same loss normalisation, same
degenerate-batch skipping -- so it reproduces that loop's round aggregates
up to floating-point reassociation.  The loop is kept as the test oracle
``tests/core/oracle_loop.py`` and the agreement verified to
``atol <= 1e-10`` by ``tests/core/test_engine_equivalence.py``.
Randomness discipline: the engine itself never consumes RNG.  Minibatch
orders are pre-drawn by the caller with :func:`draw_minibatch_schedule`
in exactly the order the loop draws them, which keeps the two random
streams -- and hence their noise draws -- bit-identical.

Micro-batching discipline: BLAS reductions are composition-dependent at
the ULP level, so a job's row bits change whenever the set of jobs it is
batched with changes.  To make results independent of *how work is
split* (shard size, worker count), the engine always processes jobs in
fixed consecutive chunks of :data:`MICRO_BATCH` -- each chunk is one
numerical batch whose composition depends only on the job's position in
the caller's ordered job list.  Shard boundaries are aligned to
micro-batch multiples (:func:`plan_shards`), so a shard computes exactly
the micro-batches the single-process path would, and the streamed
partial sums combine through the exact :class:`repro.core.reduce.BinnedSum`
fold -- making the sharded path bit-identical to the in-process
path for any ``workers``/``shard_size``.

This is the only training engine the methods run.  :class:`ShardedEngine`
distributes it across a worker pool (PR 2's picklable-kernel +
``ProcessPoolExecutor`` pattern) when ``[engine] workers > 0``.  The
pool is *resident*: each worker holds the method's federation and
template model for its lifetime (:func:`install_resident`), so a round's
tasks name their records -- ``(silo, user ids)``, :func:`resident_jobs` --
instead of carrying them, and the per-template caches below are built
once per process.
"""

from __future__ import annotations

import copy
import importlib
import multiprocessing
import sys
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.metrics import make_batched_loss, make_loss
from repro.core.reduce import BinnedSum, fold_scale, tree_reduce
from repro.nn.backend import ArrayBackend, get_backend, validate_backend
from repro.nn.batched import per_group_gradients
from repro.nn.clip import clip_factor_from_norms, clip_factor_rows, l2_clip_rows
from repro.nn.model import Sequential, batch_model
from repro.nn.workspace import WORKSPACE
from repro.obs.metrics import get_registry
from repro.obs.trace import get_recorder

#: Jobs per numerical batch.  Every engine entry point processes its job
#: list in consecutive chunks of this size, so a job's floating-point
#: result depends only on its position in the ordered job list -- never
#: on how many jobs happen to share the same call (see the module
#: docstring).  128 keeps the padded tensors comfortably in cache while
#: amortising the per-batch Python overhead.
MICRO_BATCH = 128

#: Default users per shard task (``[engine] shard_size``); a multiple of
#: :data:`MICRO_BATCH` so default plans are always aligned.
DEFAULT_SHARD_SIZE = 4096


#: One scratch copy of each template model per process: the shared-weight
#: walk reads parameters from layer arrays, so the round's flat ``params``
#: are bound to a model -- never the caller's, which the engine does not
#: write.  Copied once per template *object*, re-bound per call; a pool
#: worker's template is resident, so that is once per worker.
_STEP_MODELS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _model_at(model: Sequential, params: np.ndarray) -> Sequential:
    """The process's scratch copy of ``model``, holding ``params``."""
    local = _STEP_MODELS.get(model)
    if local is None:
        local = _STEP_MODELS[model] = copy.deepcopy(model)
    local.set_flat_params(params)
    return local


@dataclass
class LocalJob:
    """One local optimisation problem: a (silo, user) or silo dataset.

    ``schedule`` carries pre-drawn minibatch index arrays (see
    :func:`draw_minibatch_schedule`); ``None`` means full-batch descent,
    the ULDP-AVG default for tiny per-user datasets.
    """

    x: np.ndarray
    y: np.ndarray
    schedule: list[list[np.ndarray]] | None = field(default=None)

    @property
    def n(self) -> int:
        return len(self.x)


def draw_minibatch_schedule(
    n: int, batch_size: int | None, epochs: int, rng: np.random.Generator
) -> list[list[np.ndarray]] | None:
    """Pre-draw the minibatch partition :func:`repro.nn.train.train_epochs` would use.

    Consumes the RNG exactly as the loop path does: one permutation per
    epoch when the effective batch is smaller than the dataset, nothing
    otherwise (full-batch iteration draws no randomness).  Returns ``None``
    in the full-batch case so callers can tell the two apart.
    """
    if n < 1:
        raise ValueError("cannot schedule an empty dataset")
    batch = n if batch_size is None else max(1, min(batch_size, n))
    if batch >= n:
        return None
    schedule: list[list[np.ndarray]] = []
    for _ in range(max(0, epochs)):
        order = rng.permutation(n)
        schedule.append([order[start : start + batch] for start in range(0, n, batch)])
    return schedule


def _stack_jobs(jobs: list[LocalJob]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad and stack job datasets into (G, Nmax, ...) tensors plus a mask."""
    n_max = max(job.n for job in jobs)
    x0, y0 = np.asarray(jobs[0].x), np.asarray(jobs[0].y)
    xs = np.zeros((len(jobs), n_max, *x0.shape[1:]), dtype=np.float64)
    ys = np.zeros((len(jobs), n_max, *y0.shape[1:]), dtype=np.float64)
    mask = np.zeros((len(jobs), n_max), dtype=bool)
    for g, job in enumerate(jobs):
        xs[g, : job.n] = job.x
        ys[g, : job.n] = job.y
        mask[g, : job.n] = True
    return xs, ys, mask


def _size_buckets(jobs: list[LocalJob]) -> list[list[int]]:
    """Partition job indices into buckets of similar record count.

    Stacking pads every job to the largest job's length; when counts are
    skewed (zipf user allocations) that wastes most of the tensor on
    padding.  Bucketing by next-power-of-two record count bounds the
    padding overhead at 2x while keeping the bucket count logarithmic.
    Jobs are independent, so splitting changes no results.  Buckets are
    formed *within* one micro-batch, so bucketing never mixes jobs across
    the fixed numerical chunks.
    """
    buckets: dict[int, list[int]] = {}
    for i, job in enumerate(jobs):
        key = max(1, job.n - 1).bit_length()
        buckets.setdefault(key, []).append(i)
    return [buckets[key] for key in sorted(buckets)]


def _train_bucket(
    model: Sequential,
    task: str,
    params: np.ndarray,
    jobs: list[LocalJob],
    lr: float,
    epochs: int,
) -> np.ndarray:
    """Train one bucket of jobs in lockstep; returns their delta matrix."""
    bm = batch_model(model, len(jobs), reuse=True)
    bm.set_flat_params(params)
    loss = make_batched_loss(task, model)
    xs, ys, mask = _stack_jobs(jobs)
    group_idx = np.arange(len(jobs))[:, None]
    full_batch = all(job.schedule is None for job in jobs)

    def step(xb, yb, valid) -> None:
        pred = bm.forward(xb)
        loss.forward(pred, yb, valid)
        bm.backward(loss.backward())  # writes the gradients: nothing to zero
        for p, g in zip(bm.params, bm.grads):
            np.multiply(g, lr, out=g)
            p -= g

    for epoch in range(max(0, epochs)):
        if full_batch:
            # All records of every job, one step an epoch, no gather needed.
            step(xs, ys, mask)
            continue
        # A full-batch job in a scheduled bucket steps once, on all it has.
        per_job = [
            [np.arange(job.n)] if job.schedule is None else job.schedule[epoch]
            for job in jobs
        ]
        for at in range(max(len(steps) for steps in per_job)):
            batches = [
                steps[at] if at < len(steps) else np.zeros(0, dtype=np.int64)
                for steps in per_job
            ]
            b_max = max(len(b) for b in batches)
            if b_max == 0:
                continue
            idx = np.full((len(jobs), b_max), -1, dtype=np.int64)
            for g, b in enumerate(batches):
                idx[g, : len(b)] = b
            valid = idx >= 0
            safe = np.where(valid, idx, 0)
            step(xs[group_idx, safe], ys[group_idx, safe], valid)
    return bm.get_flat_params() - params[None, :]


def _micro_batches(n: int) -> list[tuple[int, int]]:
    """The fixed ``[start, stop)`` chunking of an ``n``-job list."""
    return [(s, min(s + MICRO_BATCH, n)) for s in range(0, n, MICRO_BATCH)]


def _shared_step(local, loss, jobs, out, row_scale=None) -> None:
    """Per-job gradients of one micro-batch at ``local``'s parameters, via
    :func:`repro.nn.batched.per_group_gradients`, into ``out``."""
    x = np.concatenate([np.asarray(job.x, dtype=np.float64) for job in jobs])
    y = np.concatenate([np.asarray(job.y, dtype=np.float64) for job in jobs])
    per_group_gradients(
        local, loss, x, y, [job.n for job in jobs], out=out, row_scale=row_scale
    )


def _local_deltas(model, task, params, jobs, lr, epochs, clip=None):
    """``(rows, factors)`` of a non-empty job list, micro-batch by
    micro-batch into the workspace's row block; ``clip=None`` leaves the
    deltas unclipped (factors all 1).

    Single-step shortcut: one full-batch epoch (the paper's ULDP-AVG
    setting for figure benchmarks) never diverges the per-group parameters,
    so the deltas are one SGD step from the shared model and their norms
    ``lr`` times the gradient norms -- clip-and-descend fuses into the
    shared-weight walk's single assembly pass.  The general path trains in
    similar-size buckets (:func:`_size_buckets`), then clips in place.
    """
    out = WORKSPACE.result((len(jobs), params.size))
    factors = np.ones(len(jobs))
    local = _model_at(model, params) if epochs == 1 else None
    loss = make_loss(task, model)
    for start, stop in _micro_batches(len(jobs)):
        chunk, rows, f = jobs[start:stop], out[start:stop], factors[start:stop]
        if epochs == 1 and all(job.schedule is None for job in chunk):

            def clip_and_descend(grad_norms: np.ndarray, f=f) -> np.ndarray:
                # The delta of one full-batch step has norm lr * ||gradient||.
                f[...] = clip_factor_from_norms(lr * grad_norms, clip)
                return -lr * f

            fused = clip_and_descend if clip is not None else None
            _shared_step(local, loss, chunk, rows, fused)
            if clip is None:
                np.multiply(rows, -lr, out=rows)
        else:
            for indices in _size_buckets(chunk):
                rows[indices] = _train_bucket(
                    model, task, params, [chunk[i] for i in indices], lr, epochs
                )
            if clip is not None:
                f[...] = clip_factor_rows(rows, clip)
                l2_clip_rows(rows, clip, out=rows, factors=f)
    return out, factors


def batched_local_deltas(
    model: Sequential,
    task: str,
    params: np.ndarray,
    jobs: list[LocalJob],
    lr: float,
    epochs: int,
) -> np.ndarray:
    """Per-job model deltas after local SGD, computed in batched runs.

    Every job starts from the flat global ``params`` and trains for
    ``epochs`` passes with learning rate ``lr`` on its own records; the
    return value is the ``(len(jobs), P)`` matrix of deltas
    ``local - global``, row-aligned with ``jobs``.  The per-row result
    matches a plain ``train_epochs`` run on that job (the loop oracle) up
    to floating-point reassociation.  Jobs run in fixed micro-batches (see
    the module docstring; :func:`_local_deltas` for the two kernels).  The
    result is the workspace's row block: valid until the next engine call.
    """
    if not jobs:
        return np.zeros((0, params.size))
    return _local_deltas(model, task, params, jobs, lr, epochs)[0]


def batched_clipped_local_deltas(
    model: Sequential,
    task: str,
    params: np.ndarray,
    jobs: list[LocalJob],
    lr: float,
    epochs: int,
    clip: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-job *clipped* local-training deltas plus their clip factors.

    Returns ``(clipped, factors)`` where ``clipped[g]`` is job g's model
    delta scaled to l2 norm at most ``clip`` and ``factors[g]`` the applied
    ``min(1, clip / ||delta||)`` (0 for non-finite deltas, 1 for zero ones)
    -- the Algorithm 3 line 16 quantities for a whole silo round at once.
    The rows are the workspace's row block: valid until the next engine call.
    """
    if clip <= 0:
        raise ValueError("clip bound must be positive")
    if not jobs:
        return np.zeros((0, params.size)), np.zeros(0)
    with get_recorder().span(
        "local_training", kind="phase", jobs=len(jobs), epochs=epochs
    ):
        return _local_deltas(model, task, params, jobs, lr, epochs, clip)


def batched_gradients(
    model: Sequential,
    task: str,
    params: np.ndarray,
    jobs: list[LocalJob],
) -> np.ndarray:
    """Per-job full-batch mean gradients at ``params``, in batched passes.

    The ``(len(jobs), P)`` result matches the loop oracle's ``gradient()``
    (``tests/core/oracle_loop.py``) row by row; jobs on which the loss is
    undefined (degenerate Cox batches) yield zero rows, the same
    convention as the loop.

    Because every job is evaluated at the *same* parameters, this runs
    through the shared-weight engine: one unpadded forward/backward per
    micro-batch over the chunk's records with per-group segmented
    parameter reductions.  The result is the workspace's row block: valid
    until the next engine call.
    """
    if not jobs:
        return np.zeros((0, params.size))
    with get_recorder().span("local_gradients", kind="phase", jobs=len(jobs)):
        out = WORKSPACE.result((len(jobs), params.size))
        local = _model_at(model, params)
        loss = make_loss(task, local)
        for start, stop in _micro_batches(len(jobs)):
            _shared_step(local, loss, jobs[start:stop], out[start:stop])
        return out


def batched_clipped_gradients(
    model: Sequential,
    task: str,
    params: np.ndarray,
    jobs: list[LocalJob],
    clip: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-job *negated, clipped* full-batch gradients plus their clip
    factors -- ULDP-SGD's local vector (Algorithm 3 line 22), the gradient
    twin of :func:`batched_clipped_local_deltas`.  A row depends only on
    its micro-batch, so a shard task calling this chunk by chunk and a
    per-silo step calling it on the whole job list get the same bits; the
    result is the workspace's row block, like :func:`batched_gradients`'."""
    rows = batched_gradients(model, task, params, jobs)
    np.negative(rows, out=rows)
    factors = clip_factor_rows(rows, clip)  # validates clip > 0
    return l2_clip_rows(rows, clip, out=rows, factors=factors), factors


# -- sharded execution layer --------------------------------------------------


@dataclass(frozen=True)
class EngineConfig:
    """The ``[engine]`` section: how a round's job lists are executed.

    ``workers=0`` (the default) runs shard tasks in-process; ``workers>=1``
    ships them to a persistent ``ProcessPoolExecutor``.  Results are
    bit-identical for every setting: the shard plan is a pure function of
    the job lists and ``shard_size`` (never of ``workers``), shards are
    micro-batch aligned, and partials combine through the exact binned
    fold.  ``backend`` names the array namespace used for the weighted
    partial-sum fold (:mod:`repro.nn.backend`).
    """

    workers: int = 0
    shard_size: int = DEFAULT_SHARD_SIZE
    backend: str = "numpy"

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"engine workers must be >= 0, got {self.workers}")
        if self.shard_size < 1:
            raise ValueError(
                f"engine shard_size must be >= 1, got {self.shard_size}"
            )
        validate_backend(self.backend)

    @property
    def aligned_shard_size(self) -> int:
        """``shard_size`` rounded up to a :data:`MICRO_BATCH` multiple.

        Alignment is what keeps a shard's micro-batches identical to the
        ones the unsharded path would form, so the effective shard size
        is always a multiple of the numerical chunk.
        """
        chunks = -(-self.shard_size // MICRO_BATCH)
        return chunks * MICRO_BATCH


def plan_shards(n_jobs: int, shard_size: int) -> list[tuple[int, int]]:
    """Deterministic, micro-batch-aligned ``[start, stop)`` shard spans.

    A pure function of the job count and the (aligned) shard size -- in
    particular *not* of the worker count, which only decides where each
    shard runs.  The last shard may be smaller; a zero-job list plans no
    shards.
    """
    size = max(MICRO_BATCH, -(-shard_size // MICRO_BATCH) * MICRO_BATCH)
    return [(s, min(s + size, n_jobs)) for s in range(0, n_jobs, size)]


class ResidentMismatchError(RuntimeError):
    """A task named its records by reference, and the process asked to
    resolve it holds a different federation (or none)."""


class _Resident(NamedTuple):
    """A federation, a template model, and the federation's ``token()``."""

    fed: object
    model: Sequential | None
    token: tuple | None


#: What this process resolves by-reference tasks against (None: nothing).
#: Set once per pool worker as it starts, and by an in-process engine
#: before it runs its tasks.
_RESIDENT: _Resident | None = None


def install_resident(fed, model, token: tuple | None = None) -> None:
    """Make ``fed`` / ``model`` this process's resident federation and
    template.  The worker pool's ``initializer`` -- its arguments are
    inherited under ``fork`` and pickled once per worker otherwise -- where
    the token is taken from the worker's own copy; an in-process engine
    passes the one it took when it was bound."""
    global _RESIDENT
    _RESIDENT = None if fed is None else _Resident(fed, model, token or fed.token())


def resident_jobs(spec: dict) -> list[LocalJob]:
    """The loader behind a by-reference task: silo ``spec["silo"]``'s
    records of ``spec["users"]``, read from the resident federation, with
    the pre-drawn ``spec["schedules"]`` (None: every job full-batch).

    ``spec["token"]`` is the :meth:`~repro.data.federated.FederatedDataset.token`
    of the federation the task was planned against; a process holding
    another one refuses rather than train on the wrong rows.
    """
    held = None if _RESIDENT is None else _RESIDENT.token
    if held != spec["token"]:
        raise ResidentMismatchError(
            f"shard task planned against federation {spec['token']} but this "
            f"process holds {held}; was the engine bound to another dataset "
            "after the task was planned?"
        )
    silo = _RESIDENT.fed.silos[spec["silo"]]
    schedules = spec["schedules"] or [None] * len(spec["users"])
    records = silo.records_of_users(spec["users"].tolist())
    return [LocalJob(x, y, schedule) for (x, y), schedule in zip(records, schedules)]


def make_shard_task(
    *,
    mode: str,
    model: Sequential | None,
    task: str,
    params: np.ndarray,
    jobs,
    weights: np.ndarray,
    clip: float,
    scale: float,
    silo: int,
    shard: int,
    lr: float = 0.0,
    epochs: int = 1,
    backend: str = "numpy",
) -> dict:
    """A picklable shard work unit for :func:`run_shard_task`.

    ``jobs`` is either a list of :class:`LocalJob` (shipped inline, packed
    into one block per field) or a
    loader descriptor ``{"loader": "pkg.mod:func", "spec": {...}}`` the
    worker resolves and calls -- how a task names records the worker
    already holds (:func:`resident_jobs`) or synthesises its own
    (:func:`repro.sim.population.materialise_shard_jobs`) rather than
    having them pickled into it.  ``model=None`` likewise means the
    worker's resident template.  ``mode`` selects the per-chunk kernel:
    ``"delta"`` (clipped local training deltas, ULDP-AVG) or ``"gradient"``
    (negated clipped gradients, ULDP-SGD).
    """
    if mode not in ("delta", "gradient"):
        raise ValueError(f"shard mode must be 'delta' or 'gradient', got {mode!r}")
    payload = {"kind": "loader", **jobs} if isinstance(jobs, dict) else _pack_jobs(jobs)
    return {
        "mode": mode,
        "model": model,
        "task": task,
        "params": params,
        "jobs": payload,
        "weights": np.ascontiguousarray(weights, dtype=np.float64),
        "clip": float(clip),
        "scale": float(scale),
        "silo": int(silo),
        "shard": int(shard),
        "lr": float(lr),
        "epochs": int(epochs),
        "backend": backend,
    }


def _pack_jobs(jobs) -> dict:
    """An inline job list as one block per field: a task then pickles as
    three arrays (plus any minibatch schedules), not two per job."""
    jobs = list(jobs)
    if not jobs:
        return {"kind": "inline", "sizes": []}
    schedules = [job.schedule for job in jobs]
    return {
        "kind": "inline",
        "sizes": [job.n for job in jobs],
        "x": np.concatenate([np.asarray(job.x) for job in jobs]),
        "y": np.concatenate([np.asarray(job.y) for job in jobs]),
        "schedules": schedules if any(s is not None for s in schedules) else None,
    }


def _resolve_shard_jobs(payload: dict) -> list[LocalJob]:
    """Materialise a task's job list (inline, or via its loader)."""
    if payload["kind"] == "loader":
        module_name, func_name = payload["loader"].split(":")
        loader = getattr(importlib.import_module(module_name), func_name)
        return loader(payload["spec"])
    sizes = payload["sizes"]
    stops = np.cumsum(sizes).tolist()
    schedules = payload.get("schedules") or [None] * len(sizes)
    return [
        LocalJob(payload["x"][b - n : b], payload["y"][b - n : b], schedule)
        for n, b, schedule in zip(sizes, stops, schedules)
    ]


def run_shard_task(task: dict) -> dict:
    """Execute one shard: train its jobs micro-batch by micro-batch and
    fold each chunk into a binned partial sum.

    Top-level and dict-in/dict-out so it pickles cleanly into a
    ``ProcessPoolExecutor`` (PR 2's kernel pattern).  The worker never
    holds more than its workspace slab (one ``(MICRO_BATCH, P)`` row block
    + one micro-batch's scratch) and the ``(bins, P)`` accumulator, which
    bounds resident memory per process regardless of shard size.  Returns
    the accumulator state, the per-job clip factors, and the kernel
    seconds for the parent's shard span.
    """
    t0 = time.perf_counter()
    backend = get_backend(task["backend"])
    jobs = _resolve_shard_jobs(task["jobs"])
    # The kernels read a template's structure, never its values, so an
    # explicit model of the resident architecture *is* the resident one --
    # and that object's scratch copy and replica are already built.
    model = task["model"]
    resident = None if _RESIDENT is None else _RESIDENT.model
    if model is None or (
        resident is not None and model.architecture() == resident.architecture()
    ):
        model = resident
    if model is None:
        raise ResidentMismatchError(
            f"shard {task['shard']} names the resident model but this "
            "process holds None; bind the engine before running it"
        )
    params = task["params"]
    weights = task["weights"]
    if len(weights) != len(jobs):
        raise ValueError(
            f"shard {task['shard']}: {len(weights)} weights for {len(jobs)} jobs"
        )
    acc = BinnedSum(params.size, task["scale"])
    factors = np.empty(len(jobs))
    for start, stop in _micro_batches(len(jobs)):
        chunk = jobs[start:stop]
        if task["mode"] == "delta":
            rows, factors[start:stop] = _local_deltas(
                model,
                task["task"],
                params,
                chunk,
                task["lr"],
                task["epochs"],
                task["clip"],
            )
        else:
            rows, factors[start:stop] = batched_clipped_gradients(
                model, task["task"], params, chunk, task["clip"]
            )
        acc.add(backend.weighted_sum(weights[start:stop], rows))
    return {
        "shard": task["shard"],
        "silo": task["silo"],
        "n_jobs": len(jobs),
        "state": acc.state(),
        "factors": factors,
        "seconds": time.perf_counter() - t0,
    }


def fold_weighted_rows(
    acc: BinnedSum,
    weights: np.ndarray,
    rows: np.ndarray,
    backend: ArrayBackend,
) -> None:
    """Fold ``weights @ rows`` into ``acc`` in the engine's micro-batches.

    The server-side twin of :func:`run_shard_task`'s fold: aggregating an
    already-materialised row matrix (the networked executor path) through
    the same chunked weighted sums keeps its bits identical to the
    streamed in-process path.
    """
    for start, stop in _micro_batches(len(rows)):
        acc.add(backend.weighted_sum(weights[start:stop], rows[start:stop]))


class ShardedEngine:
    """Runs shard tasks in-process or on a persistent, resident pool.

    Owns no numerical policy: the shard *plan* (which jobs form which
    shard) is fixed by :func:`plan_shards` and the caller's job order,
    and every execution mode runs the same :func:`run_shard_task` kernel.
    Results are returned in shard order -- the fixed reduction order --
    and each shard gets a ``kind="shard"`` span plus an
    ``engine_shard_seconds`` histogram observation.

    :meth:`bind` names the federation and template model every process
    that runs this engine's tasks holds (:func:`install_resident`): the
    pool's workers for their lifetime, this process for ``workers = 0``.
    Tasks may then name records and model by reference; inline jobs and
    an explicit model run through the same pool unchanged.
    """

    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self._executor: ProcessPoolExecutor | None = None
        self._resident = _Resident(None, None, None)

    @property
    def backend(self) -> ArrayBackend:
        return get_backend(self.config.backend)

    def scale(self, clip: float) -> float:
        """The binned-fold magnitude bound for ``clip``-bounded rows."""
        return fold_scale(clip, MICRO_BATCH)

    def bind(self, fed, model) -> None:
        """Make ``fed`` / ``model`` what this engine's processes hold.  A
        pool started for an earlier binding is released; the next
        :meth:`run_tasks` starts one holding this one."""
        self.close()
        self._resident = _Resident(fed, model, fed.token())

    def _get_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Prefer fork only where it is safe (Linux); macOS forks crash
            # intermittently with threaded parents, hence CPython's own
            # switch of the platform default to spawn.
            mp_context = None
            if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
                mp_context = multiprocessing.get_context("fork")
            self._executor = ProcessPoolExecutor(
                max_workers=self.config.workers,
                mp_context=mp_context,
                initializer=install_resident,
                initargs=self._resident[:2],
            )
        return self._executor

    def run_tasks(self, tasks: list[dict]) -> list[dict]:
        """Execute shard tasks, returning results in shard (plan) order."""
        if not tasks:
            return []
        recorder = get_recorder()
        shard_seconds = get_registry().histogram(
            "engine_shard_seconds",
            help="Kernel seconds per shard task of the sharded engine.",
            unit="seconds",
        )
        results = []
        if self.config.workers == 0:
            install_resident(*self._resident)
            for task in tasks:
                with recorder.span(
                    "shard",
                    kind="shard",
                    shard=task["shard"],
                    silo=task["silo"],
                ) as span:
                    result = run_shard_task(task)
                    span.set(jobs=result["n_jobs"], seconds=result["seconds"])
                shard_seconds.observe(result["seconds"])
                results.append(result)
            return results
        executor = self._get_executor()
        futures = [executor.submit(run_shard_task, task) for task in tasks]
        for task, future in zip(tasks, futures):
            with recorder.span(
                "shard", kind="shard", shard=task["shard"], silo=task["silo"]
            ) as span:
                result = future.result()
                span.set(jobs=result["n_jobs"], seconds=result["seconds"])
            shard_seconds.observe(result["seconds"])
            results.append(result)
        return results

    def reduce(self, results: list[dict]) -> BinnedSum:
        """Tree-reduce the shard partials (exact, so shape-independent)."""
        return tree_reduce([BinnedSum.from_state(r["state"]) for r in results])

    def close(self) -> None:
        """Release the worker pool (safe to call repeatedly; the pool is
        recreated lazily if the engine is used again)."""
        if getattr(self, "_executor", None) is not None:
            self._executor.shutdown()
            self._executor = None

    def __del__(self):
        self.close()

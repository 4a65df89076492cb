"""The five workloads: what each runs, why, and how ``--seed`` feeds it.

A workload is a function ``seed -> job``: a plain dict holding the
generated :class:`repro.api.RunSpec` tree and the harness's own settings
for the run.  The program only ever receives the spec tree.

Every run is *fixed work*, measured ``children`` times over: each child
is a fresh interpreter that sets up and runs the whole spec for
:data:`ROUNDS` rounds, and the run's metrics are medians over the
children (round periods are pooled).  A faster program shows as a
smaller ``run_s``.  ``--seconds`` does not size anything: the declared
``run_seconds`` (10) is what the children's rounds of one run take
together on the sizing host in a quiet minute (4-10 s by workload), and
the whole invocation has to fit the ~30 s the driver's 114 runs leave it.
"""

from __future__ import annotations

import copy
import hashlib
from typing import Callable, NamedTuple

ROUNDS = 16
SIGMA = 5.0
DELTA = 1e-5


def derive_seed(seed: int, workload: str, attempt: int = 0) -> int:
    """A 31-bit spec seed from the benchmark seed, per workload."""
    digest = hashlib.sha256(f"uldp-bench:{workload}:{seed}:{attempt}".encode())
    return int.from_bytes(digest.digest()[:4], "big") & 0x7FFFFFFF


def _train_cnn(seed: int) -> dict:
    return {
        "kind": "train",
        "children": 3,
        "spec": {
            "name": "bench-train-cnn",
            "seed": derive_seed(seed, "train_cnn"),
            "rounds": ROUNDS,
            "eval_every": ROUNDS // 2,
            "dataset": {
                "name": "mnist", "users": 50, "silos": 5, "records": 400,
                "test_records": 100, "distribution": "uniform",
            },
            "method": {
                "name": "uldp-avg-w", "sigma": SIGMA, "local_epochs": 1,
                "local_lr": 0.1,
            },
            "privacy": {"delta": DELTA},
        },
    }


def _train_tabular_sharded(seed: int) -> dict:
    return {
        "kind": "train",
        "children": 3,
        # The same spec with workers=0 must give byte-identical params
        # after `prefix` rounds; its round period is also the base of
        # scaling_efficiency_w2.
        "reference": {"engine.workers": 0},
        "prefix": 3,
        "spec": {
            "name": "bench-train-tabular-sharded",
            "seed": derive_seed(seed, "train_tabular_sharded"),
            "rounds": ROUNDS,
            "eval_every": ROUNDS // 2,
            "dataset": {
                "name": "creditcard", "users": 800, "silos": 5,
                "records": 8000, "distribution": "zipf",
            },
            "method": {"name": "uldp-avg-w", "sigma": SIGMA, "local_epochs": 2},
            "privacy": {"delta": DELTA},
            "compression": {
                "sparsify": "topk", "fraction": 0.05, "quantize_bits": 8,
                "error_feedback": True,
            },
            "engine": {"workers": 2, "shard_size": 256},
        },
    }


def _secure_paillier(seed: int) -> dict:
    return {
        "kind": "train",
        # One child: set-up is ~12 s of DH safe-prime search per process.
        # Its same-seed check re-runs the first `prefix` rounds instead.
        "children": 1,
        "prefix": 2,
        # Theorem 4: plaintext uldp-avg-w on the same seed, all rounds.
        "reference": {"method.name": "uldp-avg-w", "crypto": None},
        # 6 users: with 4 the largest zipf user holds over ~330 of the
        # 740 records for 1 seed in 120, and Theorem 4's overflow guard
        # (lcm(1..that) against the 512-bit modulus) then refuses the round.
        "spec": {
            "name": "bench-secure-paillier",
            "seed": derive_seed(seed, "secure_paillier"),
            "rounds": ROUNDS,
            "eval_every": ROUNDS,
            "dataset": {
                "name": "heartdisease", "users": 6, "silos": 3,
                "records": 96, "distribution": "zipf",
            },
            "method": {
                "name": "secure-uldp-avg", "sigma": SIGMA, "local_epochs": 1,
            },
            "privacy": {"delta": DELTA},
            "crypto": {"backend": "fast", "paillier_bits": 512, "n_max": 64},
        },
    }


def _net_loopback(seed: int) -> dict:
    return {
        "kind": "net",
        "children": 3,
        # Server and silos share ONE CPU from the first round on.  The
        # server walks its silos serially today, so this costs nothing
        # (same run, alternated four times in a quiet hour: 2.3-2.6 s
        # either way), but free on the 2 vCPUs of a shared VM every frame
        # is a cross-vCPU wake-up the hypervisor may sit on, and in a busy
        # hour the same run took 7.8-28 s.  The price: pinned like this
        # the workload CANNOT show what concurrent dispatch (ROADMAP 3a)
        # wins.  Raising this to 2 is a benchmark-only change that must
        # land, and re-measure the baseline, before 3a is judged.
        "cpus": 1,
        "spec": {
            "name": "bench-net-loopback",
            "seed": derive_seed(seed, "net_loopback"),
            "rounds": ROUNDS,
            "eval_every": ROUNDS // 2,
            "method": {"name": "uldp-avg-w", "sigma": SIGMA, "local_epochs": 1},
            "privacy": {"delta": DELTA},
            "sim": {"scenario": "ideal-sync", "scale": "paper"},
            "net": {"port": 0, "round_timeout": 60.0, "ping_timeout": 5.0},
        },
    }


#: Pinned cost shape of ``sim_subsampled_dropout``: every round releases
#: at sensitivity exactly 1 (one distinct accountant curve, ~3 s of the
#: run) and over the run this many silo-rounds are up (4 of 5 silos on
#: average), so ``epsilon_final`` and the mean byte ledger are the same
#: for every seed.
DROPOUT_SILO_ROUNDS_UP = 4 * ROUNDS
DROPOUT_MAX_ATTEMPTS = 20000


def _dropout_tree(spec_seed: int) -> dict:
    return {
        "name": "bench-sim-subsampled-dropout",
        "seed": spec_seed,
        "rounds": ROUNDS,
        "eval_every": ROUNDS // 2,
        "method": {
            "name": "uldp-avg-w", "sigma": SIGMA, "local_epochs": 1,
            "sample_rate": 0.5,
        },
        "privacy": {"delta": DELTA},
        "sim": {
            "scenario": "flaky-silos", "scale": "small",
            "checkpoint_every": ROUNDS // 2,
        },
    }


def dropout_schedule(tree: dict) -> tuple[list[float], list[int]]:
    """Per-round realised sensitivities and numbers of silos up of a
    ``flaky-silos`` spec, without training a round.

    Replays the scheduler's draws (``probes.draw_roster``) on a *copy* of
    the simulator's participation stream, through the same public
    weighting functions the method applies.  ``checks.py`` holds the
    measured run to this prediction, so a program change that moves the
    stream fails a check instead of silently moving ``run_s``.
    """
    from probes import draw_roster
    from repro.api.runner import build_simulator
    from repro.api.spec import RunSpec
    from repro.core.weighting import participation_weights, realised_sensitivity

    sim = build_simulator(RunSpec.from_dict(tree))
    rng = copy.deepcopy(sim.sim_rng)
    sensitivities, silos_up = [], []
    for t in range(sim.config.rounds):
        roster = draw_roster(sim, t, rng)
        silos_up.append(int(roster.silo_mask.sum()))
        sensitivities.append(
            realised_sensitivity(participation_weights(sim.method.weights, roster))
            if roster.silo_mask.any() else 0.0
        )
    return sensitivities, silos_up


def _sim_subsampled_dropout(seed: int) -> dict:
    # Each distinct (q, sigma_eff) release costs one ~3 s scalar RDP
    # curve, and iid dropout makes their number vary 1..11 across seeds
    # (float fuzz in the realised sensitivity counts too), so a free seed
    # would move run_s by whole multiples.  Scan derived seeds for the
    # pinned shape instead: about 1 in 1650 fits, ~3.5 ms each.
    for attempt in range(DROPOUT_MAX_ATTEMPTS):
        tree = _dropout_tree(derive_seed(seed, "sim_subsampled_dropout", attempt))
        sensitivities, silos_up = dropout_schedule(tree)
        if sum(silos_up) == DROPOUT_SILO_ROUNDS_UP and all(
            s == 1.0 for s in sensitivities
        ):
            break
    else:
        raise RuntimeError(
            "no seed with the pinned dropout shape in "
            f"{DROPOUT_MAX_ATTEMPTS} attempts"
        )
    return {
        "kind": "sim",
        "children": 3,
        "seed_attempts": attempt + 1,
        # What the measured run must show (checks.py).
        "expected": {"silos_up": silos_up, "distinct_curves": 1},
        "spec": tree,
    }


class Workload(NamedTuple):
    name: str
    why: str
    build: Callable[[int], dict]


WORKLOADS = (
    Workload(
        "train_cnn",
        "Fig. 5 headline run and the plain single-worker baseline: "
        "core.engine single-step path + nn.batched own the round",
        _train_cnn,
    ),
    Workload(
        "train_tabular_sharded",
        "same engine layer used differently: multi-epoch bucketed path, "
        "800 tiny users, 2-worker pool, BinnedSum merge, compressed uplink",
        _train_tabular_sharded,
    ),
    Workload(
        "secure_paillier",
        "Protocol 1 on a Fig. 10 dataset: protocol/crypto own the round, "
        "the DH safe-prime search owns set-up, the engine is noise",
        _secure_paillier,
    ),
    Workload(
        "net_loopback",
        "serve + 5 real silo processes on 127.0.0.1, all on one CPU: the "
        "only run where net does most of the work; the server walks silos "
        "serially",
        _net_loopback,
    ),
    Workload(
        "sim_subsampled_dropout",
        "Algorithm 4 under silo dropout: the scalar sub-sampled RDP curve "
        "owns run_s while the median round is engine-only; writes checkpoints",
        _sim_subsampled_dropout,
    ),
)
BY_NAME = {w.name: w for w in WORKLOADS}


#: ``--selftest`` size: all five probed rounds and the plain ones between.
SMOKE_ROUNDS = 11


def build_job(name: str, seed: int, smoke: bool = False) -> dict:
    """The job dict for one run of workload ``name``.

    ``smoke`` shrinks the run to :data:`SMOKE_ROUNDS` rounds and skips the
    reference-run checks: enough to exercise every probe, not a measurement.
    """
    job = BY_NAME[name].build(seed)
    job.update(workload=name, seed=seed, rounds=ROUNDS, checks=not smoke)
    job.setdefault("prefix", 0)
    if smoke:
        job.update(rounds=SMOKE_ROUNDS, children=1)
        job["spec"].update(rounds=SMOKE_ROUNDS, eval_every=SMOKE_ROUNDS)
        if "sim" in job["spec"] and "checkpoint_every" in job["spec"]["sim"]:
            job["spec"]["sim"]["checkpoint_every"] = SMOKE_ROUNDS
    return job

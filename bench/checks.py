"""Output checks: relations between runs, never absolute hashes.

The program's seed streams are allowed to be re-baselined on purpose
(ROADMAP item 3a), so nothing here compares against a stored value.
Every check compares the measured run with another run of the same
commit -- the same spec again, the same spec on another execution path,
or an independent recomputation -- and a failed check counts in
``ops_failed``.

Reference runs happen after the measured region, in the same child, and
are stepped by the same :class:`harness.Stepper`, so their round periods
(each corrected by its own run's host readings, the two runs being
seconds apart) double as the baselines of two per-layer metrics
(``core.engine.scaling_efficiency_w2``, ``net.round_overhead_s``).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

import harness
import probes


def digest(params: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(params).tobytes()).hexdigest()


def _verdict(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _rerun(job: dict, tree: dict, limit: int):
    """Build ``tree`` afresh and step it in-process for ``limit`` rounds."""
    ctx = harness.build(job, tree)
    stepper = harness.Stepper(ctx, keep_at={limit})
    harness.run_in_process(ctx, stepper, limit)
    return ctx, stepper


def _override(tree: dict, overrides: dict) -> dict:
    """A copy of ``tree`` with dotted-path overrides (None drops a section)."""
    out = json.loads(json.dumps(tree))
    for path, value in overrides.items():
        section, _, key = path.partition(".")
        if value is None:
            out.pop(section, None)
        elif key:
            out[section][key] = value
        else:
            out[section] = value
    return out


def _history_rows(history) -> dict:
    return {
        "records": [
            (r.round, r.metric_name, r.metric, r.loss, r.epsilon)
            for r in history.records
        ],
        "participation": [
            (p.round, p.silos_seen, p.users_seen) for p in history.participation
        ],
        "comm": [(c.round, c.uplink_bytes, c.downlink_bytes) for c in history.comm],
    }


def run_checks(job: dict, outcome) -> tuple[list[dict], dict]:
    """All checks of ``job``'s workload; returns (verdicts, reference info)."""
    ctx, stepper, history = outcome.ctx, outcome.stepper, outcome.history
    params = ctx.trainer.params
    rounds, prefix = job["rounds"], job["prefix"]
    delta = job["spec"]["privacy"]["delta"]
    verdicts = [
        _verdict("params_finite", bool(np.all(np.isfinite(params)))),
        _verdict("all_rounds_recorded", len(history.comm) == rounds,
                 f"{len(history.comm)} of {rounds}"),
    ]
    reference: dict = {}
    if not job["checks"]:
        return verdicts, reference

    if job["prefix_rerun"]:
        # Same seed twice, for a run measured by a single child (the
        # parent compares whole runs when it has several): the first
        # `prefix` rounds again, from scratch.
        again, again_stepper = _rerun(job, outcome.tree, prefix)
        same = np.array_equal(again_stepper.kept[prefix], stepper.kept[prefix])
        events = again.method.accountant.history
        same_events = events == ctx.method.accountant.history[: len(events)]
        verdicts.append(_verdict(
            "same_seed_same_prefix", same and same_events,
            f"first {prefix} rounds re-run"))

    workload = job["workload"]
    if workload == "train_tabular_sharded":
        other, other_stepper = _rerun(
            job, _override(outcome.tree, job["reference"]), prefix)
        verdicts.append(_verdict(
            "workers2_equals_workers0",
            np.array_equal(other_stepper.kept[prefix], stepper.kept[prefix]),
            f"params after {prefix} rounds, byte for byte"))
        # Skip the first (cold) period of the short reference run.
        reference["period_p50"] = other_stepper.undisturbed(
            float(np.median(other_stepper.periods[1:])))
    elif workload == "secure_paillier":
        plain, _ = _rerun(job, _override(outcome.tree, job["reference"]), rounds)
        verdicts.append(_verdict(
            "secure_close_to_plaintext",
            np.allclose(plain.trainer.params, params, atol=1e-6, rtol=0.0),
            f"max |diff| = {np.max(np.abs(plain.trainer.params - params)):.3g}"))
        verdicts.append(_verdict(
            "secure_same_epsilon",
            plain.trainer.history.final.epsilon == history.final.epsilon))
    elif workload == "net_loopback":
        local, local_stepper = _rerun(
            job, _override(outcome.tree, {"net": None}), rounds)
        verdicts.append(_verdict(
            "networked_equals_in_process_params",
            np.array_equal(local.trainer.params, params)))
        theirs, ours = _history_rows(local.trainer.history), _history_rows(history)
        for key in ("records", "participation", "comm"):
            verdicts.append(_verdict(
                f"networked_equals_in_process_{key}", theirs[key] == ours[key]))
        reference["period_p50"] = local_stepper.undisturbed(
            float(np.median(local_stepper.periods)))
        counted = int(np.count_nonzero(ctx.method.weights)) * rounds
        verdicts.append(_verdict(
            "pairs_counted_equal_pairs_trained", local.pairs == counted,
            f"{local.pairs} trained in process, {counted} non-zero weights"))
    elif workload == "sim_subsampled_dropout":
        from repro.sim.checkpoint import load_checkpoint

        accountant = ctx.method.accountant
        # The shape workloads.dropout_schedule predicted when it picked
        # this seed: run_s moves by ~3 s per extra curve, bytes with the
        # silos up.
        expected = job["expected"]
        silos_up = [entry["silos_up"] for entry in ctx.sim.round_log]
        curves = probes.distinct_curves(accountant)
        verdicts.append(_verdict(
            "dropout_shape_as_predicted",
            silos_up == expected["silos_up"][:rounds]
            and curves == expected["distinct_curves"],
            f"silos up {silos_up}, {curves} distinct curve(s)"))
        verdicts.append(_verdict(
            "one_release_per_round", len(accountant.releases) == rounds,
            f"{len(accountant.releases)} releases"))
        replayed = probes.replay_accountant(accountant).get_epsilon(delta)
        verdicts.append(_verdict(
            "epsilon_equals_replay", replayed == history.final.epsilon,
            f"{replayed!r} vs {history.final.epsilon!r}"))
        state, _extra = load_checkpoint(outcome.tree["sim"]["checkpoint_dir"])
        restored = harness.build(job, outcome.tree)
        restored.sim.load_state(state)
        verdicts.append(_verdict(
            "checkpoint_reloads",
            restored.sim.rounds_completed == rounds
            and np.array_equal(restored.trainer.params, params)
            and restored.method.accountant.get_epsilon(delta)
            == history.final.epsilon))
    return verdicts, reference


#: What each workload exists to isolate: (per-layer share metric,
#: direction, threshold), the issue's criteria at its thresholds.  The
#: shares are ratios of plain wall-clock readings of the traced child
#: taken in, or right before, the same round or run.  If a share misses
#: after a resize, resize again; the check stays.  A change that speeds
#: one of these layers up on purpose lowers its share: re-baselining that
#: is the benchmark change which follows it.
SEPARATION = {
    "train_cnn": (
        ("core.engine.round_share", ">=", 0.8),
        ("accounting.run_share", "<=", 0.02),
    ),
    "secure_paillier": (
        ("core.engine.round_share", "<=", 0.05),
        ("protocol.round_share", ">=", 0.9),
    ),
    "net_loopback": (("net.round_overhead_share", ">=", 0.4),),
    "sim_subsampled_dropout": (("accounting.run_share", ">=", 0.8),),
}


def separation(workload: str, layers: dict) -> list[dict]:
    """Does the traced run show the layer this workload is there for?"""
    return [
        _verdict(
            f"separation.{metric}",
            layers[metric] >= threshold if direction == ">="
            else layers[metric] <= threshold,
            f"{layers[metric]:.3f} {direction} {threshold}")
        for metric, direction, threshold in SEPARATION.get(workload, ())
    ]

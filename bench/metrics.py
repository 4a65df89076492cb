"""Names, units and bounds of every metric the benchmark reports.

The one place the metric set is defined: ``bench/run.py`` emits exactly
these names, ``BENCHMARK.json`` lists exactly these names (``--selftest``
checks the two agree), and ``bench/README.md`` explains each one.

End-to-end metrics are what a user of Uldp-FL sees from a whole run and
carry a *bound*: the share of the parent commit's median by which the
metric may get worse before a change counts as a regression.  Per-layer
metrics come from the traced pass only and carry no bound; a layer a
workload does not exercise reports 0 for that workload.
"""

from __future__ import annotations

import re
from typing import NamedTuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None  # None for per-layer metrics
    what: str


#: Byte counts and epsilon are deterministic functions of the workload
#: shape (never of the seed or the host), so any drift is a regression.
EXACT = 1e-9

#: The issue asked for 0.10 on the five host-dependent metrics.  For the
#: four time metrics that claim is NOT met on the sizing host: plain
#: wall-clock of one seed spread 0.16-0.66 there in a busy hour, 0.07-0.16
#: after the corrections of host.undisturbed (bench/baseline/noise.txt),
#: and ten seeds 0.04-0.19.  A bound has to stay above the spread to gate
#: anything; 0.25 is the widest the driver's contract allows.
TIME_BOUND = 0.25

END_TO_END = (
    # Durations are host.undisturbed(plain wall-clock).
    Metric("setup_s", "s", "lower", TIME_BOUND,
           "child start (before import repro) -> first round start; "
           "median over the run's children"),
    Metric("run_s", "s", "lower", TIME_BOUND,
           "first round start -> history returned, workers/silos closed; "
           "median over the run's children"),
    Metric("round_s_p50", "s", "lower", TIME_BOUND,
           "median round period seen from the harness's stepping loop, "
           "over the rounds of all the run's children"),
    Metric("updates_per_s", "1/s", "higher", TIME_BOUND,
           "(silo, user) local trainings executed by one child / run_s"),
    Metric("peak_rss_mb", "MB", "lower", 0.1,
           "child VmHWM + largest reaped child ru_maxrss; median over the "
           "run's children"),
    Metric("uplink_bytes_per_round", "B", "lower", EXACT,
           "mean over rounds of TrainingHistory.comm[*].uplink_bytes"),
    Metric("downlink_bytes_per_round", "B", "lower", EXACT,
           "mean over rounds of TrainingHistory.comm[*].downlink_bytes"),
    Metric("epsilon_final", "eps", "lower", EXACT,
           "last RoundRecord.epsilon at delta = 1e-5"),
)

PROTOCOL_ROUND_PHASES = (
    "offline_randomizers", "silo_weighted_encryption", "aggregate_decrypt",
    "encrypt_weights",
)
PROTOCOL_SETUP_PHASES = ("blinded_histogram", "keygen", "key_exchange")


def _layer(name: str, unit: str, better: str, what: str) -> Metric:
    return Metric(name, unit, better, None, what)


PER_LAYER = (
    _layer("api.import_s", "s", "lower", "import repro.api.runner"),
    _layer("api.spec_build_s", "s", "lower", "RunSpec.from_dict + .hash()"),
    _layer("data.build_dataset_s", "s", "lower",
           "api.runner.build_dataset (scenario dataset in sim mode)"),
    _layer("data.records_of_user_s", "s", "lower",
           "SiloData.records_of_user over the round's (silo, user) pairs"),
    _layer("core.engine.local_deltas_s", "s", "lower",
           "sum over silos of batched_clipped_local_deltas, per round"),
    _layer("core.engine.pairs_per_round", "count", "higher",
           "(silo, user) jobs handed to the engine per round"),
    _layer("core.engine.pairs_per_s", "1/s", "higher",
           "pairs_per_round / local_deltas_s"),
    _layer("core.engine.round_share", "ratio", "lower",
           "engine call (serial, or the shard pool's) / the real round it "
           "was re-executed before; median over the probed rounds"),
    _layer("nn.per_group_gradients_s", "s", "lower",
           "nn.batched.per_group_gradients on silo 0's stacked records"),
    _layer("core.engine.minor_faults_per_round", "count", "lower",
           "ru_minflt delta across one real round"),
    _layer("core.engine.shard_tasks_per_round", "count", "lower",
           "shard tasks planned for the round's job lists"),
    _layer("core.engine.shard_busy_s", "s", "lower",
           "sum of result['seconds'] over the round's shard tasks"),
    _layer("core.engine.pool_overhead_s", "s", "lower",
           "ShardedEngine.run_tasks wall - shard_busy_s / max(workers, 1)"),
    _layer("core.engine.scaling_efficiency_w2", "ratio", "higher",
           "round_s_p50(workers=0) / (2 * round_s_p50(workers=2))"),
    _layer("core.reduce.fold_s", "s", "lower",
           "fold_weighted_rows + BinnedSum.total over the round's rows"),
    _layer("core.reduce.fold_rows_per_s", "1/s", "higher",
           "rows folded / fold_s"),
    _layer("core.reduce.merge_s", "s", "lower",
           "tree_reduce over the round's per-shard states"),
    _layer("core.weighting.round_weights_s", "s", "lower",
           "participation_weights + subsample_weights + validate_weights"),
    _layer("core.methods.silo_segment_s", "s", "lower",
           "sum over silos of UldpAvg.silo_round_segment"),
    _layer("core.methods.sum_over_max_silo", "ratio", "higher",
           "sum / max of the per-silo segment times"),
    _layer("core.methods.round_self_s", "s", "lower",
           "round span minus the layer spans below it"),
    _layer("core.metrics.evaluate_s", "s", "lower", "evaluate_model(fed, model)"),
    _layer("compress.uplink_s", "s", "lower",
           "UpdateCompressor.compress_uplink over the round's silos"),
    _layer("compress.uplink_ratio", "ratio", "higher", "dense bytes / sent bytes"),
    _layer("accounting.curve_s", "s", "lower",
           "subsampled_gaussian_rdp_curve(0.5, 5.0), one cold call"),
    _layer("accounting.distinct_curves", "count", "lower",
           "distinct (q, sigma_eff) in accountant.history"),
    _layer("accounting.step_s", "s", "lower",
           "replay of the run's releases into a fresh PrivacyAccountant"),
    _layer("accounting.get_epsilon_s", "s", "lower", "accountant.get_epsilon(delta)"),
    _layer("accounting.run_busy_s", "s", "lower",
           "sum over the traced run of its own PrivacyAccountant.step calls"),
    _layer("accounting.run_share", "ratio", "lower",
           "accounting.run_busy_s / bench.traced_run_s"),
    _layer("crypto.dh_group_s", "s", "lower", "cold crypto.dh.DHGroup.test_group()"),
    _layer("crypto.keygen_s", "s", "lower", "512-bit Paillier keypair (with CRT)"),
    _layer("crypto.encrypt_per_s", "1/s", "higher", "Paillier encryptions"),
    _layer("crypto.fixed_base_pow_per_s", "1/s", "higher",
           "FixedBaseExp.pow on a 512-bit exponent"),
    _layer("crypto.pool_refill_s", "s", "lower",
           "RandomizerPool.refill of one round's randomizers"),
    *(
        _layer(f"protocol.phase_s.{phase}", "s", "lower",
               "SecureUldpAvg.timing_report() delta per round")
        for phase in PROTOCOL_ROUND_PHASES
    ),
    *(
        _layer(f"protocol.phase_s.{phase}", "s", "lower",
               "SecureUldpAvg.timing_report() after set-up")
        for phase in PROTOCOL_SETUP_PHASES
    ),
    _layer("protocol.round_share", "ratio", "lower",
           "the four per-round protocol phases / the real round they were "
           "timed in; median over the probed rounds"),
    _layer("protocol.ciphertexts_per_round", "count", "lower",
           "uplink bytes / ciphertext_bytes"),
    _layer("sim.step_self_s", "s", "lower",
           "FederationSimulator.step minus Trainer.step"),
    _layer("sim.state_dict_s", "s", "lower", "FederationSimulator.state_dict()"),
    _layer("sim.checkpoint_save_s", "s", "lower", "save_checkpoint"),
    _layer("sim.checkpoint_load_s", "s", "lower", "load_checkpoint"),
    _layer("sim.checkpoint_bytes", "B", "lower", "bytes of one checkpoint directory"),
    _layer("net.pack_frame_mb_per_s", "MB/s", "higher",
           "wire.pack_frame on a compute-sized frame"),
    _layer("net.recv_frame_mb_per_s", "MB/s", "higher",
           "wire.recv_frame of that frame over a socketpair"),
    _layer("net.frame_rtt_s", "s", "lower",
           "ping -> pong round trip on a MessageSocket pair"),
    _layer("net.exchange_s", "s", "lower",
           "MessageSocket send + recv_matching wall per round "
           "(the silos' training is inside the wait)"),
    _layer("net.frames_per_round", "count", "lower",
           "frames sent + received over server.conns per round"),
    _layer("net.wire_bytes_per_round", "B", "lower",
           "MessageSocket.bytes_sent + bytes_received per round"),
    _layer("net.round_overhead_s", "s", "lower",
           "round period minus the in-process period of the same spec"),
    _layer("net.round_overhead_share", "ratio", "lower",
           "1 - (the silos' segments + the server's fold, re-executed "
           "serially before a real round) / that round; median over the "
           "probed rounds"),
    _layer("net.silo_spawn_join_s", "s", "lower", "silo spawn -> first round start"),
    _layer("bench.layer_cover_ratio", "ratio", "higher",
           "sum of layer spans / round span on the probed rounds"),
    _layer("bench.round_span_s", "s", "lower",
           "the real round call on the probed rounds (what per-round layer "
           "shares are taken of)"),
    _layer("bench.round_period_s", "s", "lower",
           "median round period of the traced child, probe time excluded"),
    _layer("bench.traced_run_s", "s", "lower",
           "run_s of the traced child, probe time excluded"),
    _layer("bench.trace_overhead_ratio", "ratio", "lower",
           "bench.traced_run_s / median run_s of the untraced children of "
           "the same spec"),
    _layer("host.steal_share", "ratio", "lower",
           "steal / (steal + busy) jiffies of /proc/stat over the traced run"),
    _layer("host.speed_index", "ratio", "lower",
           "median speed probe around the run's children / nominal"),
    _layer("host.load1", "load", "lower", "/proc/loadavg at the end of the run"),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
BY_NAME = {m.name: m for m in (*END_TO_END, *PER_LAYER)}


def emit(names: tuple[str, ...], values: dict) -> dict:
    """The ``metrics`` object of a result line: every name, with its unit.

    A missing value is a harness bug, not a zero: per-layer metrics a
    workload does not exercise are filled with 0.0 by the child
    explicitly, so a KeyError here means a probe was forgotten.
    """
    return {
        name: {"value": float(values[name]), "unit": BY_NAME[name].unit}
        for name in names
    }

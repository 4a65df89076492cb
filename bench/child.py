"""One measured child of a benchmark run, in a fresh interpreter: set-up,
rounds, checks.

``bench/run.py`` starts this file once per child of a run with the path
of a job file; the result goes to the path the job names.  Users of the
CLI pay imports, key generation and cold caches on every run, so all of
that is inside ``setup_s``.  Every duration reported from here is plain
wall-clock.

Timeline of a child::

    parent spawns --> import repro --> spec, dataset, method, (server,
    silos) --> first round start ==> rounds ... ==> history returned,
    workers/silos closed --> output checks (not timed)
    `------------- setup_s -------------'`---------- run_s ----------'
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import host  # stdlib only; read /proc/stat before the imports set-up pays for

CPU_AT_START = host.cpu_times()
SPAWN_IMPORT_START = time.perf_counter()

import repro.api.runner  # noqa: E402,F401  (timed: what every user process pays)

IMPORT_S = time.perf_counter() - SPAWN_IMPORT_START

from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import probes  # noqa: E402
from harness import Stepper, build, hook_simulator, now, run_in_process  # noqa: E402
from metrics import PER_LAYER_NAMES  # noqa: E402


def run_networked(ctx, stepper: Stepper, tmp: Path) -> dict:
    """``repro serve`` with one real ``repro silo`` process per silo."""
    from repro.net.server import FederationServer

    hook_simulator(ctx, stepper)
    server = ctx.server = FederationServer(ctx.spec, sim=ctx.sim)
    ctx.net_totals = {"seconds": 0.0, "frames": 0, "bytes": 0}
    port = server.bind()
    spec_file = tmp / "net-spec.json"
    spec_file.write_text(json.dumps(ctx.spec.to_dict()))
    spawned = now()
    silos = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "silo", "--config", str(spec_file),
             "--silo-id", str(s), "--port", str(port)],
            stdout=sys.stderr,
        )
        for s in range(ctx.fed.n_silos)
    ]

    def confine():
        # Server and silos start on every CPU and share `cpus` of them
        # from the first round on (workloads.py says why).
        allowed = set(sorted(os.sched_getaffinity(0))[: ctx.job["cpus"]])
        for pid in (0, *(proc.pid for proc in silos)):
            os.sched_setaffinity(pid, allowed)

    stepper.before_first_round = confine
    exits: list[int] = []
    try:
        server.serve()
    finally:
        for proc in silos:
            try:
                exits.append(proc.wait(timeout=30))
            except subprocess.TimeoutExpired:
                proc.kill()
                exits.append(proc.wait())
        ctx.method.close()
    stepper.finish()
    return {
        "silo_exits": exits,
        "retried_rounds": server.retry_ledger["attempts"],
        "spawn_join_s": stepper.marks[0] - spawned,
    }


def measure(job: dict, tmp: Path) -> dict:
    """The measured run of ``job`` plus its output checks."""
    trace = bool(job["trace"])
    tree = job["spec"]
    if job["kind"] == "sim":
        tree["sim"]["checkpoint_dir"] = str(tmp / "checkpoints")
    tracer = probes.Tracer(job["workload"]) if trace else None
    layer: dict = {"api.import_s": IMPORT_S}

    if trace and job["workload"] == "secure_paillier":
        # Same work the protocol's keygen phase would do first; timing it
        # here only moves it out of that phase, not out of setup_s.
        from repro.crypto.dh import DHGroup

        with tracer.span("crypto.dh_group"):
            DHGroup.test_group()
    ctx = build(job, tree, layer)
    ctx.tmp = tmp
    stepper = Stepper(ctx, tracer=tracer, keep_at={job["prefix"]})
    if trace:
        probes.watch_accountant(tracer, ctx.method.accountant)
        ctx.probe_rng = np.random.default_rng([job["seed"], 0xB3C4])
        ctx.probe_pairs, ctx.segment_rows = [], {}
        ctx.trainer_step_seconds = 0.0
        ctx.net_totals = {"seconds": 0.0, "frames": 0, "bytes": 0}
        spec = ctx.method.active_compression
        ctx.probe_compressor = None
        if spec is not None and not spec.is_identity:
            from repro.compress import UpdateCompressor

            ctx.probe_compressor = UpdateCompressor(
                spec, ctx.fed.n_silos, ctx.model.num_params)

    net = None
    if job["kind"] == "net":
        net = run_networked(ctx, stepper, tmp)
    else:
        run_in_process(
            ctx, stepper, job["rounds"],
            checkpoint_dir=tree["sim"]["checkpoint_dir"]
            if job["kind"] == "sim" else None)
    # Before the checks: their reference runs must not raise the mark.
    peak_rss_mb = host.peak_rss_mb()
    history = ctx.trainer.history
    outcome = SimpleNamespace(
        ctx=ctx, stepper=stepper, history=history, net=net, tree=tree, tmp=tmp)
    verdicts, reference = checks.run_checks(job, outcome)

    # The silos of a networked run train in their own processes; without
    # dropout or sampling every non-zero (silo, user) weight trains there
    # every round (the in-process check run counts the same number).
    pairs = ctx.pairs if net is None else (
        int(np.count_nonzero(ctx.method.weights)) * job["rounds"])
    comm = history.comm
    # Plain wall-clock throughout; the parent corrects for the host
    # (host.undisturbed) with the steal shares and the speed index
    # reported beside it.
    result = {
        "setup_wall_s": stepper.first_round_wall - job["spawned_at"],
        "setup_steal": host.steal_share(CPU_AT_START, stepper.cpu_first),
        "run_wall_s": stepper.run_wall_s,
        "run_steal": stepper.steal_share,
        "speed_index": stepper.speed_index,
        "periods": stepper.periods,
        "peak_rss_mb": peak_rss_mb,
        "exact": {
            "uplink_bytes_per_round": float(np.mean([c.uplink_bytes for c in comm])),
            "downlink_bytes_per_round": float(
                np.mean([c.downlink_bytes for c in comm])),
            "epsilon_final": history.final.epsilon,
        },
        "pairs": pairs,
        "params_sha256": checks.digest(ctx.trainer.params),
        "load1": host.load1(),
    }
    if trace:
        result["layers"] = traced_layers(
            job, outcome, tracer, layer, reference, result)
        if job["checks"]:
            # The benchmark's own validity, not the program's correctness:
            # kept apart from `checks` (only the suite counts them).
            result["separation"] = checks.separation(
                job["workload"], result["layers"])
    silo_exits = net["silo_exits"] if net else []
    result.update(
        checks=verdicts,
        attempted=job["rounds"] + len(silo_exits) + len(verdicts),
        failed=(
            (net["retried_rounds"] if net else 0)
            + sum(1 for code in silo_exits if code != 0)
            + sum(1 for v in verdicts if not v["ok"])
        ),
    )
    return result


def traced_layers(job, outcome, tracer, layer, reference, result) -> dict:
    """Post-run probes, then every per-layer metric by name (plain
    wall-clock; ``bench.trace_overhead_ratio`` is the parent's to fill,
    which sees the untraced children)."""
    ctx, stepper = outcome.ctx, outcome.stepper
    probes.probe_evaluate(tracer, ctx)
    probes.probe_accounting(tracer, ctx, layer)
    if job["workload"] == "secure_paillier":
        probes.probe_crypto(tracer, ctx)
        layer["protocol.ciphertexts_per_round"] = (
            result["exact"]["uplink_bytes_per_round"]
            / ctx.method.protocol.ciphertext_bytes)
    if ctx.sim is not None:
        probes.probe_checkpoint(tracer, ctx, layer)
    if ctx.server is not None:
        probes.probe_net(tracer, ctx)
        layer["net.silo_spawn_join_s"] = outcome.net["spawn_join_s"]
    probes.layer_values(tracer, ctx, layer)

    p50 = float(np.median(result["periods"]))
    # The reference period as plain wall-clock under this run's host
    # conditions, so the parent's one correction fits both terms.
    base = reference.get("period_p50", 0.0) / stepper.undisturbed(1.0)
    if base and job["workload"] == "train_tabular_sharded":
        layer["core.engine.scaling_efficiency_w2"] = base / (2.0 * p50)
    if base and ctx.server is not None:
        layer["net.round_overhead_s"] = p50 - base
    layer["accounting.run_share"] = (
        layer["accounting.run_busy_s"] / result["run_wall_s"])
    layer["bench.round_period_s"] = p50
    layer["bench.traced_run_s"] = result["run_wall_s"]
    layer["host.steal_share"] = result["run_steal"]
    layer["host.speed_index"] = result["speed_index"]
    layer["host.load1"] = result["load1"]
    tracer.write(Path(job["trace_path"]))
    return {name: float(layer.get(name, 0.0)) for name in PER_LAYER_NAMES}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    tmp = Path(job["tmp"])
    tmp.mkdir(parents=True, exist_ok=True)
    result = measure(job, tmp)
    Path(job["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The traced pass: layer spans recorded from the benchmark's own files.

Tracing is *off* for the end-to-end numbers.  In a ``--trace 1`` run the
harness pauses its clock before each of :data:`PROBED_ROUNDS` (five
early rounds, after a warm-up) and re-executes the calls that round
makes into each layer -- the layer's public functions, on the running
round's real inputs: the roster and the user sample come from copies of
the run's generators, noise from a private one, so the run's own random
streams are not advanced.  What the program already counts or does
(protocol phase timers, socket byte ledgers, page-fault counts, its own
``PrivacyAccountant.step`` calls) is read around the real round instead.
A span is ``{id, name, start, end, parent, workload, round}`` in plain
wall-clock; spans stay in memory and are written out when the run ends.

Probes follow the round pipeline of the ULDP-AVG family, the only
methods the five workloads use: weights -> per-user records -> batched
clipped local deltas -> binned fold (-> shard pool and merge, ->
compression) -> server side.
"""

from __future__ import annotations

import copy
import json
import random
import resource
import socket
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from metrics import PROTOCOL_ROUND_PHASES, PROTOCOL_SETUP_PHASES

#: Round indices (0-based) the traced pass probes: five early rounds after
#: a warm-up, every other one so each probed round follows a plain one.
PROBED_ROUNDS = (2, 4, 6, 8, 10)

now = time.perf_counter
_INHERIT = object()


class Tracer:
    """In-memory span store for one traced run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.round = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, parent=_INHERIT, **attrs):
        """Time a block; ``parent`` defaults to the enclosing span."""
        if parent is _INHERIT:
            parent = self._stack[-1] if self._stack else None
        span = {
            "id": len(self.spans), "name": name, "start": now(), "end": None,
            "parent": parent, "workload": self.workload, "round": self.round,
            **attrs,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = now()
            self._stack.pop()

    @contextmanager
    def under(self, span: dict):
        """Make ``span`` the parent of spans opened inside the block."""
        self._stack.append(span["id"])
        try:
            yield
        finally:
            self._stack.pop()

    def add(self, name: str, seconds: float, parent: dict) -> None:
        """A span whose duration came from a counter the program keeps
        while ``parent`` ran (it has no start of its own: it ends now)."""
        end = now()
        self.spans.append({
            "id": len(self.spans), "name": name, "start": end - seconds,
            "end": end, "parent": parent["id"], "workload": self.workload,
            "round": self.round,
        })

    @staticmethod
    def seconds(span: dict) -> float:
        return span["end"] - span["start"]

    def durations(self, name: str) -> list[float]:
        return [self.seconds(s) for s in self.spans if s["name"] == name]

    def per_round(self, name: str) -> list[float]:
        """Per probed round, the summed duration of spans called ``name``."""
        sums: dict[int, float] = {}
        for s in self.spans:
            if s["name"] == name and s["round"] >= 0:
                sums[s["round"]] = sums.get(s["round"], 0.0) + self.seconds(s)
        return list(sums.values())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _median(values, default: float = 0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


# -- one probed round ---------------------------------------------------------


def draw_roster(sim, t: int, rng):
    """The roster ``sim``'s scheduler draws for synchronous round ``t``,
    drawn from ``rng`` -- a copy of ``sim.sim_rng``, advanced exactly as
    the scheduler advances the original.

    Shared by the traced pass (the round about to run) and by
    ``workloads.dropout_schedule`` (a whole run ahead of time).  It
    models silo dropout and latency only, which is all the benchmark's
    scenarios use; ``checks.py`` holds the measured run to what it
    predicted.
    """
    from repro.core.weighting import RoundParticipation
    from repro.sim.scheduler import SemiSyncPolicy

    config, n_silos = sim.config, sim.fed.n_silos
    if (config.churn is not None or config.bandwidth is not None
            or isinstance(config.policy, SemiSyncPolicy)
            or config.renorm == "carryover"):
        raise NotImplementedError(
            "draw_roster models dropout and latency only; this scenario "
            "also has churn, bandwidth, a deadline or carry-over")
    up = config.dropout.draw(t, n_silos, rng)
    config.latency.draw(t, n_silos, rng)
    return RoundParticipation(
        silo_mask=up, renorm=config.renorm, noise_rescale=config.noise_rescale,
        broadcast_mask=up.copy(),
    )


def probe_round(tr: Tracer, ctx, round_span: dict) -> None:
    """Re-execute round ``tr.round``'s layer calls under ``round_span``."""
    from repro.core.engine import (
        LocalJob,
        batched_clipped_local_deltas,
        fold_weighted_rows,
        make_shard_task,
        plan_shards,
    )
    from repro.core.metrics import make_loss
    from repro.core.reduce import BinnedSum
    from repro.core.weighting import (
        participation_weights,
        subsample_weights,
        validate_weights,
    )
    from repro.data.federated import SiloData
    from repro.nn.batched import per_group_gradients

    method, fed, model, rng = ctx.method, ctx.fed, ctx.model, ctx.probe_rng
    params = ctx.trainer.params.copy()
    sharded = "engine" in ctx.job["spec"]
    remote = ctx.server is not None
    with tr.under(round_span):
        with tr.span("core.weighting.round_weights"):
            weights, mask = method.weights, None
            if ctx.sim is not None:
                roster = draw_roster(
                    ctx.sim, ctx.sim.rounds_completed,
                    copy.deepcopy(ctx.sim.sim_rng))
                weights = participation_weights(method.weights, roster)
                mask = roster.silo_mask
            if method.user_sample_rate is not None:
                # The round's own first draw, on a copy of its generator.
                draw = copy.deepcopy(method.rng).random(fed.n_users)
                sampled = np.where(draw < method.user_sample_rate)[0]
                weights = subsample_weights(weights, sampled)
            validate_weights(weights)
        active = [s for s in range(fed.n_silos) if mask is None or mask[s]]
        if not active:
            return  # every silo down: the round releases nothing
        noise_std = method.noise_multiplier * method.clip / np.sqrt(len(active))

        if remote:
            # The silos do the training; time what each would run.
            state = method.rng.bit_generator.state
            try:
                for s in active:
                    with tr.span("core.methods.silo_segment", silo=s):
                        users, rows, _ = method.silo_round_segment(
                            s, params, weights[s], noise_std)
                    ctx.segment_rows[s] = (users, rows)
            finally:
                method.rng.bit_generator.state = state

        engine = method.shard_engine
        scale = engine.scale(method.clip)
        tasks, pairs = [], 0
        # With a worker pool the round's engine layer is the pool call
        # below; the serial in-process call is then timed beside the
        # round (for pairs_per_s), not inside it.
        serial_parent = None if sharded else round_span["id"]
        for s in active:
            silo = fed.silos[s]
            if remote:
                users, rows = ctx.segment_rows[s]
            else:
                with tr.span("data.records_of_user", silo=s):
                    users = [int(u) for u in silo.users_present()
                             if weights[s, u] != 0.0]
                    # The class function, not the instance attribute the
                    # harness shadows to count the run's own pairs.
                    jobs = [LocalJob(*SiloData.records_of_user(silo, u))
                            for u in users]
                if not jobs:
                    continue
                with tr.span("core.engine.local_deltas", parent=serial_parent,
                             silo=s) as engine_span:
                    rows, _ = batched_clipped_local_deltas(
                        model, fed.task, params, jobs, method.local_lr,
                        method.local_epochs, method.clip)
                if s == active[0] and method.local_epochs == 1:
                    chunk = jobs[:128]
                    local = model.clone()
                    local.set_flat_params(params)
                    x = np.concatenate([np.asarray(j.x, dtype=np.float64) for j in chunk])
                    y = np.concatenate([np.asarray(j.y, dtype=np.float64) for j in chunk])
                    with tr.span("nn.per_group_gradients", parent=engine_span["id"]):
                        per_group_gradients(
                            local, make_loss(fed.task, local), x, y,
                            [j.n for j in chunk])
            pairs += len(users)
            w = np.array([weights[s, u] for u in users], dtype=np.float64)
            with tr.span("core.reduce.fold", parent=serial_parent, rows=len(users)):
                acc = BinnedSum(params.size, scale)
                fold_weighted_rows(acc, w, rows, engine.backend)
                payload = acc.total()
            if ctx.probe_compressor is not None:
                payload = payload + rng.normal(0.0, noise_std, size=params.size)
                with tr.span("compress.uplink", silo=s) as span:
                    sent = ctx.probe_compressor.compress_uplink(s, payload)
                span["dense_bytes"] = params.size * 8
                span["sent_bytes"] = sent.nbytes
            if sharded:
                shard_size = engine.config.aligned_shard_size
                for a, b in plan_shards(len(jobs), shard_size):
                    tasks.append(make_shard_task(
                        mode="delta", model=model, task=fed.task, params=params,
                        jobs=jobs[a:b], weights=w[a:b], clip=method.clip,
                        scale=scale, silo=s, shard=len(tasks), lr=method.local_lr,
                        epochs=method.local_epochs, backend=engine.config.backend))
        ctx.probe_pairs.append(pairs)
        if tasks:
            with tr.span("core.engine.run_tasks", tasks=len(tasks)) as span:
                results = engine.run_tasks(tasks)
            span["busy_s"] = sum(r["seconds"] for r in results)
            with tr.span("core.reduce.merge"):
                engine.reduce(results).total()
        if ctx.sim is not None:
            # The server's per-round snapshot: between rounds, not in one.
            with tr.span("sim.state_dict", parent=None):
                ctx.sim.state_dict()


class RoundProbe:
    """One probed round: the layer probes before it, then the real round
    inside the ``round`` span with the program's own counters read around
    it (phase timers, page faults, socket ledgers)."""

    def __init__(self, tr: Tracer, ctx, t: int):
        self.tr, self.ctx = tr, ctx
        tr.round = t
        with tr.span("round") as self.span:
            pass  # opened first so the probe spans can point at it
        probe_round(tr, ctx, self.span)

    def run(self, call):
        """Time the real round ``call`` as the round span."""
        tr, ctx, span = self.tr, self.ctx, self.span
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        report = getattr(ctx.method, "timing_report", None)
        phases = dict(report()) if callable(report) else {}
        trainer_s, net = ctx.trainer_step_seconds, dict(ctx.net_totals)
        span["start"] = now()
        with tr.under(span):
            out = call()
        span["end"] = now()
        span["minor_faults"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
        if callable(report):
            for phase, total in report().items():
                delta = total - phases.get(phase, 0.0)
                if delta > 0:
                    tr.add(f"protocol.phase.{phase}", delta, span)
        if ctx.sim is not None:
            inner = ctx.trainer_step_seconds - trainer_s
            tr.add("sim.step_self", max(span["end"] - span["start"] - inner, 0.0), span)
        if ctx.server is not None:
            delta = {k: ctx.net_totals[k] - net[k] for k in net}
            tr.add("net.exchange", delta["seconds"], span)
            span["frames"], span["wire_bytes"] = delta["frames"], delta["bytes"]
        tr.round = -1
        return out


def before_round(tr: Tracer, ctx, t: int) -> RoundProbe | None:
    """The traced pass's hook ahead of round ``t`` (clock paused)."""
    if t == 0 and ctx.server is not None:
        wrap_connections(ctx)
    return RoundProbe(tr, ctx, t) if t in PROBED_ROUNDS else None


def wrap_connections(ctx) -> None:
    """Count frames, bytes and seconds on the server's live connections."""
    for conn in ctx.server.conns.values():
        for attr in ("send", "recv_matching"):
            inner = getattr(conn, attr)

            def timed(*args, _inner=inner, _conn=conn, **kwargs):
                before = _conn.bytes_sent + _conn.bytes_received
                start = now()
                try:
                    return _inner(*args, **kwargs)
                finally:
                    totals = ctx.net_totals
                    totals["seconds"] += now() - start
                    totals["frames"] += 1
                    totals["bytes"] += (
                        _conn.bytes_sent + _conn.bytes_received - before)

            setattr(conn, attr, timed)


# -- probes run once, after the run -------------------------------------------


def probe_evaluate(tr: Tracer, ctx) -> None:
    from repro.core.metrics import evaluate_model

    model = ctx.model.clone()
    model.set_flat_params(ctx.trainer.params)
    with tr.span("core.metrics.evaluate"):
        evaluate_model(ctx.fed, model)


def replay_accountant(accountant):
    """A fresh PrivacyAccountant fed the run's releases (or events)."""
    from repro.accounting import PrivacyAccountant

    fresh = PrivacyAccountant()
    if accountant.releases:
        for r in accountant.releases:
            fresh.step_release(
                r.noise_multiplier, sample_rate=r.sample_rate,
                sensitivity=r.sensitivity, noise_scale=r.noise_scale)
    else:
        for e in accountant.history:
            fresh.step(e.noise_multiplier, sample_rate=e.sample_rate, steps=e.steps)
    return fresh


def distinct_curves(accountant) -> int:
    """Distinct ``(q, sigma_eff)`` releases: one RDP curve is computed per."""
    return len({(e.sample_rate, e.noise_multiplier) for e in accountant.history})


def watch_accountant(tr: Tracer, accountant) -> None:
    """Time the run's own ``PrivacyAccountant.step`` calls (the public
    call that computes a release's RDP curve the first time it sees its
    ``(q, sigma_eff)``), every round of the traced run."""
    inner = accountant.step

    def timed(*args, **kwargs):
        with tr.span("accounting.run_step"):
            return inner(*args, **kwargs)

    accountant.step = timed


def probe_accounting(tr: Tracer, ctx, values: dict) -> None:
    accountant = ctx.method.accountant
    subsampled = any(e.sample_rate < 1.0 for e in accountant.history)
    if subsampled:
        from repro.accounting.subsampled import subsampled_gaussian_rdp_curve

        with tr.span("accounting.curve"):
            subsampled_gaussian_rdp_curve(0.5, 5.0)
    with tr.span("accounting.step"):
        replay_accountant(accountant)
    with tr.span("accounting.get_epsilon"):
        accountant.get_epsilon(ctx.job["spec"]["privacy"]["delta"])
    values["accounting.distinct_curves"] = distinct_curves(accountant)
    values["accounting.run_busy_s"] = sum(tr.durations("accounting.run_step"))


def probe_crypto(tr: Tracer, ctx) -> None:
    """Micro-benchmarks of the Paillier primitives at the run's key size."""
    from repro.crypto.fastexp import FixedBaseExp
    from repro.crypto.paillier import generate_paillier_keypair
    from repro.crypto.pool import RandomizerPool

    bits = ctx.method.paillier_bits
    rng = random.Random(0xBE7C4)
    with tr.span("crypto.keygen"):
        keys = generate_paillier_keypair(bits, rng=rng, with_crt=True)
    public = keys.public_key
    count = 64
    with tr.span("crypto.encrypt", count=count):
        for i in range(count):
            public.encrypt(i + 1, rng=rng)
    table = FixedBaseExp(rng.randrange(2, public.n_squared), public.n_squared, bits,
                         expected_exps=256)
    exponents = [rng.getrandbits(bits) for _ in range(256)]
    with tr.span("crypto.fixed_base_pow", count=len(exponents)):
        for e in exponents:
            table.pow(e)
    pool = RandomizerPool(public, rng=rng)
    with tr.span("crypto.pool_refill", count=ctx.model.num_params):
        pool.refill(ctx.model.num_params)


def probe_checkpoint(tr: Tracer, ctx, values: dict) -> None:
    from repro.sim.checkpoint import load_checkpoint, save_checkpoint

    path = Path(ctx.tmp) / "probe-checkpoint"
    with tr.span("sim.checkpoint_save"):
        save_checkpoint(path, ctx.sim, extra={"probe": True})
    with tr.span("sim.checkpoint_load"):
        load_checkpoint(path)
    values["sim.checkpoint_bytes"] = sum(
        f.stat().st_size for f in path.iterdir() if f.is_file())


def probe_net(tr: Tracer, ctx) -> None:
    """Frame codec throughput and ping latency over a local socketpair."""
    from repro.net.transport import MessageSocket
    from repro.net.wire import pack_frame, recv_frame

    params = ctx.trainer.params
    payload = {"round": 0, "noise_std": 1.0,
               "rng_state": ctx.method.rng.bit_generator.state}
    arrays = {"params": params, "weights": np.ones(ctx.fed.n_users)}
    repeats = 200
    with tr.span("net.pack_frame", count=repeats) as span:
        for _ in range(repeats):
            data = pack_frame("compute", payload, arrays)
    span["bytes"] = len(data) * repeats
    a, b = socket.socketpair()
    try:
        with tr.span("net.recv_frame", count=repeats) as span:
            for _ in range(repeats):
                a.sendall(data)
                recv_frame(b)
        span["bytes"] = len(data) * repeats
    finally:
        a.close()
        b.close()
    a, b = socket.socketpair()
    left, right = MessageSocket(a), MessageSocket(b)

    def echo():
        for i in range(repeats):
            right.recv(timeout=10.0)
            right.send("pong", {"round": i, "ready": True})

    thread = threading.Thread(target=echo, daemon=True)
    thread.start()
    try:
        with tr.span("net.frame_rtt", count=repeats):
            for i in range(repeats):
                left.send("ping", {"round": i})
                left.recv_matching("pong", i, 10.0)
        thread.join(timeout=10.0)
    finally:
        left.close()
        right.close()


# -- spans -> per-layer metric values -----------------------------------------


def layer_values(tr: Tracer, ctx, values: dict) -> None:
    """Fill ``values`` with every span-derived per-layer metric.

    Per-round layers are the median over the probed rounds of the layer's
    summed span time in that round.
    """
    rounds = [s for s in tr.spans if s["name"] == "round"]
    by_round = {s["round"]: s for s in rounds}

    def per_round(name):
        return _median(tr.per_round(name))

    def single(name):
        return _median(tr.durations(name))

    values["core.weighting.round_weights_s"] = per_round("core.weighting.round_weights")
    values["data.records_of_user_s"] = per_round("data.records_of_user")
    deltas = per_round("core.engine.local_deltas")
    pairs = _median(ctx.probe_pairs)
    values["core.engine.local_deltas_s"] = deltas
    values["core.engine.pairs_per_round"] = pairs
    values["core.engine.pairs_per_s"] = pairs / deltas if deltas else 0.0
    values["nn.per_group_gradients_s"] = per_round("nn.per_group_gradients")
    values["core.engine.minor_faults_per_round"] = _median(
        s["minor_faults"] for s in rounds if "minor_faults" in s)

    pool = [s for s in tr.spans if s["name"] == "core.engine.run_tasks"]
    workers = max(ctx.method.shard_engine.config.workers, 1)
    values["core.engine.shard_tasks_per_round"] = _median(s["tasks"] for s in pool)
    values["core.engine.shard_busy_s"] = _median(
        s["busy_s"] for s in pool)
    values["core.engine.pool_overhead_s"] = _median(
        s["end"] - s["start"] - s["busy_s"] / workers for s in pool)
    values["core.reduce.merge_s"] = single("core.reduce.merge")

    fold = per_round("core.reduce.fold")
    folds = [s for s in tr.spans if s["name"] == "core.reduce.fold"]
    rows_per_round = sum(s["rows"] for s in folds) / len(by_round) if by_round else 0.0
    values["core.reduce.fold_s"] = fold
    values["core.reduce.fold_rows_per_s"] = rows_per_round / fold if fold else 0.0

    segments = tr.per_round("core.methods.silo_segment")
    values["core.methods.silo_segment_s"] = _median(segments)
    ratios = []
    for t in by_round:
        per_silo = [tr.seconds(s) for s in tr.spans
                    if s["name"] == "core.methods.silo_segment" and s["round"] == t]
        if per_silo:
            ratios.append(sum(per_silo) / max(per_silo))
    values["core.methods.sum_over_max_silo"] = _median(ratios)

    compress = [s for s in tr.spans if s["name"] == "compress.uplink"]
    values["compress.uplink_s"] = per_round("compress.uplink")
    sent = sum(s["sent_bytes"] for s in compress)
    values["compress.uplink_ratio"] = (
        sum(s["dense_bytes"] for s in compress) / sent if sent else 0.0)

    for phase in PROTOCOL_ROUND_PHASES:
        values[f"protocol.phase_s.{phase}"] = per_round(f"protocol.phase.{phase}")
    values["sim.step_self_s"] = per_round("sim.step_self")
    values["sim.state_dict_s"] = single("sim.state_dict")
    values["net.exchange_s"] = per_round("net.exchange")
    values["net.frames_per_round"] = _median(
        s["frames"] for s in rounds if "frames" in s)
    values["net.wire_bytes_per_round"] = _median(
        s["wire_bytes"] for s in rounds if "wire_bytes" in s)

    # Cover: how much of the real round the layer spans account for.  In
    # a networked round the silos' training is inside the exchange span.
    covers, selfs = [], []
    for t, span in by_round.items():
        children = sum(
            tr.seconds(s) for s in tr.spans
            if s["parent"] == span["id"]
            and not (ctx.server is not None
                     and s["name"] == "core.methods.silo_segment"))
        whole = tr.seconds(span)
        covers.append(children / whole if whole else 0.0)
        selfs.append(whole - children)
    values["bench.layer_cover_ratio"] = _median(covers)
    values["bench.round_span_s"] = _median(tr.seconds(s) for s in rounds)

    def round_share(names):
        """Median over the probed rounds of the named spans under the
        round span / that round's own span: each probe is paired with the
        real round it ran right before (or inside), so a host that changes
        speed between rounds cancels out."""
        return _median(
            sum(tr.seconds(s) for s in tr.spans
                if s["parent"] == span["id"] and s["name"] in names)
            / tr.seconds(span)
            for span in rounds if tr.seconds(span))

    values["core.engine.round_share"] = round_share(
        {"core.engine.local_deltas", "core.engine.run_tasks"})
    values["protocol.round_share"] = round_share(
        {f"protocol.phase.{phase}" for phase in PROTOCOL_ROUND_PHASES})
    if ctx.server is not None:
        # What the same round costs in-process is the silos' segments
        # run one after the other plus the server's fold; the rest of a
        # networked round is the network's.
        values["net.round_overhead_share"] = 1.0 - round_share({
            "core.methods.silo_segment", "core.reduce.fold",
            "core.weighting.round_weights"})
    values["core.methods.round_self_s"] = _median(selfs)

    for name, metric in (
        ("core.metrics.evaluate", "core.metrics.evaluate_s"),
        ("accounting.curve", "accounting.curve_s"),
        ("accounting.step", "accounting.step_s"),
        ("accounting.get_epsilon", "accounting.get_epsilon_s"),
        ("crypto.dh_group", "crypto.dh_group_s"),
        ("crypto.keygen", "crypto.keygen_s"),
        ("crypto.pool_refill", "crypto.pool_refill_s"),
        ("sim.checkpoint_save", "sim.checkpoint_save_s"),
        ("sim.checkpoint_load", "sim.checkpoint_load_s"),
    ):
        values[metric] = single(name)
    for name, metric in (
        ("crypto.encrypt", "crypto.encrypt_per_s"),
        ("crypto.fixed_base_pow", "crypto.fixed_base_pow_per_s"),
    ):
        spans = [s for s in tr.spans if s["name"] == name]
        total = sum(tr.seconds(s) for s in spans)
        values[metric] = sum(s["count"] for s in spans) / total if total else 0.0
    for name, metric in (
        ("net.pack_frame", "net.pack_frame_mb_per_s"),
        ("net.recv_frame", "net.recv_frame_mb_per_s"),
    ):
        spans = [s for s in tr.spans if s["name"] == name]
        total = sum(tr.seconds(s) for s in spans)
        values[metric] = (
            sum(s["bytes"] for s in spans) / 1e6 / total if total else 0.0)
    rtt = [s for s in tr.spans if s["name"] == "net.frame_rtt"]
    values["net.frame_rtt_s"] = (
        sum(tr.seconds(s) for s in rtt) / sum(s["count"] for s in rtt)
        if rtt else 0.0)

    report = getattr(ctx.method, "timing_report", None)
    phases = report() if callable(report) else {}
    for phase in PROTOCOL_SETUP_PHASES:
        values[f"protocol.phase_s.{phase}"] = float(phases.get(phase, 0.0))

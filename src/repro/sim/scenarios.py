"""Named federation scenarios: the registry behind a spec's ``[sim]`` table.

Each scenario is a complete participation recipe -- dropout, latency,
churn, aggregation policy, renormalisation strategy, bandwidth --
registered under :data:`repro.api.registries.SCENARIOS` through the
``@register_scenario`` decorator, so third-party scenarios plug in
without touching this module::

    from repro.api import register_scenario

    @register_scenario("my-outage", description="custom outage pattern")
    def _my_outage(rounds: int, n_silos: int) -> dict:
        return dict(policy=SyncPolicy(), renorm="survivors",
                    dropout=SiloOutageWindows({1: (2, 5)}))

A scenario factory maps ``(rounds, n_silos)`` to
:class:`repro.sim.scheduler.SimConfig` overrides; the dataset (creditcard
at the scale tier's size) is owned by :func:`bind_scenario`, and the
method by the spec: a simulation is built from its
:class:`repro.api.RunSpec` only (:func:`repro.api.runner.build_simulator`).
``docs/scenarios.md`` describes each builtin's semantics and its
privacy-accounting caveats.

The registry composes with checkpointing: a run snapshots on the
:func:`save_checkpoint_if_due` cadence, and every checkpoint's ``extra``
holds the spec snapshot and its canonical hash
(:func:`repro.api.runner.checkpoint_extra`).  :func:`resume_simulator`
recomputes the hash and rebuilds the simulator from that spec; it
**refuses a checkpoint with no spec, or a tampered or mismatched one**.
"""

from __future__ import annotations

import numpy as np

from repro.api.registries import SCENARIOS, register_scenario
from repro.api.spec import SCALES
from repro.compress.spec import CompressionSpec
from repro.nn.model import default_model_for
from repro.sim.participation import (
    BandwidthModel,
    ChurnProcess,
    IidSiloDropout,
    LogNormalLatency,
    SiloOutageWindows,
)
from repro.sim.policies import BufferedAsyncPolicy, SemiSyncPolicy, SyncPolicy


def _scale_params(scale: str) -> dict:
    """Scenario workload size per scale tier (the tier names are the spec
    layer's; a scenario run is sized here, not by the experiment tiers)."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}")
    return {
        "smoke": dict(rounds=3, n_records=300, n_users=12, n_silos=3, n_test=80),
        "small": dict(rounds=10, n_records=2000, n_users=50, n_silos=5, n_test=400),
        "paper": dict(rounds=40, n_records=10_000, n_users=100, n_silos=5, n_test=2000),
    }[scale]


@register_scenario(
    "ideal-sync",
    description="synchronous, zero dropout -- the oracle matching Trainer exactly",
)
def _ideal_sync(rounds: int, n_silos: int) -> dict:
    return dict(policy=SyncPolicy(), renorm="none")


@register_scenario(
    "silo-outage",
    description="silo 0 offline for a window of rounds; survivors renormalise",
)
def _silo_outage(rounds: int, n_silos: int) -> dict:
    start = max(1, rounds // 4)
    stop = min(rounds, start + max(2, rounds // 4))
    return dict(
        policy=SyncPolicy(),
        renorm="survivors",
        dropout=SiloOutageWindows({0: (start, stop)}),
    )


@register_scenario(
    "flaky-silos",
    description="iid 30% per-round silo dropout, weights left as-is (renorm=none)",
)
def _flaky_silos(rounds: int, n_silos: int) -> dict:
    return dict(policy=SyncPolicy(), renorm="none", dropout=IidSiloDropout(0.3))


@register_scenario(
    "carryover-makeup",
    description="iid 30% dropout; returning silos make up missed weight "
    "(sensitivity > 1 rounds are charged honestly)",
)
def _carryover_makeup(rounds: int, n_silos: int) -> dict:
    return dict(
        policy=SyncPolicy(),
        renorm="carryover",
        dropout=IidSiloDropout(0.3),
        carryover_max_gain=2.0,
    )


@register_scenario(
    "stragglers-deadline",
    description="semi-synchronous deadline at 1.5 units with one 2x-slow silo",
)
def _stragglers_deadline(rounds: int, n_silos: int) -> dict:
    # One persistently slow silo (2x median) plus heavy-tailed jitter.
    speed = tuple(2.0 if s == n_silos - 1 else 1.0 for s in range(n_silos))
    return dict(
        policy=SemiSyncPolicy(deadline=1.5),
        renorm="survivors",
        latency=LogNormalLatency(median=1.0, sigma=0.4, silo_speed=speed),
    )


@register_scenario(
    "async-fedbuff",
    description="buffered-async (FedBuff-style) staleness-weighted merging",
)
def _async_fedbuff(rounds: int, n_silos: int) -> dict:
    return dict(
        policy=BufferedAsyncPolicy(
            buffer_size=max(2, n_silos // 2), staleness_exponent=0.5
        ),
        renorm="none",
        latency=LogNormalLatency(median=1.0, sigma=0.6),
    )


@register_scenario(
    "user-churn",
    description="5%/round user departures, 3%/round arrivals; survivors renormalise",
)
def _user_churn(rounds: int, n_silos: int) -> dict:
    return dict(
        policy=SyncPolicy(),
        renorm="survivors",
        churn=ChurnProcess(departure_rate=0.05, arrival_rate=0.03),
    )


#: Uplink recipe of the bandwidth scenarios: top-5% sparsification with
#: 8-bit stochastic quantization and per-silo error feedback -- 377 B
#: against the 16 520 B float32 release on the creditcard MLP, a 43.8x
#: byte reduction (strictly post-noise, so the accounting is untouched;
#: see docs/scenarios.md).
_BANDWIDTH_COMPRESSION = CompressionSpec(
    sparsify="topk", fraction=0.05, quantize_bits=8, error_feedback=True
)


@register_scenario(
    "bandwidth-cap",
    description="4 KB/round per-silo uplink caps; only compressed updates "
    "(top-5% + 8-bit + error feedback) fit",
)
def _bandwidth_cap(rounds: int, n_silos: int) -> dict:
    # A 4 KB per-round uplink budget per silo: the dense float32 payload
    # (~16.5 KB for the creditcard MLP) would exclude every silo every
    # round; the 377 B compressed payload is what admits them at all.
    return dict(
        policy=SyncPolicy(),
        renorm="none",
        bandwidth=BandwidthModel(rate=8192.0, byte_cap=4096.0),
        compression=_BANDWIDTH_COMPRESSION,
    )


@register_scenario(
    "bandwidth-stragglers",
    description="semi-sync deadline where uplink transmission time joins "
    "compute latency; one silo has a 4x-slower link",
)
def _bandwidth_stragglers(rounds: int, n_silos: int) -> dict:
    # Heterogeneous links under a semi-sync deadline: the last silo's
    # uplink is 4x slower, so its transmission time alone (377 B at 384
    # B/unit, ~1.0 units; the others ~0.25) pushes it past the 1.5-unit
    # deadline on bad latency draws -- and a dense payload would strand
    # *everyone*.
    silo_rate = tuple(0.25 if s == n_silos - 1 else 1.0 for s in range(n_silos))
    return dict(
        policy=SemiSyncPolicy(deadline=1.5),
        renorm="survivors",
        latency=LogNormalLatency(median=0.5, sigma=0.3),
        bandwidth=BandwidthModel(rate=1536.0, silo_rate=silo_rate),
        compression=_BANDWIDTH_COMPRESSION,
    )


def available_scenarios() -> list[str]:
    """Names accepted by ``sim.scenario``."""
    return SCENARIOS.names()


def describe_scenario(name: str) -> str:
    """One-line description of a named scenario.

    Unknown names raise :class:`repro.api.registries.UnknownNameError`
    (a ``KeyError`` listing valid names plus a nearest-match suggestion).
    """
    return SCENARIOS.describe(name)


def scenario_recipe(
    name: str, scale: str = "small", rounds: int | None = None
) -> tuple[dict, dict]:
    """``(sizes, overrides)`` of a named scenario, nothing built: the scale
    tier's workload sizes (``rounds`` resolved) and the scenario's
    :class:`SimConfig` overrides (policy, compression, bandwidth).  What
    :func:`repro.api.runner.build_simulator` builds from and spec
    validation reads."""
    sizes = _scale_params(scale)
    if rounds is not None:
        sizes["rounds"] = int(rounds)
    return sizes, SCENARIOS.get(name)(sizes["rounds"], sizes["n_silos"])


def bind_scenario(name: str, scale: str, seed: int, rounds: int | None, method):
    """Build a scenario's federation and model template and bind ``method``
    to them (:meth:`repro.core.FLMethod.bind`): what every party of a run
    builds, bit for bit -- the server's simulator
    (:func:`repro.api.runner.build_simulator`) and each ``repro silo``
    replica -- so no replica can drift from the
    server.  The template and the method's party draws come from the
    simulator's training stream (``SimConfig.seed``), in that order.
    Returns the federation; the model and generator are ``method``'s."""
    from repro.data import build_creditcard_benchmark

    params, _ = scenario_recipe(name, scale, rounds)
    fed = build_creditcard_benchmark(
        n_users=params["n_users"],
        n_silos=params["n_silos"],
        distribution="zipf",
        n_records=params["n_records"],
        n_test=params["n_test"],
        seed=seed,
    )
    rng = np.random.default_rng(seed + 1)
    method.bind(fed, default_model_for(fed, rng), rng)
    return fed


def resume_simulator(checkpoint_dir: str):
    """Rebuild a simulator from a checkpoint directory (not yet run).

    Returns ``(simulator, extra)`` where ``extra`` is the payload stored
    at save time (:func:`repro.api.runner.checkpoint_extra`: the spec
    snapshot and its hash).  The one resume rule, for ``repro run
    --resume``, ``repro serve --resume`` and the library alike: the
    stored snapshot must hash to the recorded ``spec_hash``, and the
    simulator is rebuilt from it (:func:`repro.api.runner.build_simulator`)
    before the state loads -- a checkpoint with no spec, or a tampered
    or schema-mismatched one, is refused, so no run continues under a
    configuration it does not describe.  Continue it with
    :func:`run_simulator_with_checkpoints` into the same directory.
    """
    from repro.api.runner import build_simulator, verify_checkpoint_spec
    from repro.sim.checkpoint import load_checkpoint

    state, extra = load_checkpoint(checkpoint_dir)
    sim = build_simulator(verify_checkpoint_spec(extra))
    sim.load_state(state)
    return sim, extra


def save_checkpoint_if_due(
    sim, checkpoint_dir: str | None, checkpoint_every: int | None, extra: dict
) -> None:
    """Snapshot ``sim`` into ``checkpoint_dir`` when the release just
    recorded ends a period: every ``checkpoint_every``-th round counted
    from the start of the run (default: a quarter of it), and the last.
    A resumed run therefore snapshots at the rounds the uninterrupted one
    would; ``repro run`` and ``repro serve`` both step through here."""
    if not checkpoint_dir:
        return
    every = checkpoint_every or max(1, sim.config.rounds // 4)
    if sim.done or sim.rounds_completed % every == 0:
        from repro.obs.trace import get_recorder
        from repro.sim.checkpoint import save_checkpoint

        with get_recorder().span(
            "checkpoint", kind="phase", round=sim.rounds_completed
        ):
            save_checkpoint(checkpoint_dir, sim, extra=extra)


def run_simulator_with_checkpoints(
    sim,
    checkpoint_dir: str | None,
    checkpoint_every: int | None,
    extra: dict,
) -> None:
    """Drive a simulator to completion, snapshotting on the
    :func:`save_checkpoint_if_due` cadence."""
    while not sim.done:
        sim.step()
        save_checkpoint_if_due(sim, checkpoint_dir, checkpoint_every, extra)

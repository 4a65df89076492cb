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
at the scale tier's size) and the method (``uldp-avg-w`` unless a
:class:`repro.api.RunSpec` supplies one) are owned by
:func:`build_scenario`.  ``docs/scenarios.md`` describes each builtin's
semantics and its privacy-accounting caveats.

The registry composes with checkpointing: :func:`run_scenario` snapshots
every ``checkpoint_every`` releases and :func:`resume_simulator` rebuilds
a simulator from a checkpoint directory.  Checkpoints written through the
spec API carry the resolved spec snapshot plus its canonical hash in
their ``extra`` payload; resume recomputes the hash and **refuses a
tampered or mismatched spec**.
"""

from __future__ import annotations

from repro.api.registries import SCENARIOS, register_scenario
from repro.api.spec import SCALES
from repro.compress import CompressionSpec
from repro.sim.checkpoint import load_checkpoint, save_checkpoint
from repro.sim.participation import (
    BandwidthModel,
    ChurnProcess,
    IidSiloDropout,
    LogNormalLatency,
    SiloOutageWindows,
)
from repro.sim.policies import BufferedAsyncPolicy, SemiSyncPolicy, SyncPolicy
from repro.sim.scheduler import FederationSimulator, SimConfig


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
#: 8-bit stochastic quantization and per-silo error feedback -- roughly a
#: 30x byte reduction on the creditcard MLP (strictly post-noise, so the
#: accounting is untouched; see docs/scenarios.md).
_BANDWIDTH_COMPRESSION = CompressionSpec(
    sparsify="topk", fraction=0.05, quantize_bits=8, error_feedback=True
)


@register_scenario(
    "bandwidth-cap",
    description="4 KB/round per-silo uplink caps; only compressed updates "
    "(top-5% + 8-bit + error feedback) fit",
)
def _bandwidth_cap(rounds: int, n_silos: int) -> dict:
    # A 4 KB per-round uplink budget per silo: the dense float64 payload
    # (~33 KB for the creditcard MLP) would exclude every silo every
    # round; the ~1 KB compressed payload is what admits them at all.
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
    # uplink is 4x slower, so its transmission time alone (~1.0 units on
    # the compressed payload) pushes it past the 1.5-unit deadline on bad
    # latency draws -- and a dense payload would strand *everyone*.
    silo_rate = tuple(0.25 if s == n_silos - 1 else 1.0 for s in range(n_silos))
    return dict(
        policy=SemiSyncPolicy(deadline=1.5),
        renorm="survivors",
        latency=LogNormalLatency(median=0.5, sigma=0.3),
        bandwidth=BandwidthModel(rate=4096.0, silo_rate=silo_rate),
        compression=_BANDWIDTH_COMPRESSION,
    )


def available_scenarios() -> list[str]:
    """Names accepted by :func:`build_scenario` / ``sim.scenario``."""
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
    :func:`build_scenario` builds from and spec validation reads."""
    sizes = _scale_params(scale)
    if rounds is not None:
        sizes["rounds"] = int(rounds)
    return sizes, SCENARIOS.get(name)(sizes["rounds"], sizes["n_silos"])


def build_scenario(
    name: str,
    scale: str = "small",
    seed: int = 0,
    rounds: int | None = None,
    noise_multiplier: float = 5.0,
    method=None,
    delta: float = 1e-5,
    eval_every: int = 1,
) -> FederationSimulator:
    """Construct a ready-to-run simulator for a named scenario.

    The construction is deterministic in its arguments: a resumed
    checkpoint rebuilds the identical simulator through this function
    before loading state.  ``method`` (an :class:`repro.core.FLMethod`)
    overrides the scenario family's canonical ``uldp-avg-w``; the spec
    API builds it from the run's ``[method]`` section.
    """
    from repro.data import build_creditcard_benchmark

    params, overrides = scenario_recipe(name, scale, rounds)
    rounds = params["rounds"]
    fed = build_creditcard_benchmark(
        n_users=params["n_users"],
        n_silos=params["n_silos"],
        distribution="zipf",
        n_records=params["n_records"],
        n_test=params["n_test"],
        seed=seed,
    )
    if method is None:
        from repro.core.methods.uldp_avg import UldpAvg

        method = UldpAvg(
            noise_multiplier=noise_multiplier,
            local_epochs=1,
            weighting="proportional",
        )
    config = SimConfig(
        rounds=rounds, seed=seed + 1, delta=delta, eval_every=eval_every,
        **overrides,
    )
    return FederationSimulator(fed, method, config)


def run_scenario(
    name: str,
    scale: str = "small",
    seed: int = 0,
    rounds: int | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int | None = None,
) -> FederationSimulator:
    """Run a named scenario to completion (checkpointing along the way)."""
    sim = build_scenario(name, scale=scale, seed=seed, rounds=rounds)
    run_simulator_with_checkpoints(
        sim,
        checkpoint_dir,
        checkpoint_every,
        extra={"scenario": name, "scale": scale, "seed": seed, "rounds": rounds},
    )
    return sim


def resume_simulator(checkpoint_dir: str) -> tuple[FederationSimulator, dict]:
    """Rebuild a simulator from a checkpoint directory (not yet run).

    Returns ``(simulator, extra)`` where ``extra`` is the payload stored
    at save time.  Spec-stamped checkpoints (anything written through
    ``repro run`` / ``repro serve``) are verified first: the stored
    snapshot must hash to the recorded ``spec_hash``, otherwise resume is
    refused -- a tampered or schema-mismatched configuration must not
    silently continue a run it does not describe.  Call
    ``simulator.run()`` -- or :func:`continue_simulation` -- to finish
    the remaining rounds.
    """
    state, extra = load_checkpoint(checkpoint_dir)
    if not extra or "scenario" not in extra:
        raise ValueError("checkpoint does not carry scenario metadata")
    from repro.api.runner import build_simulator, verify_checkpoint_spec

    spec = verify_checkpoint_spec(extra)
    if spec is not None:
        sim = build_simulator(spec)  # stamps the history with the spec
    else:
        sim = build_scenario(
            extra["scenario"],
            scale=extra.get("scale", "small"),
            seed=int(extra.get("seed", 0)),
            rounds=extra.get("rounds"),
        )
    sim.load_state(state)
    return sim, extra


def continue_simulation(
    checkpoint_dir: str, checkpoint_every: int | None = None
) -> FederationSimulator:
    """Resume from a checkpoint and run the remaining rounds."""
    sim, extra = resume_simulator(checkpoint_dir)
    run_simulator_with_checkpoints(sim, checkpoint_dir, checkpoint_every, extra=extra)
    return sim


def run_simulator_with_checkpoints(
    sim: FederationSimulator,
    checkpoint_dir: str | None,
    checkpoint_every: int | None,
    extra: dict,
) -> None:
    """Drive a simulator to completion, snapshotting every k releases."""
    if checkpoint_dir is None:
        sim.run()
        return
    every = checkpoint_every or max(1, sim.config.rounds // 4)
    while not sim.done:
        sim.run(stop_after=min(sim.rounds_completed + every, sim.config.rounds))
        save_checkpoint(checkpoint_dir, sim, extra=extra)

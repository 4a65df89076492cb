"""The event-driven federation scheduler driving the Trainer step API.

:class:`FederationSimulator` owns a :class:`repro.core.Trainer` and
advances it one *release* at a time under a :class:`SimConfig`:

- synchronous / semi-synchronous policies: each release is one round; the
  scheduler draws the round's dropout mask, latencies, and churn, builds a
  :class:`repro.core.weighting.RoundParticipation`, and calls
  ``trainer.step(participation)`` -- the method itself performs the
  participation-aware weighting and honest accounting.
- buffered-async policy: silos compute against whatever params they last
  pulled; completion events are processed in virtual-clock order and every
  ``buffer_size`` completions the scheduler merges the buffer with
  staleness weights, performs the sensitivity bookkeeping itself (a user
  may appear in several buffered payloads), steps the accountant, and
  records the release through ``trainer.apply_external_round``.  It
  drives the method's per-silo step (``FLMethod.has_silo_step``).

The scheduler reads a method only through what :class:`repro.core.FLMethod`
declares -- attributes, never a ``getattr`` with a fallback: a fallback
like "no ``noise_multiplier`` means 0.0" would be a noiseless release.

Two independent RNG streams keep the simulation honest and resumable: the
trainer's stream drives training/noise exactly as in the plain loop, the
scheduler's stream drives participation dynamics.  All scheduler state --
virtual clock, carryover gains, pending async jobs, population flags --
serialises through :meth:`FederationSimulator.state_dict`, with the
method's own block in it (``FLMethod.state_dict``: compressor, every
accountant, secure-protocol counters), which is what makes killed
simulations resume bit-identically (:mod:`repro.sim.checkpoint`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.compress import CompressionSpec
from repro.core.methods.base import FLMethod, ParticipationSummary
from repro.core.trainer import Trainer, TrainingHistory
from repro.core.weighting import (
    RENORMS,
    RoundParticipation,
    participation_weights,
)
from repro.data.federated import FederatedDataset
from repro.nn.model import Sequential
from repro.obs.metrics import get_registry
from repro.obs.trace import get_recorder
from repro.sim.participation import (
    BandwidthModel,
    ChurnProcess,
    NoDropout,
    NoLatency,
)
from repro.sim.policies import (
    BufferedAsyncPolicy,
    SemiSyncPolicy,
    SyncPolicy,
    staleness_weight,
)
from repro.sim.population import ShardedUserPopulation

#: Seed-sequence tag separating the scheduler's rng stream from training.
_SIM_STREAM = 0x51D0


@dataclass(frozen=True)
class SimConfig:
    """Everything that defines one simulation run (immutable)."""

    rounds: int
    policy: SyncPolicy | SemiSyncPolicy | BufferedAsyncPolicy = field(
        default_factory=SyncPolicy
    )
    renorm: str = "none"
    dropout: object = field(default_factory=NoDropout)
    latency: object = field(default_factory=NoLatency)
    churn: ChurnProcess | None = None
    #: Cap on the carryover gain a returning silo may apply (bounds the
    #: sensitivity blow-up a missed-round make-up can cause).
    carryover_max_gain: float = 2.0
    noise_rescale: bool = True
    eval_every: int = 1
    delta: float = 1e-5
    seed: int = 0
    #: Update-compression recipe handed to the trainer/method (post-noise;
    #: the accounting is untouched).  None = dense payloads.
    compression: CompressionSpec | None = None
    #: Uplink bandwidth model: transmission time joins the compute latency
    #: and byte caps exclude silos whose payload does not fit.
    bandwidth: BandwidthModel | None = None

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("need at least one round")
        if self.renorm not in RENORMS:
            raise ValueError(f"renorm must be one of {RENORMS}")
        if self.carryover_max_gain < 1:
            raise ValueError("carryover gain cap must be at least 1")


@dataclass
class _PendingUpdate:
    """One in-flight async silo computation (created at job start)."""

    silo: int
    version: int
    finish: float
    seq: int
    payload: np.ndarray
    users: np.ndarray
    weights: np.ndarray


class FederationSimulator:
    """Runs one FL method under participation dynamics and a release policy."""

    def __init__(
        self,
        fed: FederatedDataset,
        method: FLMethod,
        config: SimConfig,
        model: Sequential | None = None,
        population: ShardedUserPopulation | None = None,
    ):
        self.fed = fed
        self.method = method
        self.config = config
        self.trainer = Trainer(
            fed,
            method,
            rounds=config.rounds,
            model=model,
            delta=config.delta,
            seed=config.seed,
            eval_every=config.eval_every,
            compression=config.compression,
        )
        self.sim_rng = np.random.default_rng([config.seed, _SIM_STREAM])
        self.population = (
            population
            if population is not None
            else ShardedUserPopulation(fed.n_users, seed=config.seed)
        )
        if isinstance(config.policy, BufferedAsyncPolicy):
            if not method.has_silo_step:
                raise TypeError(
                    "buffered-async aggregation needs the per-silo step API "
                    f"(has_silo_step; {method.display_name} declares none)"
                )
            if method.user_sample_rate:
                raise ValueError(
                    "buffered-async simulation does not compose with "
                    "server-side user sub-sampling"
                )
            # The trainer above already ran prepare(), so the method's
            # active_compression is the effective (trainer-override) spec.
            spec = method.active_compression
            if spec is not None and not spec.is_identity:
                raise ValueError(
                    "lossy update compression is not supported with "
                    "buffered-async aggregation (payloads bypass the "
                    "method's round pipeline)"
                )
            if config.bandwidth is not None:
                raise ValueError(
                    "bandwidth models are not supported with buffered-async "
                    "aggregation (transmission time and byte caps are only "
                    "applied by the sync/semi-sync round loop)"
                )
        #: Virtual wall-clock (abstract latency units).
        self.clock = 0.0
        #: Optional externally-observed silo liveness (boolean, one entry
        #: per silo) ANDed into each sync-like round's dropout draw.  The
        #: networked runtime (:mod:`repro.net`) writes real timeout-detected
        #: dropouts here before each step; None (the default) leaves the
        #: simulated dynamics untouched.  Transient -- not checkpointed.
        self.external_dropout: np.ndarray | None = None
        #: Carryover gain each silo would re-enter with (1 = fully caught up).
        self.carry_gain = np.ones(fed.n_silos)
        #: Structured per-release log (policy decisions, renorm, roster).
        self.round_log: list[dict] = []
        # Async event state.
        self._pending: list[_PendingUpdate] = []
        self._buffer: list[_PendingUpdate] = []
        self._version = 0
        self._seq = 0

    # -- convenience ---------------------------------------------------------

    @property
    def history(self) -> TrainingHistory:
        """The trainer's (live) history."""
        return self.trainer.history

    @property
    def done(self) -> bool:
        """Whether all configured releases have happened."""
        return self.trainer.done

    @property
    def rounds_completed(self) -> int:
        """Releases recorded so far."""
        return self.trainer.round_index

    def run(self, stop_after: int | None = None) -> TrainingHistory:
        """Advance until done (or until ``stop_after`` releases happened)."""
        while not self.done:
            if stop_after is not None and self.rounds_completed >= stop_after:
                break
            self.step()
        return self.history

    # -- one release ---------------------------------------------------------

    def step(self) -> None:
        """Advance the simulation by exactly one recorded release."""
        if self.done:
            raise RuntimeError("simulation already completed")
        if isinstance(self.config.policy, BufferedAsyncPolicy):
            self._step_async()
        else:
            self._step_sync_like()

    def _user_mask(self) -> np.ndarray | None:
        """Current user activity flags (None when churn is disabled)."""
        if self.config.churn is None:
            return None
        return self.population.active_mask(0, self.fed.n_users)

    def _step_sync_like(self) -> None:
        """One synchronous or semi-synchronous round."""
        t = self.rounds_completed
        config = self.config
        if config.churn is not None:
            config.churn.step(self.population, self.sim_rng)
        up = config.dropout.draw(t, self.fed.n_silos, self.sim_rng)
        observed_down = 0
        if self.external_dropout is not None:
            observed = np.asarray(self.external_dropout, dtype=bool)
            up = up & observed
            observed_down = int((~observed).sum())
        # Silos alive here received the round's model broadcast: dropout
        # (and an observed outage) keeps a silo from even fetching the
        # model, but deadline misses and bandwidth rejection happen
        # *after* the download, so those silos still consumed downlink.
        broadcast = up.copy()
        latency = config.latency.draw(t, self.fed.n_silos, self.sim_rng)
        payload_bytes = None
        if config.bandwidth is not None:
            # Uplink transmission joins the compute latency, and silos
            # whose payload blows the byte cap cannot contribute at all --
            # the lever compression moves.
            payload_bytes = int(self.method.uplink_payload_bytes())
            latency = latency + config.bandwidth.transmission_times(
                payload_bytes, self.fed.n_silos
            )
            up = up & config.bandwidth.admitted(payload_bytes, self.fed.n_silos)
        if isinstance(config.policy, SemiSyncPolicy):
            included = up & (latency <= config.policy.deadline)
            self.clock += config.policy.deadline
        else:
            included = up
            self.clock += float(latency[up].max(initial=0.0))
        gains = None
        if config.renorm == "carryover":
            gains = np.minimum(self.carry_gain, config.carryover_max_gain)
        participation = RoundParticipation(
            silo_mask=included,
            user_mask=self._user_mask(),
            silo_gain=gains,
            renorm=config.renorm,
            noise_rescale=config.noise_rescale,
            broadcast_mask=broadcast,
        )
        self.trainer.step(participation)
        # A silo that contributed is caught up; one that missed owes one
        # more round of weight.
        self.carry_gain[included] = 1.0
        self.carry_gain[~included] += 1.0
        entry = {
            "round": t + 1,
            "policy": config.policy.name,
            "renorm": config.renorm,
            "silos_up": int(up.sum()),
            "silos_included": int(included.sum()),
            "clock": self.clock,
        }
        if payload_bytes is not None:
            entry["payload_bytes"] = int(payload_bytes)
        if observed_down:
            # Only recorded when a real (observed) dropout occurred, so an
            # ideal-network serve keeps a log bit-identical to in-process.
            entry["silos_observed_down"] = observed_down
        self.round_log.append(entry)
        self._observe_release(entry)

    # -- buffered-async ------------------------------------------------------

    def _async_round_weights(self) -> np.ndarray:
        """The weight matrix a newly-started async job trains against."""
        assert self.method.weights is not None
        participation = RoundParticipation(
            silo_mask=np.ones(self.fed.n_silos, dtype=bool),
            user_mask=self._user_mask(),
            renorm="none",
        )
        return participation_weights(self.method.weights, participation)

    def _async_noise_std(self) -> float:
        """Per-payload noise std: a full buffer carries total std sigma*C."""
        policy = self.config.policy
        assert isinstance(policy, BufferedAsyncPolicy)
        sigma, clip = self.method.noise_multiplier, self.method.clip
        return float(sigma * clip / np.sqrt(policy.buffer_size))

    def _start_job(self, silo: int) -> None:
        """Silo pulls current params and begins local work."""
        t = self.rounds_completed
        latency = float(
            self.config.latency.draw(t, self.fed.n_silos, self.sim_rng)[silo]
        )
        weight_row = self._async_round_weights()[silo]
        users, payload = self.method.silo_payload(
            silo, self.trainer.params, weight_row, self._async_noise_std()
        )
        self._pending.append(
            _PendingUpdate(
                silo=silo,
                version=self._version,
                finish=self.clock + max(latency, 1e-9),
                seq=self._seq,
                payload=payload,
                users=np.array(users, dtype=np.int64),
                weights=weight_row[users],
            )
        )
        self._seq += 1

    def _step_async(self) -> None:
        """Process completion events until the next buffered release."""
        policy = self.config.policy
        assert isinstance(policy, BufferedAsyncPolicy)
        # Churn advances once per release, matching the sync policies'
        # per-round rate semantics (jobs started during this release window
        # see the post-churn roster).
        if self.config.churn is not None:
            self.config.churn.step(self.population, self.sim_rng)
        if not self._pending and not self._buffer:
            # Cold start: every up silo begins from the initial params.
            up = self.config.dropout.draw(0, self.fed.n_silos, self.sim_rng)
            for silo in np.flatnonzero(up):
                self._start_job(int(silo))
            if not self._pending:
                raise RuntimeError("async simulation has no live silos")
        while len(self._buffer) < policy.buffer_size:
            nxt = min(self._pending, key=lambda u: (u.finish, u.seq))
            self._pending.remove(nxt)
            self.clock = nxt.finish
            staleness = self._version - nxt.version
            if staleness > policy.max_staleness:
                # Too stale to merge: drop the payload, restart the silo.
                self._start_job(nxt.silo)
                continue
            self._buffer.append(nxt)
            self._start_job(nxt.silo)
        self._release_buffer()

    def _release_buffer(self) -> None:
        """Merge the buffered payloads and record one release."""
        policy = self.config.policy
        assert isinstance(policy, BufferedAsyncPolicy)
        merged = self._buffer[: policy.buffer_size]
        self._buffer = self._buffer[policy.buffer_size :]
        discounts = np.array(
            [
                staleness_weight(self._version - u.version, policy.staleness_exponent)
                for u in merged
            ]
        )
        aggregate = np.zeros_like(self.trainer.params)
        realised: dict[int, float] = {}
        for discount, update in zip(discounts, merged):
            aggregate += discount * update.payload
            for user, w in zip(update.users, update.weights):
                realised[int(user)] = realised.get(int(user), 0.0) + discount * float(w)
        sensitivity = max(realised.values(), default=0.0)
        # Each payload carries noise std sigma*C/sqrt(K); the discounted sum
        # has std sigma*C*sqrt(mean(discount^2)).
        noise_scale = float(np.sqrt(np.mean(discounts**2)))
        self.method.accountant.step_release(
            self.method.noise_multiplier, sensitivity=sensitivity,
            noise_scale=noise_scale,
        )
        params = self.method.apply_aggregate(
            self.trainer.params, aggregate, n_updates=len(merged)
        )
        self._version += 1
        t = self.rounds_completed
        self.trainer.apply_external_round(
            params,
            participation_summary=ParticipationSummary(
                silos_seen=len({u.silo for u in merged}),
                users_seen=len(realised),
            ),
        )
        entry = {
            "round": t + 1,
            "policy": policy.name,
            "renorm": "staleness",
            "silos_included": len({u.silo for u in merged}),
            "mean_staleness": float(
                np.mean([self._version - 1 - u.version for u in merged])
            ),
            "sensitivity": sensitivity,
            "noise_scale": noise_scale,
            "clock": self.clock,
        }
        self.round_log.append(entry)
        self._observe_release(entry)

    def _observe_release(self, entry: dict) -> None:
        """Mirror one round-log entry into the trace and metrics layers."""
        get_recorder().event("sim_release", **entry)
        get_registry().counter(
            "sim_releases_total",
            help="Simulator round releases (sync rounds or async buffers).",
        ).inc()
        get_registry().gauge(
            "sim_clock_seconds",
            help="The simulator's virtual clock.", unit="seconds",
        ).set(entry.get("clock", 0.0))

    # -- checkpoint serialisation --------------------------------------------

    def state_dict(self) -> dict:
        """Complete dynamic state; restoring it resumes bit-identically.

        The *static* configuration (dataset, method hyper-parameters,
        :class:`SimConfig`) is not included -- a resume reconstructs the
        simulator through the same scenario/constructor and then loads
        this state (see :mod:`repro.sim.checkpoint`).
        """
        trainer = self.trainer

        def rows(records) -> list[list]:
            return [list(dataclasses.astuple(record)) for record in records]

        return {
            "schema": "uldp-fl-sim/v1",
            "round": trainer.round_index,
            "params": trainer.params.copy(),
            "trainer_rng": trainer.rng.bit_generator.state,
            "sim_rng": self.sim_rng.bit_generator.state,
            "clock": self.clock,
            "carry_gain": self.carry_gain.copy(),
            "round_log": [dict(r) for r in self.round_log],
            "history": {
                "records": rows(trainer.history.records),
                "round_seconds": list(trainer.history.round_seconds),
                "participation": rows(trainer.history.participation),
                "comm": rows(trainer.history.comm),
            },
            "method": self.method.state_dict(),  # the method owns its state
            "population": self.population.state_dict(),
            "async": {
                "version": self._version,
                "seq": self._seq,
                # asdict deep-copies the payload / users / weights arrays.
                "pending": [dataclasses.asdict(u) for u in self._pending],
                "buffer": [dataclasses.asdict(u) for u in self._buffer],
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (see checkpoint module)."""
        from repro.core.trainer import CommRecord, ParticipationRecord, RoundRecord

        if state.get("schema") != "uldp-fl-sim/v1":
            raise ValueError(f"unknown simulator schema: {state.get('schema')!r}")
        trainer = self.trainer
        trainer._round = int(state["round"])
        trainer._params = np.asarray(state["params"], dtype=np.float64).copy()
        trainer.model.set_flat_params(trainer.params)
        trainer.rng.bit_generator.state = state["trainer_rng"]
        self.sim_rng.bit_generator.state = state["sim_rng"]
        self.clock = float(state["clock"])
        self.carry_gain = np.asarray(state["carry_gain"], dtype=np.float64).copy()
        self.round_log = [dict(r) for r in state["round_log"]]
        history = trainer.history
        history.records[:] = [
            RoundRecord(
                int(rnd), name, float(metric), float(loss),
                None if eps is None else float(eps),
            )
            for rnd, name, metric, loss, eps in state["history"]["records"]
        ]
        history.round_seconds[:] = [float(s) for s in state["history"]["round_seconds"]]
        history.participation[:] = [
            ParticipationRecord(int(r), int(s), int(u))
            for r, s, u in state["history"]["participation"]
        ]
        # Optional key: snapshots written before the comm ledger load fine.
        history.comm[:] = [
            CommRecord(int(r), int(u), int(d))
            for r, u, d in state["history"].get("comm", [])
        ]
        method_state = state.get("method")
        if method_state is None:
            # Snapshots written before methods owned their state kept it
            # in three flat keys ("protocol" only ever for secure methods).
            method_state = {
                key: state.get(key)
                for key in ("compressor", "accountant", "protocol")
            }
        self.method.load_state(method_state)
        self.population.load_state(state["population"])
        async_state = state["async"]
        self._version = int(async_state["version"])
        self._seq = int(async_state["seq"])

        def _updates(entries) -> list[_PendingUpdate]:
            return [
                _PendingUpdate(
                    silo=int(u["silo"]),
                    version=int(u["version"]),
                    finish=float(u["finish"]),
                    seq=int(u["seq"]),
                    payload=np.asarray(u["payload"], dtype=np.float64).copy(),
                    users=np.asarray(u["users"], dtype=np.int64).copy(),
                    weights=np.asarray(u["weights"], dtype=np.float64).copy(),
                )
                for u in entries
            ]

        self._pending = _updates(async_state["pending"])
        self._buffer = _updates(async_state["buffer"])

"""The event-driven federation scheduler driving the Trainer step API.

:class:`FederationSimulator` owns a :class:`repro.core.Trainer` and
advances it one *release* at a time under a :class:`SimConfig`:

- synchronous / semi-synchronous policies: each release is one round; the
  scheduler draws the round's dropout mask, latencies, and churn, builds a
  :class:`repro.core.weighting.RoundParticipation`, and calls
  ``trainer.step(participation)`` -- the method itself performs the
  participation-aware weighting and honest accounting.
- buffered-async policy: silos compute against whatever params they last
  pulled (``UldpAvg.buffered_job``); completion events are processed in
  virtual-clock order, and every ``buffer_size`` completions the scheduler
  hands the buffer and its staleness discounts to
  ``UldpAvg.release_buffered``, which merges, charges each user and the
  accountant, and steps the params.  The scheduler records the release
  through ``trainer.apply_external_round`` with what it moved (a broadcast
  per pull, a payload per update received), inside the ``round`` span it
  opens around the whole release (its clock).

The scheduler reads a method only through what it declares
(``has_silo_step`` and the per-silo step API), never a ``getattr`` with a
fallback, and computes no privacy number itself: each release's
sensitivity and noise scale in :attr:`FederationSimulator.round_log` are
the accountant's record of it.

The scheduler's stream drives participation dynamics, the trainer's the
method's server-side draws; each silo derives its own generator per
release (``UldpAvg._draw_silo``; an async job is keyed by ``_seq``).  All
scheduler state -- virtual clock, carryover gains, pending async jobs, user
activity flags -- serialises through :meth:`FederationSimulator.state_dict`,
beside the trainer's (``Trainer.state_dict``: round counter, params,
generator, history logs) and the method's own block
(``FLMethod.state_dict``: compressor, every accountant, secure-protocol
counters), which is what makes killed simulations resume bit-identically
(:mod:`repro.sim.checkpoint`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.compress.spec import CompressionSpec
from repro.core.methods.base import CommSummary, FLMethod
from repro.core.trainer import Trainer, TrainingHistory
from repro.core.weighting import RENORMS, RoundParticipation
from repro.data.federated import FederatedDataset
from repro.nn.model import Sequential
from repro.obs.trace import Span, get_recorder
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

#: Seed-sequence tag separating the scheduler's rng stream from training.
_SIM_STREAM = 0x51D0

#: The :meth:`FederationSimulator.state_dict` layout (v2: per-silo draws;
#: v3: ``user_active`` replaces the sharded ``population`` block; v4: the
#: history in the ``--output`` dict form).
SCHEMA = "uldp-fl-sim/v4"

#: Why each earlier layout is refused (``load_state``'s one-line error).
_OLD_SCHEMAS = {
    "uldp-fl-sim/v1":
        "v1 predates per-silo generators: it would resume under other draws",
    "uldp-fl-sim/v2":
        "v2 holds a sharded user population; v3 holds one user_active flag per user",
    "uldp-fl-sim/v3":
        "v3 stores the history as tuple rows; v4 stores it in the --output dict form",
}


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
        rng: np.random.Generator | None = None,
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
            rng=rng,
        )
        self.sim_rng = np.random.default_rng([config.seed, _SIM_STREAM])
        #: One activity flag per user, flipped by ``config.churn``.
        self.user_active = np.ones(fed.n_users, dtype=np.bool_)
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
        return self.user_active.copy()

    def _step_sync_like(self) -> None:
        """One synchronous or semi-synchronous round."""
        t = self.rounds_completed
        config = self.config
        if config.churn is not None:
            config.churn.step(self.user_active, self.sim_rng)
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
        get_recorder().event("sim_release", **entry)

    # -- buffered-async ------------------------------------------------------

    def _start_job(self, silo: int) -> int:
        """Silo pulls the current params -- the method's broadcast of
        them -- and begins local work; returns the pull's bytes."""
        t = self.rounds_completed
        latency = float(
            self.config.latency.draw(t, self.fed.n_silos, self.sim_rng)[silo]
        )
        broadcast = self.method.broadcast(self.trainer.params)
        users, weights, payload = self.method.buffered_job(
            silo, broadcast, self._seq, self._user_mask(),
            self.config.policy.buffer_size,
        )
        finish = self.clock + max(latency, 1e-9)
        self._pending.append(_PendingUpdate(
            silo, self._version, finish, self._seq, payload, users, weights))
        self._seq += 1
        return broadcast.nbytes

    def _step_async(self) -> None:
        """Process completion events until the next buffered release.

        The release is charged what moved while it formed: one broadcast
        per pull, one payload per update received (merged or dropped as
        stale), and timed by the ``round`` span around this whole body."""
        policy = self.config.policy
        assert isinstance(policy, BufferedAsyncPolicy)
        t = self.rounds_completed
        with get_recorder().span(
            "round", kind="round", round=t + 1, external=True
        ) as span:
            # Churn advances once per release, matching the sync policies'
            # per-round rate semantics (jobs started during this release
            # window see the post-churn roster).
            if self.config.churn is not None:
                self.config.churn.step(self.user_active, self.sim_rng)
            downlink = uplink = 0
            if not self._pending and not self._buffer:
                # Cold start: every up silo begins from the initial params.
                up = self.config.dropout.draw(0, self.fed.n_silos, self.sim_rng)
                for silo in np.flatnonzero(up):
                    downlink += self._start_job(int(silo))
                if not self._pending:
                    raise RuntimeError("async simulation has no live silos")
            while len(self._buffer) < policy.buffer_size:
                nxt = min(self._pending, key=lambda u: (u.finish, u.seq))
                self._pending.remove(nxt)
                self.clock = nxt.finish
                uplink += nxt.payload.nbytes
                staleness = self._version - nxt.version
                if staleness <= policy.max_staleness:
                    self._buffer.append(nxt)
                # A stale payload is dropped; either way the silo restarts.
                downlink += self._start_job(nxt.silo)
            entry = self._release_buffer(span, CommSummary(uplink, downlink))
        self.round_log.append(entry)
        get_recorder().event("sim_release", **entry)

    def _release_buffer(self, span: Span, comm: CommSummary) -> dict:
        """Hand the method the buffer's first ``buffer_size`` payloads with
        their staleness discounts and record its release (timed by the
        open round ``span``, having moved ``comm``); returns the release's
        round-log entry."""
        policy = self.config.policy
        assert isinstance(policy, BufferedAsyncPolicy)
        merged = self._buffer[: policy.buffer_size]
        self._buffer = self._buffer[policy.buffer_size :]
        discounts = np.array([
            staleness_weight(self._version - u.version, policy.staleness_exponent)
            for u in merged])
        report = self.method.release_buffered(
            self.trainer.params, merged, discounts, comm)
        release = self.method.last_release
        self._version += 1
        t = self.rounds_completed
        self.trainer.apply_external_round(report, span)
        return {
            "round": t + 1,
            "policy": policy.name,
            "renorm": "staleness",
            "silos_included": report.participation.silos_seen,
            "mean_staleness": float(
                np.mean([self._version - 1 - u.version for u in merged])
            ),
            "sensitivity": release.sensitivity,
            "noise_scale": release.noise_scale,
            "clock": self.clock,
        }

    # -- checkpoint serialisation --------------------------------------------

    def state_dict(self) -> dict:
        """Complete dynamic state; restoring it resumes bit-identically.

        The *static* configuration (dataset, method hyper-parameters,
        :class:`SimConfig`) is not included -- a resume rebuilds the
        simulator from its spec (:func:`repro.api.runner.build_simulator`)
        and then loads this state (see :mod:`repro.sim.checkpoint`).
        """
        return {
            "schema": SCHEMA,
            **self.trainer.state_dict(),
            "sim_rng": self.sim_rng.bit_generator.state,
            "clock": self.clock,
            "carry_gain": self.carry_gain.copy(),
            "round_log": [dict(r) for r in self.round_log],
            "method": self.method.state_dict(),  # the method owns its state
            "user_active": self.user_active.copy(),
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
        schema = state.get("schema")
        if schema != SCHEMA:
            why = _OLD_SCHEMAS.get(schema, "unknown layout")
            raise ValueError(f"simulator snapshot {schema!r} is not {SCHEMA} ({why})")
        user_active = np.asarray(state["user_active"])
        if user_active.dtype != np.bool_ or user_active.shape != self.user_active.shape:
            raise ValueError(
                f"simulator snapshot's user_active is {user_active.dtype}"
                f"{list(user_active.shape)}, expected bool[{self.fed.n_users}]")
        self.trainer.load_state(state)
        self.sim_rng.bit_generator.state = state["sim_rng"]
        self.clock = float(state["clock"])
        self.carry_gain = np.asarray(state["carry_gain"], dtype=np.float64).copy()
        self.round_log = [dict(r) for r in state["round_log"]]
        self.method.load_state(state["method"])
        self.user_active = user_active.copy()
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
                    payload=np.asarray(
                        u["payload"], dtype=self.method.payload_dtype).copy(),
                    users=np.asarray(u["users"], dtype=np.int64).copy(),
                    weights=np.asarray(u["weights"], dtype=np.float64).copy(),
                )
                for u in entries
            ]

        self._pending = _updates(async_state["pending"])
        self._buffer = _updates(async_state["buffer"])

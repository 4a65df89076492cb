"""The federated training loop and round-by-round history.

The :class:`Trainer` wires a dataset, a model, and an
:class:`repro.core.methods.base.FLMethod` together: it initialises the
global model, runs T rounds, evaluates on the held-out test split, and
queries the method's privacy accountant -- producing exactly the
(utility, epsilon)-vs-round series plotted in the paper's Figures 4-9.

The round loop is exposed as a scheduler-driven step API: :meth:`Trainer.step`
advances one round (optionally under a
:class:`repro.core.weighting.RoundParticipation` roster) and
:meth:`Trainer.apply_external_round` records a round whose aggregation
happened outside the method (the buffered-async policy of
:mod:`repro.sim`).  :meth:`Trainer.run` is the plain synchronous driver,
bit-identical to the pre-simulation loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.compress import CompressionSpec
from repro.core.engine import EngineConfig
from repro.core.methods.base import FLMethod, ParticipationSummary
from repro.core.metrics import evaluate_model, metric_name
from repro.core.weighting import RoundParticipation
from repro.data.federated import FederatedDataset
from repro.nn.model import (
    Sequential,
    build_cox_linear,
    build_creditcard_mlp,
    build_logistic,
    build_mnist_cnn,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import get_recorder


def default_model_for(fed: FederatedDataset, rng: np.random.Generator) -> Sequential:
    """The paper's model for each benchmark dataset (by shape/task)."""
    if fed.test_x.ndim == 4:
        return build_mnist_cnn(rng, image_size=fed.test_x.shape[-1])
    n_features = fed.test_x.shape[1]
    if fed.task == "survival":
        return build_cox_linear(rng, in_features=n_features)
    if n_features <= 15:
        return build_logistic(rng, in_features=n_features)
    return build_creditcard_mlp(rng, in_features=n_features)


@dataclass(frozen=True)
class RoundRecord:
    """Metrics after one training round."""

    round: int
    metric_name: str
    metric: float
    loss: float
    epsilon: float | None


@dataclass(frozen=True)
class ParticipationRecord:
    """Realised participation of one training round (all rounds logged)."""

    round: int
    #: Silos whose update (or noise share) entered this round's aggregate.
    silos_seen: int
    #: Distinct users whose records influenced this round's aggregate.
    users_seen: int


@dataclass(frozen=True)
class CommRecord:
    """Wire traffic of one training round (all rounds logged).

    Compressing methods report the compressed sizes; everything else is
    charged the dense float64 default (``silos_seen * params * 8`` each
    way), so byte columns are comparable across methods.
    """

    round: int
    #: Total silo -> server payload bytes this round.
    uplink_bytes: int
    #: Total server -> silo broadcast bytes this round.
    downlink_bytes: int


@dataclass
class TrainingHistory:
    """Round-by-round metrics, one record per evaluated round."""

    method: str
    dataset: str
    #: The resolved :class:`repro.api.RunSpec` snapshot that produced this
    #: history (stamped by ``repro.api.run``; None for ad-hoc Trainer use)
    #: and its canonical content hash -- what makes archived histories
    #: self-describing and resume spec-checked.
    spec: dict | None = None
    spec_hash: str | None = None
    records: list[RoundRecord] = field(default_factory=list)
    #: Wall-clock seconds spent in each ``method.round`` call (all rounds,
    #: evaluated or not) -- the engine benchmarks read this.
    round_seconds: list[float] = field(default_factory=list)
    #: Per-round participation (all rounds, evaluated or not); under the
    #: plain trainer every round sees the full federation.
    participation: list[ParticipationRecord] = field(default_factory=list)
    #: Per-round wire traffic (all rounds, evaluated or not); the
    #: compression benches and the bandwidth-constrained scenarios read it.
    comm: list[CommRecord] = field(default_factory=list)
    #: Cumulative per-phase protocol seconds (merged across workers) as
    #: reported by the method's ``timing_report()``; empty for methods
    #: without a :class:`repro.protocol.timing.PhaseTimer`.
    phase_seconds: dict = field(default_factory=dict)

    @property
    def total_round_seconds(self) -> float:
        """Total wall-clock time spent inside ``method.round`` calls."""
        return float(sum(self.round_seconds))

    def participation_summary(self) -> tuple[float, float] | None:
        """Mean (silos, users) seen per round, or None when never recorded."""
        if not self.participation:
            return None
        silos = [p.silos_seen for p in self.participation]
        users = [p.users_seen for p in self.participation]
        return float(np.mean(silos)), float(np.mean(users))

    def comm_summary(self) -> tuple[float, float] | None:
        """Mean per-round (uplink, downlink) bytes, or None when unlogged."""
        if not self.comm:
            return None
        up = [c.uplink_bytes for c in self.comm]
        down = [c.downlink_bytes for c in self.comm]
        return float(np.mean(up)), float(np.mean(down))

    @property
    def total_uplink_bytes(self) -> int:
        """Total silo -> server bytes across all recorded rounds."""
        return int(sum(c.uplink_bytes for c in self.comm))

    @property
    def total_downlink_bytes(self) -> int:
        """Total server -> silo bytes across all recorded rounds."""
        return int(sum(c.downlink_bytes for c in self.comm))

    @property
    def final(self) -> RoundRecord:
        if not self.records:
            raise ValueError("no rounds recorded")
        return self.records[-1]

    def series(self, key: str) -> list[float]:
        """Column extraction: 'metric', 'loss', 'epsilon', or 'round'."""
        if key not in ("metric", "loss", "epsilon", "round"):
            raise ValueError(f"unknown series key: {key!r}")
        return [getattr(r, key) for r in self.records]

    def summary(self) -> str:
        r = self.final
        eps = f"{r.epsilon:.3f}" if r.epsilon is not None else "inf (non-private)"
        return (
            f"{self.method} on {self.dataset}: round {r.round} "
            f"{r.metric_name}={r.metric:.4f} loss={r.loss:.4f} eps={eps}"
        )


class Trainer:
    """Runs one FL method for T rounds on a federated dataset.

    The trainer is a stateful round stepper: :attr:`params`,
    :attr:`history`, and the round counter advance with every
    :meth:`step` / :meth:`apply_external_round` call, and :meth:`run`
    simply steps until all rounds are done.  External schedulers (the
    :mod:`repro.sim` runtime) drive the same API with per-round
    participation rosters.
    """

    def __init__(
        self,
        fed: FederatedDataset,
        method: FLMethod,
        rounds: int,
        model: Sequential | None = None,
        delta: float = 1e-5,
        seed: int = 0,
        eval_every: int = 1,
        compression: CompressionSpec | None = None,
        engine: EngineConfig | None = None,
    ):
        if rounds < 1:
            raise ValueError("need at least one round")
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if eval_every < 1:
            raise ValueError("eval_every must be positive")
        self.fed = fed
        self.method = method
        self.rounds = rounds
        self.delta = delta
        self.eval_every = eval_every
        self.rng = np.random.default_rng(seed)
        self.model = model if model is not None else default_model_for(fed, self.rng)
        # The trainer-level spec overrides a method-level one for *this*
        # binding only -- passed explicitly so the method object itself is
        # never mutated (a method reused across trainers must not inherit
        # an earlier trainer's compression).
        # ``engine`` configures the sharded execution layout; results are
        # bit-identical for every (workers, shard_size) setting, so this
        # is a pure performance/memory knob.
        method.prepare(
            fed, self.model, self.rng, compression=compression, engine=engine
        )
        self.history = TrainingHistory(method=method.display_name, dataset=fed.name)
        self._params: np.ndarray = self.model.get_flat_params()
        self._round = 0

    @property
    def params(self) -> np.ndarray:
        """The current flat global parameter vector."""
        return self._params

    @property
    def round_index(self) -> int:
        """Number of rounds completed so far."""
        return self._round

    @property
    def done(self) -> bool:
        """Whether all configured rounds have run."""
        return self._round >= self.rounds

    def step(
        self, participation: RoundParticipation | None = None
    ) -> RoundRecord | None:
        """Advance one round; returns the evaluation record if one was due.

        ``participation`` restricts the round's roster (None = everyone).
        """
        if self.done:
            raise RuntimeError("all rounds already completed")
        t = self._round
        with get_recorder().span("round", kind="round", round=t + 1) as span:
            start = time.perf_counter()
            self._params = self.method.round(t, self._params, participation)
            seconds = time.perf_counter() - start
            record = self._finish_round(seconds, participation)
            self._annotate_round_span(span, seconds)
        return record

    def apply_external_round(
        self,
        params: np.ndarray,
        seconds: float = 0.0,
        *,
        participation_summary: ParticipationSummary,
    ) -> RoundRecord | None:
        """Record a round whose aggregation ran outside the method.

        Async policies merge buffered silo payloads themselves and hand the
        resulting params here so history/evaluation bookkeeping stays in
        one place.  No ``method.round()`` ran, so the caller states who
        took part: ``participation_summary`` becomes the method's
        ``last_participation`` for the participation log.
        """
        if self.done:
            raise RuntimeError("all rounds already completed")
        with get_recorder().span(
            "round", kind="round", round=self._round + 1, external=True
        ) as span:
            self._params = params
            self.method.last_participation = participation_summary
            record = self._finish_round(seconds, participation=None)
            self._annotate_round_span(span, seconds)
        return record

    def _finish_round(
        self, seconds: float, participation: RoundParticipation | None
    ) -> RoundRecord | None:
        """Shared bookkeeping after a round: logs, counter, evaluation."""
        t = self._round
        self.history.round_seconds.append(seconds)
        self.history.participation.append(self._participation_record(t))
        self.history.comm.append(self._comm_record(t, participation))
        self._round += 1
        self._record_round_metrics(seconds)
        record = None
        if self._round % self.eval_every == 0 or self._round == self.rounds:
            record = self._evaluate()
        if self.done:
            self.model.set_flat_params(self._params)
        return record

    def _annotate_round_span(self, span, seconds: float) -> None:
        """Attach the just-finished round's bookkeeping to its trace span."""
        part = self.history.participation[-1]
        comm = self.history.comm[-1]
        span.set(
            seconds=seconds,
            silos_seen=part.silos_seen,
            users_seen=part.users_seen,
            uplink_bytes=comm.uplink_bytes,
            downlink_bytes=comm.downlink_bytes,
        )

    def _record_round_metrics(self, seconds: float) -> None:
        """Update the process metrics registry with the finished round."""
        reg = get_registry()
        reg.counter(
            "trainer_rounds_total", help="Training rounds completed."
        ).inc()
        reg.histogram(
            "trainer_round_seconds",
            help="Wall-clock seconds per training round.", unit="seconds",
        ).observe(seconds)
        comm = self.history.comm[-1]
        reg.counter(
            "comm_uplink_bytes_total",
            help="Silo -> server payload bytes (TrainingHistory ledger).",
            unit="bytes",
        ).inc(comm.uplink_bytes)
        reg.counter(
            "comm_downlink_bytes_total",
            help="Server -> silo broadcast bytes (TrainingHistory ledger).",
            unit="bytes",
        ).inc(comm.downlink_bytes)
        # Cumulative protocol-phase totals (secure methods): into history
        # for reports and into phase gauges for /metrics.
        phases = self.method.timing_report()
        if phases:
            self.history.phase_seconds = dict(phases)
            gauge = reg.gauge(
                "protocol_phase_seconds",
                help="Cumulative seconds per secure-protocol phase.",
                unit="seconds",
            )
            for name, total in phases.items():
                gauge.labels(phase=name).set(total)

    def _participation_record(self, t: int) -> ParticipationRecord:
        """The round's realised participation, as the method reported it."""
        summary = self.method.last_participation
        if summary is None:
            raise RuntimeError(
                f"{type(self.method).__name__}.round() did not set "
                "last_participation (the FLMethod contract)"
            )
        return ParticipationRecord(t + 1, summary.silos_seen, summary.users_seen)

    def _comm_record(
        self, t: int, participation: RoundParticipation | None
    ) -> CommRecord:
        """The round's wire traffic (method-reported when known).

        Methods that track bytes themselves (the compressing ULDP-AVG
        family) report through ``last_comm``; everything else is charged
        the dense float64 default so byte columns stay comparable.
        Downlink in the dense default goes to the round's broadcast
        recipients (silos alive at round start), not just the
        contributors -- a deadline-missing silo still downloaded the
        model.
        """
        summary = self.method.last_comm
        if summary is not None:
            return CommRecord(t + 1, summary.uplink_bytes, summary.downlink_bytes)
        silos_seen = self.history.participation[-1].silos_seen
        recipients = (
            self.fed.n_silos
            if participation is None
            else participation.n_broadcast_silos
        )
        dense = self._params.size * 8
        return CommRecord(t + 1, silos_seen * dense, recipients * dense)

    def _evaluate(self) -> RoundRecord:
        """Evaluate the current params; appends and returns the record."""
        with get_recorder().span("evaluate", kind="phase", round=self._round):
            self.model.set_flat_params(self._params)
            scores = evaluate_model(self.fed, self.model)
            name = metric_name(self.fed.task)
            record = RoundRecord(
                round=self._round,
                metric_name=name,
                metric=scores[name],
                loss=scores["loss"],
                epsilon=self.method.epsilon(self.delta)
                if self.method.is_private
                else None,
            )
        self.history.records.append(record)
        if record.epsilon is not None:
            get_registry().gauge(
                "privacy_epsilon_spent",
                help="Epsilon spent so far (accountant query at eval).",
            ).set(record.epsilon)
        return record

    def run(self) -> TrainingHistory:
        """Run all remaining rounds; returns the metric/epsilon history.

        Releases the method's sharded-engine worker pool on the way out
        (harmless for the single-process default; the pool is recreated
        lazily if the method is stepped again afterwards).
        """
        try:
            while not self.done:
                self.step()
        finally:
            self.method.close()
        return self.history

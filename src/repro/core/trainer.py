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
:mod:`repro.sim`); either way the round is one
:class:`repro.core.methods.base.RoundReport`, timed by its ``round`` trace
span.  :meth:`Trainer.run` is the plain synchronous driver,
bit-identical to the pre-simulation loop.  :meth:`Trainer.state_dict` /
:meth:`Trainer.load_state` are the trainer's share of a simulation
checkpoint; it stores the history in :func:`history_to_dict`'s form, the
one a ``--output`` file holds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.compress.spec import CompressionSpec
from repro.core.engine import EngineConfig
from repro.core.methods.base import FLMethod, RoundReport
from repro.core.metrics import evaluate_model, metric_name
from repro.core.weighting import RoundParticipation
from repro.data.federated import FederatedDataset
from repro.nn.model import Sequential, default_model_for
from repro.obs.trace import Span, get_recorder


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

    Every method reports it by one rule (:meth:`repro.core.FLMethod._log_comm`).
    Methods that form silo payloads (the ULDP-AVG family) charge what
    they formed: one float32 payload per contributing silo
    (:attr:`repro.core.FLMethod.payload_dtype`), or its compressed size.
    DEFAULT, ULDP-NAIVE and ULDP-GROUP, which form their aggregate in
    process from no payload array, charge ``silos_seen *
    FLMethod.payload_bytes(params)`` (float64).  Downlink is the ``nbytes``
    of the method's broadcast (:meth:`repro.core.FLMethod.broadcast`:
    ``params * 4`` for a float32 broadcast, ``params * 8`` for
    ULDP-GROUP's float64 one) times the broadcast's recipients, the silos
    alive at round start.
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
    #: Wall-clock seconds spent in each ``method.round`` call, or in each
    #: buffered-async release (all rounds, evaluated or not), read off the
    #: round's span -- the engine benchmarks read this.
    round_seconds: list[float] = field(default_factory=list)
    #: Per-round participation (all rounds, evaluated or not); under the
    #: plain trainer every round sees the full federation.
    participation: list[ParticipationRecord] = field(default_factory=list)
    #: Per-round wire traffic (all rounds, evaluated or not); the
    #: compression benches and the bandwidth-constrained scenarios read it.
    comm: list[CommRecord] = field(default_factory=list)
    #: Cumulative per-phase protocol seconds (merged across workers) as
    #: reported by the method's ``timing_report()``; empty for methods
    #: that run no :class:`repro.protocol.driver.Driver`.
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
        rng: np.random.Generator | None = None,
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
        # ``rng``: the generator ``model`` was drawn from and ``method``
        # already bound with (repro.sim.scenarios.bind_scenario), which
        # the trainer's draws continue; None starts one from ``seed``.
        self.rng = rng if rng is not None else np.random.default_rng(seed)
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
            report = self.method.round(t, self._params, participation)
            return self._finish_round(report, span)

    def apply_external_round(self, report: RoundReport, span: Span) -> RoundRecord | None:
        """Record a round whose aggregation ran outside the method.

        Async policies merge buffered silo payloads themselves and hand the
        resulting params here, with who took part and what moved, so
        history/evaluation bookkeeping stays in one place.  ``span`` is
        the ``round`` span the caller opened around the release: its
        elapsed time is the round's seconds.
        """
        if self.done:
            raise RuntimeError("all rounds already completed")
        return self._finish_round(report, span)

    def _finish_round(self, report: RoundReport, span: Span) -> RoundRecord | None:
        """Shared bookkeeping after a round, inside its open ``span``:
        logs, counter, evaluation."""
        seconds = span.elapsed
        if not isinstance(report, RoundReport):
            raise TypeError(
                f"{type(self.method).__name__}.round() returned "
                f"{type(report).__name__}, not a RoundReport (the FLMethod contract)"
            )
        number = self._round + 1
        part, comm = report.participation, report.comm
        # Built before any state changes, so a malformed report leaves the
        # trainer where it was.
        part_record = ParticipationRecord(number, part.silos_seen, part.users_seen)
        comm_record = CommRecord(number, comm.uplink_bytes, comm.downlink_bytes)
        self._round = number
        self._params = report.params
        self.history.round_seconds.append(seconds)
        self.history.participation.append(part_record)
        self.history.comm.append(comm_record)
        span.set(
            seconds=seconds,
            silos_seen=part.silos_seen,
            users_seen=part.users_seen,
            uplink_bytes=comm.uplink_bytes,
            downlink_bytes=comm.downlink_bytes,
        )
        # Cumulative protocol-phase totals (secure methods), for reports.
        phases = self.method.timing_report()
        if phases:
            self.history.phase_seconds = dict(phases)
        record = None
        if self._round % self.eval_every == 0 or self._round == self.rounds:
            record = self._evaluate()
        if self.done:
            self.model.set_flat_params(self._params)
        return record

    def _evaluate(self) -> RoundRecord:
        """Evaluate the current params; appends and returns the record."""
        with get_recorder().span("evaluate", kind="phase", round=self._round) as span:
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
            if record.epsilon is not None:
                span.set(epsilon=record.epsilon)
        self.history.records.append(record)
        return record

    def state_dict(self) -> dict:
        """The trainer's dynamic state: round counter, params, generator
        and the history's per-round logs, in :func:`history_to_dict`'s
        form plus ``round_seconds`` (the spec stamp and phase totals are
        not state: a rebuild from the spec restores them)."""
        logs = dataclasses.replace(
            self.history, spec=None, spec_hash=None, phase_seconds={})
        return {
            "round": self._round,
            "params": self._params.copy(),
            "trainer_rng": self.rng.bit_generator.state,
            "history": {
                **history_to_dict(logs),
                "round_seconds": list(self.history.round_seconds),
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this trainer."""
        self._round = int(state["round"])
        self._params = np.asarray(state["params"], dtype=np.float64).copy()
        self.model.set_flat_params(self._params)
        self.rng.bit_generator.state = state["trainer_rng"]
        logs = history_from_dict(state["history"])
        history = self.history
        history.records[:] = logs.records
        history.round_seconds[:] = [float(s) for s in state["history"]["round_seconds"]]
        history.participation[:] = logs.participation
        history.comm[:] = logs.comm

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


def history_to_dict(history: TrainingHistory) -> dict:
    """Plain-dict form of a history (stable schema, version-tagged): what
    a ``--output`` file holds and, with ``round_seconds``, what a
    checkpoint stores (:meth:`Trainer.state_dict`).

    The participation and wire-traffic logs ride along under optional
    keys, so archives written by older versions (without them) still load.
    """
    data = {
        "schema": "uldp-fl-history/v1",
        "method": history.method,
        "dataset": history.dataset,
        "records": [
            {
                "round": r.round,
                "metric_name": r.metric_name,
                "metric": r.metric,
                "loss": r.loss,
                "epsilon": r.epsilon,
            }
            for r in history.records
        ],
    }
    # Spec provenance (stamped by repro.api.run): the resolved RunSpec
    # snapshot plus its canonical hash make the archive self-describing.
    if history.spec is not None:
        data["spec"] = history.spec
    if history.spec_hash is not None:
        data["spec_hash"] = history.spec_hash
    if history.participation:
        data["participation"] = [
            {"round": p.round, "silos_seen": p.silos_seen, "users_seen": p.users_seen}
            for p in history.participation
        ]
    if history.comm:
        data["comm"] = [
            {
                "round": c.round,
                "uplink_bytes": c.uplink_bytes,
                "downlink_bytes": c.downlink_bytes,
            }
            for c in history.comm
        ]
    if history.phase_seconds:
        data["phase_seconds"] = {
            phase: float(seconds)
            for phase, seconds in history.phase_seconds.items()
        }
    return data


def history_from_dict(data: dict) -> TrainingHistory:
    """Inverse of :func:`history_to_dict`; validates the schema tag."""
    if data.get("schema") != "uldp-fl-history/v1":
        raise ValueError(f"unknown history schema: {data.get('schema')!r}")
    history = TrainingHistory(
        method=data["method"],
        dataset=data["dataset"],
        spec=data.get("spec"),
        spec_hash=data.get("spec_hash"),
    )
    for r in data["records"]:
        history.records.append(
            RoundRecord(
                round=int(r["round"]),
                metric_name=r["metric_name"],
                metric=float(r["metric"]),
                loss=float(r["loss"]),
                epsilon=None if r["epsilon"] is None else float(r["epsilon"]),
            )
        )
    for p in data.get("participation", []):
        history.participation.append(
            ParticipationRecord(
                round=int(p["round"]),
                silos_seen=int(p["silos_seen"]),
                users_seen=int(p["users_seen"]),
            )
        )
    for c in data.get("comm", []):
        history.comm.append(
            CommRecord(
                round=int(c["round"]),
                uplink_bytes=int(c["uplink_bytes"]),
                downlink_bytes=int(c["downlink_bytes"]),
            )
        )
    for phase, seconds in data.get("phase_seconds", {}).items():
        history.phase_seconds[str(phase)] = float(seconds)
    return history

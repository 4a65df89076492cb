"""Evaluate the cost model at a spec's numbers; answer capacity questions.

:func:`predict` turns a spec into a :class:`CostReport` -- per-phase
predicted seconds / uplink / downlink bytes / ciphertext elements /
resident memory, plus per-round, setup, and whole-run totals -- and
:func:`solve_max_users` inverts the (monotone-in-users) cost functions by
integer bisection: the largest user count whose predicted *per-round*
seconds / uplink bytes (and whole-run resident memory) stay within the
given budgets, holding records-per-user and every other workload knob
fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.api.spec import RunSpec
from repro.cost import workload
from repro.cost.calibrate import Calibration, load_calibration
from repro.cost.model import METRICS, CostModel, build_cost_model
from repro.cost.workload import CostError

#: Upper bound of the capacity bisection (one trillion users).
MAX_SOLVE_USERS = 10**12


def _evaluate(model: CostModel, w: dict, constants: dict[str, float]) -> list:
    """``(name, per, metric -> value)`` of every phase at workload ``w``.

    Values stay exact where the workload is (byte counts are integers or
    :class:`~fractions.Fraction` multiples of the participation), so
    totals round once, in :func:`_floats`."""
    try:
        phases = model.phases(w)
    except KeyError as exc:
        raise CostError(
            f"unresolved workload number {exc} -- the spec does not pin it "
            f"down (see docs/cost_model.md's glossary)"
        ) from None
    try:
        return [
            (ph.name, ph.per, {m: getattr(ph, m).value(constants) for m in METRICS})
            for ph in phases
        ]
    except KeyError as exc:  # a calibration file without some constant
        raise CostError(exc.args[0]) from None


def _totals(phases: list, per: str | None = None) -> dict:
    """Sum (max, for memory) of every metric over the selected phases."""
    picked = [values for _, p, values in phases if per is None or p == per]
    return {
        m: max((v[m] for v in picked), default=0)
        if m == "memory_bytes"
        else sum(v[m] for v in picked)
        for m in METRICS
    }


def _run_totals(phases: list, rounds: int) -> dict:
    """Whole-run totals: ``setup + rounds * round`` (max for memory)."""
    setup, per_round = _totals(phases, "setup"), _totals(phases, "round")
    run = {m: setup[m] + rounds * per_round[m] for m in METRICS}
    run["memory_bytes"] = _totals(phases)["memory_bytes"]
    return run


def _floats(values: dict) -> dict[str, float]:
    return {m: float(v) for m, v in values.items()}


@dataclass(frozen=True)
class PhasePrediction:
    """One phase's numeric metrics (per occurrence: per round or once)."""

    name: str
    per: str
    values: dict[str, float]


@dataclass(frozen=True)
class CostReport:
    """Everything ``repro cost`` prints, as plain numbers."""

    spec_name: str
    method: str
    backend: str | None
    family: str
    rounds: int
    phases: list[PhasePrediction]
    round_totals: dict[str, float]
    setup_totals: dict[str, float]
    run_totals: dict[str, float]
    workload: dict[str, float] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def render(self) -> str:
        """The per-phase breakdown table (fixed-width, repro-CLI style)."""
        header = (
            f"{'phase':<26s} {'per':<6s} {'seconds':>12s} {'uplink':>14s} "
            f"{'downlink':>14s} {'ciphertexts':>12s} {'memory':>12s}"
        )
        lines = [
            f"cost model: {self.spec_name}  (method={self.method}"
            + (f", backend={self.backend}" if self.backend else "")
            + f", family={self.family}, rounds={self.rounds})",
            header,
        ]

        def row(label: str, per: str, values: dict[str, float]) -> str:
            return (
                f"{label:<26s} {per:<6s} {_seconds(values['seconds']):>12s} "
                f"{_bytes(values['uplink_bytes']):>14s} "
                f"{_bytes(values['downlink_bytes']):>14s} "
                f"{_count(values['cipher_elements']):>12s} "
                f"{_bytes(values['memory_bytes']):>12s}"
            )

        for phase in self.phases:
            lines.append(row(phase.name, phase.per, phase.values))
        lines.append(row("total (one round)", "round", self.round_totals))
        lines.append(row("total (setup)", "setup", self.setup_totals))
        lines.append(row(f"total (run, T={self.rounds})", "run", self.run_totals))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _seconds(v: float) -> str:
    return "-" if v == 0 else f"{v:,.3f} s"


def _bytes(v: float) -> str:
    if v == 0:
        return "-"
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("kB", 1e3)):
        if v >= scale:
            return f"{v / scale:,.2f} {unit}"
    return f"{v:,.0f} B"


def _count(v: float) -> str:
    return "-" if v == 0 else f"{v:,.0f}"


def _resolve_calibration(
    spec: RunSpec, calibration: Calibration | None
) -> Calibration:
    if calibration is not None:
        return calibration
    if spec.cost is not None and spec.cost.calibration is not None:
        return load_calibration(spec.cost.calibration)
    return load_calibration()


def predict(
    spec: RunSpec, calibration: Calibration | None = None
) -> CostReport:
    """Numeric per-phase cost prediction of one spec."""
    calibration = _resolve_calibration(spec, calibration)
    model = build_cost_model(spec)
    w = workload.numbers(spec)
    phases = _evaluate(model, w, calibration.constants)
    return CostReport(
        spec_name=spec.name,
        method=model.method,
        backend=model.backend,
        family=model.family,
        rounds=int(w["rounds"]),
        phases=[PhasePrediction(name, per, _floats(v)) for name, per, v in phases],
        round_totals=_floats(_totals(phases, "round")),
        setup_totals=_floats(_totals(phases, "setup")),
        run_totals=_floats(_run_totals(phases, w["rounds"])),
        workload={k: float(v) for k, v in w.items()},
        notes=model.notes,
    )


# -- capacity inversion -------------------------------------------------------


@dataclass(frozen=True)
class CapacityAnswer:
    """Result of one ``--solve-for users`` question."""

    max_users: int
    #: metric name -> the per-budget individual maximum.
    per_budget: dict[str, int]
    budgets: dict[str, float]

    def render(self) -> str:
        lines = []
        for metric, limit in sorted(self.per_budget.items()):
            budget = self.budgets[metric]
            shown = (
                _seconds(budget) if metric == "round_seconds" else _bytes(budget)
            )
            lines.append(
                f"  {metric} <= {shown}: max {limit:,} users"
                + ("  <- binding" if limit == self.max_users else "")
            )
        return (
            f"max users per round within budget: {self.max_users:,}\n"
            + "\n".join(lines)
        )


def _max_users_for(value, budget: float) -> int:
    """Largest integer U with ``value(U) <= budget`` (value monotone in U)."""
    if value(1) > budget:
        return 0
    hi = 1
    while value(hi) <= budget:
        hi *= 2
        if hi > MAX_SOLVE_USERS:
            return MAX_SOLVE_USERS
    lo = hi // 2  # value(lo) <= budget < value(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if value(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def solve_max_users(
    spec: RunSpec,
    budget_seconds: float | None = None,
    budget_uplink_bytes: float | None = None,
    budget_memory_bytes: float | None = None,
    calibration: Calibration | None = None,
) -> CapacityAnswer:
    """Max users per round under per-round second/byte (and memory) budgets.

    Budgets not passed explicitly fall back to the spec's ``[cost]``
    section; at least one budget must be present.  Records per user and
    every other workload number stay fixed while users scale.
    """
    cost = spec.cost
    if budget_seconds is None and cost is not None:
        budget_seconds = cost.budget_seconds
    if budget_uplink_bytes is None and cost is not None:
        budget_uplink_bytes = cost.budget_uplink_bytes
    if budget_memory_bytes is None and cost is not None:
        budget_memory_bytes = cost.budget_memory_bytes
    budgets = {
        name: value
        for name, value in (
            ("round_seconds", budget_seconds),
            ("round_uplink_bytes", budget_uplink_bytes),
            ("memory_bytes", budget_memory_bytes),
        )
        if value is not None
    }
    if not budgets:
        raise CostError(
            "no budget given: pass --budget-seconds / --budget-uplink-bytes "
            "/ --budget-memory-bytes or set them in the spec's [cost] section"
        )
    calibration = _resolve_calibration(spec, calibration)
    model = build_cost_model(spec)
    w = workload.numbers(spec)

    def total(metric: str, users: int) -> float:
        # The population is always the user count (workload.numbers), so
        # churn and population-memory terms scale with the answer.
        at = {**w, "users": users, "population": users}
        phases = _evaluate(model, at, calibration.constants)
        if metric == "memory_bytes":
            return _totals(phases)[metric]
        return _totals(phases, "round")[metric.removeprefix("round_")]

    per_budget = {
        metric: _max_users_for(partial(total, metric), budget)
        for metric, budget in budgets.items()
    }
    return CapacityAnswer(
        max_users=min(per_budget.values()),
        per_budget=per_budget,
        budgets=budgets,
    )

"""Experiments: a committed spec file per training run, code per table.

An experiment is a **spec file you read**: ``examples/specs/<name>.toml``
is the experiment ``<name>`` (its first comment line is the one-line
description ``repro figure --list`` prints), and every file committed there
is runnable by name.  :func:`spec_for_experiment` loads the file and applies
a ``scale`` tier and a ``seed`` as ordinary
:meth:`repro.api.RunSpec.with_overrides` assignments -- nothing here spells
out a dataset, a method roster or a sweep axis.  ``scale`` in {"smoke",
"small", "paper"} controls workload size (one table, :data:`_TIERS`):

- ``smoke``: seconds; CI-sized sanity run.
- ``small``: minutes; the default, and what the committed figure files hold.
- ``paper``: the paper's parameters where feasible on a laptop (privacy
  computations exactly; utility runs with more rounds/records).

:func:`run_experiment` runs the file's sweep through
:func:`repro.api.run_sweep`; the result's histories (each stamped with its
child spec + canonical hash) are what ``--output`` saves.  The only
per-experiment *code* is registered under
:data:`repro.api.registries.EXPERIMENTS` through ``@register_experiment``
as a function ``(scale, seed) -> ExperimentResult``: the row shapers of
``fig09`` / ``fig10`` / ``sim01`` (which print a table the histories alone
do not give) and the purely analytic ``fig02`` / ``fig11`` / ``fig12``,
which train nothing and have no spec file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.api import builtin as _builtin  # noqa: F401  (registry population)
from repro.api.registries import (
    DATASETS,
    EXPERIMENTS,
    UnknownNameError,
    register_experiment,
)
from repro.api.spec import SCALES, RunSpec
from repro.core.trainer import TrainingHistory
from repro.report import comparison_table

#: The committed spec files; ``<name>.toml`` is the experiment ``<name>``.
SPEC_DIR = Path(__file__).resolve().parents[3] / "examples" / "specs"

#: Workload size per scale tier -- the one table a spec file is resized by
#: (``steps`` sizes the analytic fig02, ``params`` the analytic fig11).
_TIERS = {
    "smoke": dict(rounds=2, records=400, test_records=200, users=20, steps=1000, params=64),
    "small": dict(rounds=5, records=4000, test_records=800, users=100, steps=100_000, params=512),
    "paper": dict(rounds=20, records=25_000, test_records=5000, users=100, steps=100_000, params=2048),
}

#: Protocol 1's phases as fig10 / fig11 tabulate them: 2 of set-up, 3 per round.
_PROTOCOL_PHASES = (
    "key_exchange", "blinded_histogram",
    "offline_randomizers", "silo_weighted_encryption", "aggregate_decrypt",
)


@dataclass
class ExperimentResult:
    """Outcome of one experiment run.

    ``rows`` (when an experiment shapes any) are what :meth:`table` prints;
    ``histories`` (every spec-file experiment has them) are what
    ``repro figure --output`` saves.
    """

    name: str
    description: str
    rows: list[dict] = field(default_factory=list)
    histories: list[TrainingHistory] = field(default_factory=list)

    def table(self) -> str:
        if not self.rows:
            return comparison_table(self.histories) if self.histories else "(no rows)"
        widths = {k: max(14, len(k)) for k in self.rows[0]}
        lines = [" ".join(f"{k:>{w}s}" for k, w in widths.items())]
        for row in self.rows:
            cells = []
            for k, w in widths.items():
                v = row[k]
                cells.append(f"{v:{w}.4f}" if isinstance(v, float) else f"{v!s:>{w}s}")
            lines.append(" ".join(cells))
        return "\n".join(lines)


def _tier(scale: str) -> dict:
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}")
    return _TIERS[scale]


# -- spec-file experiments -----------------------------------------------------


def _spec_names() -> set[str]:
    return {path.stem for path in SPEC_DIR.glob("*.toml")}


def _require_spec_dir() -> None:
    """A name without a spec file is only "unknown" / "analytic" when the
    files could have been found (a non-editable install has none)."""
    if not SPEC_DIR.is_dir():
        raise FileNotFoundError(
            "spec-file experiments need the repository's examples/specs/ "
            f"directory, and {SPEC_DIR} does not exist (run from a source "
            "checkout or an editable install)"
        )


def _spec_file(name: str) -> Path | None:
    """``name``'s committed spec file; None for an analytic experiment."""
    if name in _spec_names():
        return SPEC_DIR / f"{name}.toml"
    if name not in EXPERIMENTS:
        _require_spec_dir()
        raise UnknownNameError("experiment", name, available_experiments())
    return None


def spec_for_experiment(name: str, scale: str = "small", seed: int = 0) -> RunSpec:
    """``examples/specs/<name>.toml`` resized to ``scale`` and seeded.

    The trainer seed is ``seed + 1`` with the dataset pinned to ``seed``,
    the tier sets ``rounds`` and the record counts and *caps*
    ``dataset.users`` (a file asking for fewer keeps its number); the
    fixed-silo benchmarks keep their record counts, which are part of the
    benchmark.  A ``[sim]`` spec takes the seed as is and the tier as
    ``sim.scale`` -- the scenario owns the rest.

    Raises ``KeyError`` for unknown names, ``ValueError`` for the analytic
    (function-only) experiments that have no spec form, and
    ``FileNotFoundError`` when the spec directory itself is missing.
    """
    path = _spec_file(name)
    if path is None:
        _require_spec_dir()
        raise ValueError(
            f"experiment {name!r} is analytic (computed, not trained): it has "
            "no spec file, so no RunSpec form and no histories to save"
        )
    tier = _tier(scale)
    spec = RunSpec.from_file(path)
    if spec.is_simulation:
        return spec.with_overrides({"seed": seed, "sim.scale": scale})
    overrides = {
        "seed": seed + 1,
        "dataset.seed": seed,
        "rounds": tier["rounds"],
        "dataset.users": min(tier["users"], spec.dataset.users),
    }
    if not DATASETS.entry(spec.dataset.name).meta.get("fixed_silos"):
        overrides["dataset.records"] = tier["records"]
        overrides["dataset.test_records"] = tier["test_records"]
    return spec.with_overrides(overrides)


def _run_spec(name: str, scale: str, seed: int):
    """Run ``name``'s sweep; returns the (row-less) result and the sweep."""
    from repro.api.sweep import run_sweep

    sweep = run_sweep(spec_for_experiment(name, scale, seed))
    result = ExperimentResult(
        name=name,
        description=f"{describe_experiment(name)} (scale={scale})",
        histories=sweep.histories,
    )
    return result, sweep


@register_experiment("fig09")
def fig09_subsampling(scale: str, seed: int) -> ExperimentResult:
    """One row per sample rate q: final utility and the epsilon it bought."""
    result, sweep = _run_spec("fig09", scale, seed)
    for point, run_result in zip(sweep.points, sweep.results):
        final = run_result.history.final
        result.rows.append(
            {
                "q": point.assignments["method.sample_rate"],
                "metric": final.metric,
                "loss": final.loss,
                "epsilon": final.epsilon,
            }
        )
    return result


@register_experiment("fig10")
def fig10_protocol_phases(scale: str, seed: int) -> ExperimentResult:
    """One row per dataset: whole-run seconds of local training (the rounds'
    wall-clock less the protocol phases inside them) beside Protocol 1's
    phases, each summed over the silos (one process, ``crypto.workers = 1``)."""
    result, sweep = _run_spec("fig10", scale, seed)
    for point, run_result in zip(sweep.points, sweep.results):
        history, seconds = run_result.history, run_result.history.phase_seconds
        phases = {p: seconds[p] for p in _PROTOCOL_PHASES}
        in_round = sum(seconds[p] for p in (*_PROTOCOL_PHASES[2:], "encrypt_weights"))
        training = history.total_round_seconds - in_round
        dataset = point.assignments["dataset.name"]
        result.rows.append({"dataset": dataset, "local_training": training, **phases})
    return result


@register_experiment("sim01")
def sim01_participation(scale: str, seed: int) -> ExperimentResult:
    """One row per scenario: final utility, honest epsilon, mean per-round
    participation, and the worst-case realised sensitivity -- the table
    showing what silo dropout, stragglers, churn, and async aggregation
    cost relative to the ``ideal-sync`` oracle."""
    result, sweep = _run_spec("sim01", scale, seed)
    for point, run_result in zip(sweep.points, sweep.results):
        sim = run_result.simulator
        final = run_result.history.final
        summary = run_result.history.participation_summary()
        assert summary is not None
        releases = sim.method.accountant.releases
        worst = max((r.sensitivity for r in releases), default=1.0)
        result.rows.append(
            {
                "scenario": point.assignments["sim.scenario"],
                "metric": final.metric,
                "epsilon": final.epsilon,
                "mean_silos": summary[0],
                "mean_users": summary[1],
                "max_sensitivity": worst,
            }
        )
    return result


# -- analytic experiments ------------------------------------------------------


@register_experiment("fig02", description="group-privacy conversion blow-up, exact (paper Fig. 2)")
def fig02_group_privacy(scale: str, seed: int) -> ExperimentResult:
    """GDP epsilon vs group size k (both conversion routes).

    Paper: at 1e5 steps (scale small / paper) eps = 2.85 at k = 1, ~2100 at
    k = 32, ~11400 at k = 64 (RDP route): super-linear; routes within ~3x."""
    from repro.accounting.conversion import rdp_curve_to_dp
    from repro.accounting.group import (
        group_epsilon_via_normal_dp,
        group_epsilon_via_rdp,
    )
    from repro.accounting.subsampled import subsampled_gaussian_rdp_curve

    steps = _tier(scale)["steps"]
    curve = subsampled_gaussian_rdp_curve(0.01, 5.0, steps=steps)
    result = ExperimentResult(
        name="fig02",
        description=f"group-privacy conversion (sigma=5, q=0.01, "
        f"steps={steps:,}, delta=1e-5)",
    )
    for k in (1, 2, 4, 8, 16, 32, 64):
        if k == 1:
            eps_rdp, _ = rdp_curve_to_dp(curve, 1e-5)
            eps_dp = eps_rdp
        else:
            eps_rdp = group_epsilon_via_rdp(curve, k, 1e-5)
            eps_dp = group_epsilon_via_normal_dp(curve, k, 1e-5)
        result.rows.append({"k": k, "eps_rdp_route": eps_rdp, "eps_dp_route": eps_dp})
    return result


@register_experiment("fig11", description="Protocol 1 seconds vs parameters and users (paper Fig. 11)")
def fig11_protocol_scaling(scale: str, seed: int) -> ExperimentResult:
    """Protocol 1 seconds per phase against the parameter count d and the
    user count |U|: random deltas over a random histogram (3 silos in one
    process, 256-bit keys), nothing trained.  Each sweep takes equal steps
    from the tier's base point, so "affine" reads as equal increments; the
    per-round phases are medians of three rounds, and ``silo_ciphertexts``
    (one silo's upload) is a count, exact where seconds are one host's.

    Paper: the dominant per-silo encrypted weighting grows linearly with d
    and |U| (here affine: one key-width power per user, then look-ups)."""
    import numpy as np

    from repro.protocol import PrivateWeightingProtocol

    tier = _tier(scale)
    users, params = tier["users"], tier["params"]
    description = f"Protocol 1 seconds per phase, one round (base |U|={users}, d={params})"
    result = ExperimentResult(name="fig11", description=description)
    rng = np.random.default_rng(seed)
    grid = [("params", users, k * params) for k in (1, 2, 3)]
    grid += [("users", k * users, params) for k in (1, 2, 3)]
    for swept, n_users, n_params in grid:
        protocol = PrivateWeightingProtocol(
            rng.integers(1, 5, size=(3, n_users)),
            n_max=32, paillier_bits=256, seed=seed, workers=1,
        )
        protocol.run_setup()
        totals = [protocol.report()]  # cumulative: a round is a difference
        for _ in range(3):
            protocol.run_round(
                [{u: rng.standard_normal(n_params) for u in range(n_users)} for _ in range(3)],
                [rng.standard_normal(n_params) for _ in range(3)],
            )
            totals.append(protocol.report())
        seconds = {p: totals[0][p] for p in _PROTOCOL_PHASES[:2]}
        for p in _PROTOCOL_PHASES[2:]:
            rounds = [b[p] - a.get(p, 0.0) for a, b in zip(totals, totals[1:])]
            seconds[p] = float(np.median(rounds))
        uploads = len(protocol.received("weighted_delta")[-1].arrays["delta"])
        sizes = {"swept": swept, "users": n_users, "params": n_params}
        result.rows.append({**sizes, "silo_ciphertexts": uploads, **seconds})
    return result


@register_experiment("fig12", description="record allocation statistics (paper Fig. 12)")
def fig12_allocation(scale: str, seed: int) -> ExperimentResult:
    """Record allocation statistics under both distributions (|S| = 5).

    Paper: uniform counts sit near the mean, silos balanced (top silo near
    1/|S|); zipf skews across users and packs each user into few silos."""
    import numpy as np

    from repro.data import build_creditcard_benchmark

    tier = _tier(scale)
    result = ExperimentResult(name="fig12", description="record allocation stats")
    for dist in ("uniform", "zipf"):
        fed = build_creditcard_benchmark(
            n_users=tier["users"], n_silos=5, distribution=dist,
            n_records=tier["records"], n_test=100, seed=seed,
        )
        hist = fed.histogram()
        totals = hist.sum(axis=0)
        present = totals > 0
        top_frac = (hist[:, present].max(axis=0) / totals[present]).mean()
        result.rows.append(
            {
                "distribution": dist,
                "max_records": float(totals.max()),
                "median_records": float(np.median(totals[present])),
                "top_silo_fraction": float(top_frac),
            }
        )
    return result


def available_experiments() -> list[str]:
    """Names accepted by :func:`run_experiment`: every committed spec file
    plus the analytic experiments."""
    return sorted(_spec_names() | set(EXPERIMENTS.names()))


def describe_experiment(name: str) -> str:
    """One-line description: a spec file's first comment line, else the
    registered one (unknown names get valid-name suggestions)."""
    path = _spec_file(name)
    if path is None:
        return EXPERIMENTS.describe(name)
    with path.open() as fh:
        return fh.readline().lstrip("#").strip()


def run_experiment(name: str, scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Run one named experiment at the given scale: its registered function
    when it has one, else its spec file's sweep as is."""
    if name in EXPERIMENTS:
        return EXPERIMENTS.get(name)(scale, seed)
    return _run_spec(name, scale, seed)[0]

"""Fit the cost model's leading constants from committed ``BENCH_*.json``.

Every constant multiplies a closed-form shape term (see
:mod:`repro.cost.model`), so calibration is linear: each bench
measurement contributes one row ``measured = sum_j c_j * shape_j(point)``
to a small per-phase least-squares system.  Rows are weighted by
``1/measured`` (relative error -- a 24 s encryption and a 0.7 s one
should pull equally), constants are constrained non-negative (solved by
exhaustive active-set enumeration over the <= 2 columns per group; no
scipy dependency), and measurements under :data:`MIN_FIT_SECONDS` are
excluded from both fitting and drift gating -- they are timer noise at
the resolution the benches record.

The result persists as ``src/repro/cost/calibration.json`` (schema
``cost-calibration/v1``) with the host metadata of the benches it came
from; :func:`load_calibration` round-trips the constants bit-exactly
(pinned by tests/cost/test_calibrate.py).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import sympy as sp

from repro.api.spec import CryptoSpec
from repro.compress import CompressionSpec
from repro.cost import model as M
from repro.cost.bench_schema import validate_bench_tree
from repro.cost.model import C, _secure_phases, _train_phase

CALIBRATION_SCHEMA = "cost-calibration/v1"

#: Phase measurements below this many seconds are timer noise: excluded
#: from fitting and from the drift gate.
MIN_FIT_SECONDS = 0.002

#: Acceptable predicted/measured ratio band of the CI drift gate.
DRIFT_FACTOR = 2.0

#: Committed calibration location.
DEFAULT_CALIBRATION_PATH = Path(__file__).with_name("calibration.json")

#: The calibration corpus: logical name -> bench file at the repo root.
BENCH_FILES = {
    "engine": "BENCH_engine.json",
    "protocol": "BENCH_protocol.json",
    "compression": "BENCH_compression.json",
    "scaleout": "BENCH_scaleout.json",
    "sim": "BENCH_sim.json",
}

# Fixed workload facts of the benches that their JSON does not repeat
# (constants in the bench scripts; revisit if those scripts change).
FIG05_RECORDS = 1200  # benchmarks/bench_engine_speedup.N_RECORDS
FIG05_SILOS = 5
#: benchmarks/bench_compression plaintext records per scale tier.
COMPRESSION_RECORDS = {"smoke": 400, "full": 1200}
#: benchmarks/bench_compression secure rand-k constants.
SECURE_RANDK = {"rounds": 2, "silos": 3, "paillier_bits": 256}


class CalibrationError(ValueError):
    """The bench corpus cannot support a fit (missing/invalid files)."""


# -- the persisted artifact ---------------------------------------------------


@dataclass(frozen=True)
class Calibration:
    """Fitted constants plus the provenance of the benches behind them."""

    constants: dict[str, float]
    host: dict
    fitted_from: dict[str, str]  # bench file -> host timestamp
    schema: str = CALIBRATION_SCHEMA

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "host": self.host,
            "fitted_from": self.fitted_from,
            "constants": dict(sorted(self.constants.items())),
        }

    def save(self, path: str | Path = DEFAULT_CALIBRATION_PATH) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n")
        return path

    @classmethod
    def from_dict(cls, data: dict) -> "Calibration":
        if data.get("schema") != CALIBRATION_SCHEMA:
            raise CalibrationError(
                f"calibration schema {data.get('schema')!r} != "
                f"{CALIBRATION_SCHEMA!r}"
            )
        constants = data.get("constants")
        if not isinstance(constants, dict) or not constants:
            raise CalibrationError("calibration has no constants table")
        unknown = sorted(set(constants) - set(M.CONSTANT_DEFS))
        if unknown:
            raise CalibrationError(f"unknown calibration constants: {unknown}")
        return cls(
            constants={k: float(v) for k, v in constants.items()},
            host=data.get("host", {}),
            fitted_from=data.get("fitted_from", {}),
        )

    def symbol_subs(self) -> dict:
        """``c_*`` symbol -> fitted value, for expression substitution."""
        return {C(name): value for name, value in self.constants.items()}


def load_calibration(path: str | Path | None = None) -> Calibration:
    """Load a calibration file (the committed one by default)."""
    path = Path(path) if path is not None else DEFAULT_CALIBRATION_PATH
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CalibrationError(f"{path}: unreadable calibration ({exc})") from exc
    return Calibration.from_dict(data)


# -- the fit corpus -----------------------------------------------------------


@dataclass(frozen=True)
class FitRow:
    """One measured bench point: where to evaluate the group's expression.

    ``fit=False`` rows are held-out cross-checks: they participate in the
    drift gate but not in the least-squares fit.
    """

    label: str
    subs: dict
    measured: float
    fit: bool = True


@dataclass
class FitGroup:
    """One expression (linear in its constants) with its measured rows."""

    name: str
    expr: sp.Expr
    constants: tuple[str, ...]
    rows: list[FitRow] = field(default_factory=list)
    #: Noise floor on measured values (seconds groups); 0 disables.
    floor: float = MIN_FIT_SECONDS

    def predict(self, constants: dict[str, float], row: FitRow) -> float:
        missing = [c for c in self.constants if c not in constants]
        if missing:
            raise CalibrationError(
                f"{self.name}: calibration is missing constants {missing}"
            )
        expr = self.expr.subs({C(c): constants[c] for c in self.constants})
        return float(expr.subs(row.subs))


def load_benches(bench_dir: str | Path) -> dict[str, dict]:
    """Load + schema-validate the whole calibration corpus."""
    bench_dir = Path(bench_dir)
    benches: dict[str, dict] = {}
    problems: list[str] = []
    for name, filename in BENCH_FILES.items():
        path = bench_dir / filename
        if not path.exists():
            raise CalibrationError(f"missing bench file {path}")
        tree = json.loads(path.read_text())
        problems += validate_bench_tree(tree, name=filename)
        benches[name] = tree
    if problems:
        raise CalibrationError(
            "bench schema violations:\n  " + "\n  ".join(problems)
        )
    return benches


def _fig05_dim() -> int:
    """Exact fig05 CNN parameter count (bench_engine / bench_compression)."""
    from repro.nn.model import build_mnist_cnn

    return int(
        build_mnist_cnn(np.random.default_rng(0), image_size=14)
        .get_flat_params()
        .size
    )


def _creditcard_dim() -> int:
    """Exact creditcard-MLP parameter count (sim scenarios' model)."""
    from repro.nn.model import build_creditcard_mlp

    return int(
        build_creditcard_mlp(np.random.default_rng(0), in_features=30)
        .get_flat_params()
        .size
    )


def _phase_seconds(phases, name: str) -> sp.Expr:
    for ph in phases:
        if ph.name == name:
            return ph.seconds
    raise KeyError(name)


def _train_subs(users, records_total, dim, epochs=1, participation=1.0) -> dict:
    return {
        M.USERS: users,
        M.RECORDS_PER_USER: records_total / users,
        M.DIM: dim,
        M.EPOCHS: epochs,
        M.PARTICIPATION: participation,
    }


def _protocol_subs(section: dict) -> dict:
    return {
        M.SILOS: section["n_silos"],
        M.USERS: section["n_users"],
        M.DIM: section["dim"],
        M.KEY_BITS: section["key_bits"],
        M.MASK_BITS: section["mask_bits"],
        M.PARTICIPATION: 1.0,
    }


def build_fit_groups(benches: dict[str, dict]) -> list[FitGroup]:
    """The full fit/gate corpus: every group's expression and its rows."""
    groups: list[FitGroup] = []
    fig05_dim = _fig05_dim()

    # -- training constants, CNN family (engine bench; the compression
    #    bench's fig05 runs are held-out cross-checks of the same fit).
    cnn = FitGroup(
        "train_cnn",
        _train_phase("cnn", sharded=False).seconds,
        ("train_record_cnn", "train_user_cnn"),
    )
    for key in ("fig05_u50", "fig05_u400"):
        section = benches["engine"].get(key)
        if section:
            cnn.rows.append(
                FitRow(
                    f"engine.{key}.round_seconds",
                    _train_subs(section["n_users"], FIG05_RECORDS, fig05_dim),
                    section["vectorized_seconds"] / section["rounds"],
                )
            )
    plaintext = benches["compression"].get("plaintext_fig05")
    if plaintext:
        records = COMPRESSION_RECORDS[plaintext["scale"]]
        subs = _train_subs(
            plaintext["n_users"], records, plaintext["model_params"]
        )
        for which in ("dense", "compressed"):
            cnn.rows.append(
                FitRow(
                    f"compression.plaintext_fig05.{which}_round_seconds",
                    subs,
                    plaintext[f"{which}_seconds"] / plaintext["rounds"],
                    fit=False,
                )
            )
    groups.append(cnn)

    # -- training constant, dense family + sharded-engine memory
    #    (scaleout bench: one 100k-user DP round through the worker pool).
    scaleout = benches["scaleout"]["scaleout"]
    dense_subs = _train_subs(
        scaleout["sampled_users"], scaleout["total_records"], scaleout["n_params"]
    )
    groups.append(
        FitGroup(
            "train_dense",
            _train_phase("dense", sharded=False).seconds,
            ("train_record_dense",),
            [FitRow("scaleout.round_seconds", dense_subs, scaleout["round_seconds"])],
        )
    )
    mem_subs = {
        **dense_subs,
        M.WORKERS: scaleout["workers"],
        M.SHARD_SIZE: scaleout["shard_size"],
        M.FEATURES: scaleout["features"],
    }
    groups.append(
        FitGroup(
            "engine_memory",
            _train_phase("dense", sharded=True).memory_bytes,
            ("engine_shard_memory",),
            [FitRow("scaleout.overhead_bytes", mem_subs, scaleout["overhead_mb"] * 1e6)],
            floor=0.0,
        )
    )

    # -- scheduler-inclusive per-record constant (sim dropout bench runs
    #    the smoke-scale flaky-silos scenario; participation is the
    #    bench's own measured mean silo availability).
    from repro.sim.scenarios import _scale_params

    dropout = benches["sim"]["dropout_scenario"]
    smoke = _scale_params("smoke")
    groups.append(
        FitGroup(
            "train_sim",
            _train_phase("sim", sharded=False).seconds,
            ("sim_record",),
            [
                FitRow(
                    "sim.dropout_scenario.round_seconds",
                    _train_subs(
                        smoke["n_users"],
                        smoke["n_records"],
                        _creditcard_dim(),
                        participation=dropout["mean_silos_seen"] / smoke["n_silos"],
                    ),
                    dropout["seconds"] / dropout["rounds"],
                )
            ],
        )
    )

    # -- churn + population memory (sim population bench, 1.2M users).
    pop = benches["sim"]["population_scale"]
    groups.append(
        FitGroup(
            "churn",
            C("churn_user") * M.POPULATION,
            ("churn_user",),
            [
                FitRow(
                    "sim.population_scale.churn_round_seconds",
                    {M.POPULATION: pop["n_users"]},
                    pop["churn_seconds"] / pop["churn_rounds"],
                )
            ],
        )
    )
    groups.append(
        FitGroup(
            "population_memory",
            C("population_memory") * M.POPULATION,
            ("population_memory",),
            [
                FitRow(
                    "sim.population_scale.resident_bytes",
                    {M.POPULATION: pop["n_users"]},
                    pop["resident_mb"] * 1e6,
                )
            ],
            floor=0.0,
        )
    )

    # -- protocol phases, one group per (backend, phase), rows across the
    #    bench's scale sections.
    fast = _secure_phases(CryptoSpec(backend="fast"), None)
    masked = _secure_phases(CryptoSpec(backend="masked"), None)
    protocol_groups = [
        # (group name, expr, constants, bench phase table, measured keys)
        ("paillier_keygen", _phase_seconds(fast, "keygen"),
         ("paillier_keygen",), "phases_fast", ("keygen",)),
        ("paillier_offline", _phase_seconds(fast, "offline_randomizers"),
         ("paillier_offline",), "phases_fast", ("offline_randomizers",)),
        ("paillier_encrypt", _phase_seconds(fast, "silo_weighted_encryption"),
         ("paillier_encrypt_pair", "paillier_encrypt_coord"), "phases_fast",
         ("silo_weighted_encryption",)),
        ("paillier_decrypt", _phase_seconds(fast, "aggregate_decrypt"),
         ("paillier_decrypt",), "phases_fast", ("aggregate_decrypt",)),
        ("paillier_misc", _phase_seconds(fast, "setup_misc"),
         ("paillier_misc_base", "paillier_misc_silo_user"), "phases_fast",
         ("key_exchange", "blinded_histogram", "encrypt_weights")),
        ("masked_setup", _phase_seconds(masked, "mask_setup"),
         ("masked_setup",), "phases_masked", ("keygen", "key_exchange")),
        ("masked_round", _phase_seconds(masked, "mask_and_upload"),
         ("masked_round",), "phases_masked", ("mask_and_upload",)),
    ]
    for name, expr, constants, table, keys in protocol_groups:
        group = FitGroup(name, expr, constants)
        for section_name, section in benches["protocol"].items():
            if section_name in ("schema", "host"):
                continue
            phases = section.get(table)
            if not phases:
                continue
            measured = sum(phases.get(k, 0.0) for k in keys)
            group.rows.append(
                FitRow(
                    f"protocol.{section_name}.{name}",
                    _protocol_subs(section),
                    measured,
                )
            )
        groups.append(group)
    return groups


# -- solving ------------------------------------------------------------------


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Non-negative least squares by active-set enumeration (n <= 2)."""
    m, n = A.shape
    best_x, best_resid = None, np.inf
    for mask in range(1, 2**n):
        cols = [j for j in range(n) if mask >> j & 1]
        sol, *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
        if np.any(sol <= 0):
            continue
        x = np.zeros(n)
        x[cols] = sol
        resid = float(np.linalg.norm(A @ x - b))
        if resid < best_resid:
            best_x, best_resid = x, resid
    if best_x is None:
        raise CalibrationError("no non-negative fit exists for this group")
    return best_x


def solve_group(group: FitGroup) -> dict[str, float]:
    """Weighted NNLS fit of one group's constants from its fit rows."""
    rows = [r for r in group.rows if r.fit and r.measured >= group.floor]
    if not rows:
        raise CalibrationError(
            f"{group.name}: no usable measurements above the "
            f"{group.floor:g} noise floor"
        )
    A = np.array(
        [
            [
                float(sp.diff(group.expr, C(c)).subs(r.subs))
                for c in group.constants
            ]
            for r in rows
        ]
    )
    b = np.array([r.measured for r in rows])
    weights = 1.0 / b  # relative-error weighting
    x = _nnls(A * weights[:, None], b * weights)
    return dict(zip(group.constants, (float(v) for v in x)))


def fit_calibration(
    bench_dir: str | Path,
) -> tuple[Calibration, list[FitGroup]]:
    """Fit every constant from the bench corpus under ``bench_dir``."""
    benches = load_benches(bench_dir)
    groups = build_fit_groups(benches)
    constants: dict[str, float] = {}
    for group in groups:
        constants.update(solve_group(group))
    any_host = next(iter(benches.values()))["host"]
    calibration = Calibration(
        constants=constants,
        host=any_host,
        fitted_from={
            BENCH_FILES[name]: tree["host"]["timestamp"]
            for name, tree in benches.items()
        },
    )
    return calibration, groups


# -- drift + exactness reports ------------------------------------------------


def drift_rows(calibration: Calibration, benches: dict[str, dict]) -> list[dict]:
    """Predicted-vs-measured for every bench row under given constants.

    ``gated`` rows (those above their group's noise floor) must have
    ``ratio`` within ``[1/DRIFT_FACTOR, DRIFT_FACTOR]`` to pass the CI
    gate; sub-floor rows are reported for visibility only.
    """
    out = []
    for group in build_fit_groups(benches):
        for row in group.rows:
            predicted = group.predict(calibration.constants, row)
            ratio = predicted / row.measured if row.measured > 0 else np.inf
            gated = row.measured >= group.floor
            out.append(
                {
                    "group": group.name,
                    "label": row.label,
                    "measured": row.measured,
                    "predicted": predicted,
                    "ratio": ratio,
                    "gated": gated,
                    "ok": (not gated)
                    or (1 / DRIFT_FACTOR <= ratio <= DRIFT_FACTOR),
                }
            )
    return out


def byte_check_rows(benches: dict[str, dict]) -> list[dict]:
    """Exact wire-formula checks: predicted bytes must equal measured.

    No calibration constants are involved -- these pin the byte formulas
    in :mod:`repro.cost.model` to the benches' own accounting.
    """
    rows = []

    def check(label: str, predicted: int, measured: int):
        rows.append(
            {
                "label": label,
                "predicted": int(predicted),
                "measured": int(measured),
                "gated": True,
                "ok": int(predicted) == int(measured),
            }
        )

    for name, section in benches["protocol"].items():
        if name in ("schema", "host"):
            continue
        cipher = int(
            M.ciphertext_bytes_expr().subs({M.KEY_BITS: section["key_bits"]})
        )
        check(
            f"protocol.{name}.per_silo_ciphertext_bytes",
            section["dim"] * cipher,
            section["per_silo_ciphertext_bytes"],
        )
        check(
            f"protocol.{name}.per_silo_mask_bytes",
            section["dim"] * section["mask_bits"] // 8,
            section["per_silo_mask_bytes"],
        )

    plaintext = benches["compression"].get("plaintext_fig05")
    if plaintext:
        dim = plaintext["model_params"]
        per_round = plaintext["rounds"] * FIG05_SILOS
        check(
            "compression.plaintext_fig05.dense_uplink_bytes",
            per_round * 8 * dim,
            plaintext["dense_uplink_bytes"],
        )
        spec = CompressionSpec(
            sparsify=plaintext["spec"]["sparsify"],
            fraction=plaintext["spec"]["fraction"],
            quantize_bits=plaintext["spec"]["quantize_bits"],
            error_feedback=plaintext["spec"]["error_feedback"],
        )
        check(
            "compression.plaintext_fig05.compressed_uplink_bytes",
            per_round * spec.payload_bytes(dim),
            plaintext["compressed_uplink_bytes"],
        )

    randk = benches["compression"].get("secure_randk")
    if randk:
        dim = randk["model_params"]
        cipher = int(
            M.ciphertext_bytes_expr().subs(
                {M.KEY_BITS: SECURE_RANDK["paillier_bits"]}
            )
        )
        per_round = SECURE_RANDK["rounds"] * SECURE_RANDK["silos"]
        check(
            "compression.secure_randk.dense_uplink_bytes",
            per_round * dim * cipher,
            randk["dense_uplink_bytes"],
        )
        kept = CompressionSpec(
            sparsify="randk", fraction=randk["kept_fraction"]
        ).keep_count(dim)
        check(
            "compression.secure_randk.sparse_uplink_bytes",
            per_round * kept * cipher,
            randk["sparse_uplink_bytes"],
        )
    return rows

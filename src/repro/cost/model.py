"""Symbolic per-phase cost expressions for any :class:`repro.api.RunSpec`.

Every phase of a run -- local training, crypto setup, encryption,
upload, broadcast -- gets a closed-form sympy expression in the workload
symbols below for each of five metrics (:data:`METRICS`): wall-clock
seconds, uplink bytes, downlink bytes, ciphertext/mask elements on the
wire, and resident memory.  Byte and element formulas are **exact**
(they mirror :meth:`repro.compress.CompressionSpec.payload_bytes` and
the protocol layer's wire accounting bit for bit -- pinned by
tests/cost/test_comm_crosscheck.py); seconds and memory expressions are
linear in named **calibration constants** (``c_*`` symbols, fitted from
the committed ``BENCH_*.json`` by :mod:`repro.cost.calibrate`).

The expression structure follows the complexity-model approach of
pia-mpc's ``scripts/complexity.py`` (SNIPPETS.md section 1): keep every
cost a small sum of ``constant * shape(symbols)`` terms so the same
expression serves prediction (substitute numbers), calibration (the
shape terms are the design-matrix columns), and capacity planning
(invert for one symbol).

Method coverage:

- plaintext methods (``uldp-avg[-w]``, ``uldp-sgd[-w]``, ``uldp-group``,
  ``uldp-naive`` and other registry entries) share the per-record
  training shape with per-model-family constants (``cnn`` vs ``dense``)
  and differ only through their spec knobs (epochs, compression);
- ``secure-uldp-avg`` adds the crypto phases of its backend: Protocol 1
  under ``fast`` Paillier (keygen, offline randomizer pools, per-round
  encryption/decryption, O(key_bits^3) scaling), or the pairwise-mask
  backend (O(S^2) setup, O(S^2 d) per-round masking);
- simulation specs use the scheduler-inclusive per-record constant and
  add churn and population-memory terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import sympy as sp

from repro.api.spec import SECURE_METHOD, CryptoSpec, RunSpec
from repro.compress import CompressionSpec

#: Metric attributes carried by every :class:`PhaseCost`.
METRICS = (
    "seconds",
    "uplink_bytes",
    "downlink_bytes",
    "cipher_elements",
    "memory_bytes",
)

# -- workload symbols ---------------------------------------------------------

USERS = sp.Symbol("U", positive=True)  #: participating users per round
SILOS = sp.Symbol("S", positive=True)  #: silos in the federation
DIM = sp.Symbol("d", positive=True)  #: model parameters (flat dimension)
RECORDS_PER_USER = sp.Symbol("R_u", positive=True)  #: training records per user
EPOCHS = sp.Symbol("E", positive=True)  #: local epochs per round
FEATURES = sp.Symbol("F", positive=True)  #: input features per record
ROUNDS = sp.Symbol("T", positive=True)  #: total federated rounds
KEY_BITS = sp.Symbol("kb", positive=True)  #: Paillier modulus bits
MASK_BITS = sp.Symbol("mb", positive=True)  #: pairwise-mask field bits
WORKERS = sp.Symbol("W", positive=True)  #: sharded-engine worker processes
SHARD_SIZE = sp.Symbol("Sh", positive=True)  #: aligned users per engine shard
POPULATION = sp.Symbol("P", positive=True)  #: total (sharded) user population
PARTICIPATION = sp.Symbol("p", positive=True)  #: expected silo-availability fraction
BANDWIDTH = sp.Symbol("B", positive=True)  #: effective link bytes/second
RETRY = sp.Symbol("r", nonnegative=True)  #: expected retransmission overhead fraction

#: name -> symbol, the planner's substitution vocabulary.
SYMBOLS = {
    "users": USERS,
    "silos": SILOS,
    "dim": DIM,
    "records_per_user": RECORDS_PER_USER,
    "epochs": EPOCHS,
    "features": FEATURES,
    "rounds": ROUNDS,
    "key_bits": KEY_BITS,
    "mask_bits": MASK_BITS,
    "workers": WORKERS,
    "shard_size": SHARD_SIZE,
    "population": POPULATION,
    "participation": PARTICIPATION,
    "bandwidth": BANDWIDTH,
    "retry": RETRY,
}


# -- calibration constants ----------------------------------------------------


@dataclass(frozen=True)
class ConstantDef:
    """One fitted leading constant: what it multiplies and where it comes from."""

    name: str
    unit: str
    doc: str


CONSTANT_DEFS: dict[str, ConstantDef] = {
    c.name: c
    for c in [
        ConstantDef(
            "train_record_cnn",
            "s / (record * epoch * param)",
            "vectorized per-record training work, CNN family (fig05 MNIST)",
        ),
        ConstantDef(
            "train_user_cnn",
            "s / (user * epoch * param)",
            "per-user fixed overhead of a vectorized CNN round "
            "(segmented reductions, clipping rows)",
        ),
        ConstantDef(
            "train_record_dense",
            "s / (record * epoch * param)",
            "per-record training work, dense/logistic family, measured "
            "through the sharded engine (worker overhead folded in)",
        ),
        ConstantDef(
            "sim_record",
            "s / (participating record * param)",
            "per-record work of a scheduler-driven simulation round "
            "(participation draws, weighting, accounting folded in)",
        ),
        ConstantDef(
            "paillier_keygen",
            "s / key_bits^3",
            "fast-backend Paillier keygen (CRT precompute dominates)",
        ),
        ConstantDef(
            "paillier_offline",
            "s / (silo * coord * key_bits^3)",
            "offline randomizer-pool generation, fast backend",
        ),
        ConstantDef(
            "paillier_encrypt_pair",
            "s / (silo * user * key_bits^3)",
            "per-round weighted encryption, fast backend: the one "
            "key-width power c_u^(f_u) per (silo, user) pair",
        ),
        ConstantDef(
            "paillier_encrypt_coord",
            "s / (silo * user * coord * key_bits^2)",
            "per-round weighted encryption, fast backend: the fixed-point-"
            "width table look-ups per (silo, user, coordinate) -- a constant "
            "number of n^2 multiplications whatever the key size",
        ),
        ConstantDef(
            "paillier_decrypt",
            "s / (coord * key_bits^3)",
            "per-round aggregate decryption (CRT), fast backend",
        ),
        ConstantDef(
            "paillier_misc_base",
            "s",
            "fast-backend setup misc: key exchange + blinded histogram "
            "+ weight encryption, flat part",
        ),
        ConstantDef(
            "paillier_misc_silo_user",
            "s / (silo * user)",
            "fast-backend setup misc, per (silo, user) pair part",
        ),
        ConstantDef(
            "masked_setup",
            "s / silo^2",
            "masked-backend setup: DH keygen + pairwise key exchange",
        ),
        ConstantDef(
            "masked_round",
            "s / (silo pair * coord)",
            "per-round pairwise mask stream generation + upload",
        ),
        ConstantDef(
            "churn_user",
            "s / (user * round)",
            "per-round churn process over the full population",
        ),
        ConstantDef(
            "population_memory",
            "bytes / user",
            "resident footprint of a memory-mapped ShardedUserPopulation",
        ),
        ConstantDef(
            "engine_shard_memory",
            "(dimensionless)",
            "multiplier on the analytic in-flight shard footprint "
            "workers * shard * (records_per_user * features + dim) * 8",
        ),
    ]
}


def C(name: str) -> sp.Symbol:
    """The sympy symbol of a registered calibration constant."""
    if name not in CONSTANT_DEFS:
        raise KeyError(
            f"unknown calibration constant {name!r}; "
            f"register it in repro.cost.model.CONSTANT_DEFS"
        )
    return sp.Symbol(f"c_{name}", positive=True)


def constant_symbols() -> dict[sp.Symbol, str]:
    """symbol -> constant name, for substitution bookkeeping."""
    return {C(name): name for name in CONSTANT_DEFS}


# -- exact wire formulas ------------------------------------------------------


def keep_count_expr(comp: CompressionSpec | None, dim=DIM) -> sp.Expr:
    """Symbolic :meth:`CompressionSpec.keep_count`: surviving coordinates."""
    if comp is None or comp.sparsify == "none":
        return dim
    # sp.Float keeps the double's 53-bit value AND 53-bit precision, so
    # frac * dim rounds exactly like the runtime's float product (an
    # exact Rational would differ where the product rounds down across
    # an integer boundary, e.g. 0.1 * 4130 -> 413.0, not 413.000..02).
    frac = sp.Float(comp.fraction)
    return sp.Max(1, sp.Min(dim, sp.ceiling(frac * dim)))


def payload_bytes_expr(comp: CompressionSpec | None, dim=DIM) -> sp.Expr:
    """Symbolic :meth:`CompressionSpec.payload_bytes`: one plaintext payload.

    ``comp=None`` (or the identity spec) is dense float64: ``8 * dim``.
    """
    if comp is None:
        return 8 * dim
    k = keep_count_expr(comp, dim)
    if comp.quantize_bits is not None:
        value_bytes = 8 + sp.ceiling(k * comp.quantize_bits / sp.Integer(8))
    else:
        value_bytes = 8 * k
    if comp.sparsify == "none":
        return value_bytes
    return comp.index_bytes * k + value_bytes


def ciphertext_bytes_expr(key_bits=KEY_BITS) -> sp.Expr:
    """Serialized Paillier ciphertext size: ``ceil(2 * key_bits / 8)``.

    (mirrors :meth:`repro.protocol.runner.SecureAggregationProtocol.\
ciphertext_bytes`; 512-bit keys -> 128 B, 3072-bit -> 768 B)
    """
    return sp.ceiling(2 * key_bits / sp.Integer(8))


def mask_bytes_expr(mask_bits=MASK_BITS) -> sp.Expr:
    """Serialized masked-backend field element size: ``mask_bits / 8``."""
    return mask_bits / sp.Integer(8)


# -- phases -------------------------------------------------------------------

_ZERO = sp.Integer(0)


@dataclass(frozen=True)
class PhaseCost:
    """One phase's five metric expressions.

    ``per`` is ``"setup"`` (paid once per run) or ``"round"`` (paid every
    federated round).  Memory expressions are *resident* footprints, not
    cumulative -- totals take their max, not their sum.
    """

    name: str
    per: str
    seconds: sp.Expr = _ZERO
    uplink_bytes: sp.Expr = _ZERO
    downlink_bytes: sp.Expr = _ZERO
    cipher_elements: sp.Expr = _ZERO
    memory_bytes: sp.Expr = _ZERO

    def __post_init__(self):
        if self.per not in ("setup", "round"):
            raise ValueError("per must be 'setup' or 'round'")


@dataclass(frozen=True)
class CostModel:
    """All phases of one spec's predicted run, still fully symbolic."""

    method: str
    backend: str | None  # crypto backend, or None for plaintext
    family: str  # "cnn" | "dense" | "sim"
    phases: tuple[PhaseCost, ...]
    #: Substitutions the builder already knows are structural (for
    #: reporting; the planner merges workload numbers on top).
    notes: tuple[str, ...] = field(default=())

    def phase(self, name: str) -> PhaseCost:
        for ph in self.phases:
            if ph.name == name:
                return ph
        raise KeyError(f"no phase named {name!r} in this model")

    def total(self, metric: str, per: str | None = None) -> sp.Expr:
        """Sum (max, for memory) of one metric over the selected phases."""
        if metric not in METRICS:
            raise KeyError(f"metric must be one of {METRICS}")
        exprs = [
            getattr(ph, metric)
            for ph in self.phases
            if per is None or ph.per == per
        ]
        exprs = [e for e in exprs if e is not _ZERO]
        if not exprs:
            return _ZERO
        if metric == "memory_bytes":
            return exprs[0] if len(exprs) == 1 else sp.Max(*exprs)
        return sp.Add(*exprs)

    def run_total(self, metric: str) -> sp.Expr:
        """Whole-run total: ``setup + ROUNDS * round`` (max for memory)."""
        if metric == "memory_bytes":
            return self.total(metric)
        return self.total(metric, "setup") + ROUNDS * self.total(metric, "round")

    def constants_used(self) -> list[str]:
        """Names of the calibration constants appearing in any phase."""
        names = constant_symbols()
        found = set()
        for ph in self.phases:
            for metric in METRICS:
                for sym in getattr(ph, metric).free_symbols:
                    if sym in names:
                        found.add(names[sym])
        return sorted(found)


# -- builders -----------------------------------------------------------------


def _train_phase(family: str, sharded: bool) -> PhaseCost:
    """Local training: per-record work scaled by the model dimension.

    The dense-family constant is measured *through* the sharded engine
    (BENCH_scaleout), so worker-pool and BinnedSum merge overhead is
    folded into it rather than carried as a separate unfittable term.
    """
    active_users = PARTICIPATION * USERS
    records = active_users * RECORDS_PER_USER
    if family == "cnn":
        seconds = DIM * EPOCHS * (
            C("train_record_cnn") * records + C("train_user_cnn") * active_users
        )
    elif family == "dense":
        seconds = DIM * EPOCHS * C("train_record_dense") * records
    elif family == "sim":
        seconds = DIM * EPOCHS * C("sim_record") * records
    else:
        raise ValueError(f"unknown model family {family!r}")
    if sharded:
        # Workers hold in-flight shards only: records + delta rows per
        # shard slot, times the live worker count.
        memory = (
            C("engine_shard_memory")
            * WORKERS
            * SHARD_SIZE
            * (RECORDS_PER_USER * FEATURES + DIM)
            * 8
        )
    else:
        # The unsharded vectorized engine materialises every user's
        # records plus the batched per-user delta matrix at once.
        memory = USERS * RECORDS_PER_USER * FEATURES * 8 + USERS * DIM * 8
    return PhaseCost("local_train", "round", seconds=seconds, memory_bytes=memory)


def _plaintext_wire_phases(comp: CompressionSpec | None) -> list[PhaseCost]:
    """Uplink + broadcast of a plaintext method, per round.

    Downlink payloads are dense unless ``comp.downlink`` is set (the
    pipeline only compresses the server broadcast on request); both
    directions are charged to every silo that received the round-start
    broadcast -- the expected count is ``PARTICIPATION * SILOS``.
    """
    up_payload = payload_bytes_expr(comp)
    down_payload = (
        payload_bytes_expr(comp) if comp is not None and comp.downlink else 8 * DIM
    )
    active = PARTICIPATION * SILOS
    return [
        PhaseCost("uplink", "round", uplink_bytes=active * up_payload),
        PhaseCost("broadcast", "round", downlink_bytes=active * down_payload),
    ]


def _secure_phases(
    crypto: CryptoSpec, comp: CompressionSpec | None
) -> list[PhaseCost]:
    """Crypto setup + per-round phases of ``secure-uldp-avg``.

    ``d_eff`` is the ciphertext count per silo: ``keep_count`` under
    rand-k (the only family the secure path admits), else the full dim.
    """
    d_eff = keep_count_expr(comp)
    if crypto.backend == "masked":
        active = PARTICIPATION * SILOS
        return [
            PhaseCost("mask_setup", "setup", seconds=C("masked_setup") * SILOS**2),
            PhaseCost(
                "mask_and_upload",
                "round",
                seconds=C("masked_round") * active * (SILOS - 1) * d_eff,
                uplink_bytes=active * d_eff * mask_bytes_expr(),
                cipher_elements=active * d_eff,
                memory_bytes=SILOS * d_eff * mask_bytes_expr(),
            ),
            PhaseCost("broadcast", "round", downlink_bytes=active * 8 * DIM),
        ]
    # Paillier (Protocol 1) requires the full roster every round.
    kb3 = KEY_BITS**3
    cipher_bytes = ciphertext_bytes_expr()
    return [
        PhaseCost("keygen", "setup", seconds=C("paillier_keygen") * kb3),
        PhaseCost(
            "offline_randomizers",
            "setup",
            seconds=C("paillier_offline") * SILOS * d_eff * kb3,
        ),
        PhaseCost(
            "setup_misc",
            "setup",
            seconds=C("paillier_misc_base")
            + C("paillier_misc_silo_user") * SILOS * USERS,
        ),
        PhaseCost(
            "silo_weighted_encryption",
            "round",
            seconds=C("paillier_encrypt_pair") * SILOS * USERS * kb3
            + C("paillier_encrypt_coord") * SILOS * USERS * d_eff * KEY_BITS**2,
            uplink_bytes=SILOS * d_eff * cipher_bytes,
            cipher_elements=SILOS * d_eff,
            memory_bytes=SILOS * d_eff * cipher_bytes,
        ),
        PhaseCost(
            "aggregate_decrypt",
            "round",
            seconds=C("paillier_decrypt") * d_eff * kb3,
        ),
        PhaseCost("broadcast", "round", downlink_bytes=SILOS * 8 * DIM),
    ]


def _network_phase(model_phases: list[PhaseCost]) -> PhaseCost:
    """Wall-clock cost of moving the round's bytes over a real link."""
    round_bytes = sp.Add(
        *(
            ph.uplink_bytes + ph.downlink_bytes
            for ph in model_phases
            if ph.per == "round"
        )
    )
    return PhaseCost(
        "network", "round", seconds=round_bytes * (1 + RETRY) / BANDWIDTH
    )


def build_cost_model(spec: RunSpec, family: str | None = None) -> CostModel:
    """Compose the per-phase symbolic cost model of one spec.

    ``family`` (``"cnn"``/``"dense"``) names the training-constant family
    and defaults to the resolved model's family
    (:func:`repro.cost.workload.resolve_family`); simulation specs always
    use the scheduler-inclusive ``"sim"`` constant.
    """
    notes: list[str] = []
    if spec.is_simulation:
        from repro.cost.workload import scenario_traits

        traits = scenario_traits(spec.sim.scenario)
        family = "sim"
        comp = traits.compression
        phases = [_train_phase("sim", sharded=False)]
        # The scenario's population lives in (possibly memory-mapped)
        # shards; its resident footprint is per-user, not per-record.
        phases[0] = replace(
            phases[0], memory_bytes=C("population_memory") * POPULATION
        )
        phases += _plaintext_wire_phases(comp)
        if traits.has_churn:
            phases.append(
                PhaseCost("churn", "round", seconds=C("churn_user") * POPULATION)
            )
        if traits.participation < 1.0:
            notes.append(
                f"scenario {spec.sim.scenario!r}: expected participation "
                f"{traits.participation:g} (iid silo availability)"
            )
        backend = None
    else:
        if family is None:
            from repro.cost.workload import resolve_family

            family = resolve_family(spec)
        sharded = spec.engine is not None and spec.engine.workers > 0
        phases = [_train_phase(family, sharded=sharded)]
        if spec.method.name == SECURE_METHOD:
            crypto = spec.crypto if spec.crypto is not None else CryptoSpec()
            backend = crypto.backend
            phases += _secure_phases(crypto, spec.compression)
        else:
            backend = None
            phases += _plaintext_wire_phases(spec.compression)
    if spec.cost is not None and spec.cost.bandwidth_mbps is not None:
        phases.append(_network_phase(phases))
    return CostModel(
        method=spec.method.name,
        backend=backend,
        family=family,
        phases=tuple(phases),
        notes=tuple(notes),
    )

"""Per-phase cost functions for any :class:`repro.api.RunSpec`.

Every phase of a run -- local training, crypto setup, encryption,
upload, broadcast -- is a plain function of the workload numbers (the
name -> number dict :func:`repro.cost.workload.numbers` builds; names in
docs/cost_model.md) giving each of five metrics (:data:`METRICS`):
wall-clock seconds, uplink bytes, downlink bytes, ciphertext/mask
elements on the wire, and resident memory.  Byte and element metrics
are **exact**: they call :meth:`repro.compress.CompressionSpec.keep_count`
and :meth:`~repro.compress.CompressionSpec.payload_bytes` themselves and
mirror the protocol layer's wire accounting (pinned by
tests/cost/test_comm_crosscheck.py); seconds and memory are linear in
named **calibration constants** (fitted from the committed
``BENCH_*.json`` by :mod:`repro.cost.calibrate`).

Every metric is a :class:`Linear` form, ``base + sum(coef[c] * c)``,
following the complexity-model approach of pia-mpc's
``scripts/complexity.py`` (SNIPPETS.md section 1): one form serves
prediction (a dot product with the calibration), calibration (the
coefficients are the design-matrix columns), and capacity planning
(re-evaluate at each user count).

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
  add a churn term and the user mask's one byte per user.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.api.spec import SECURE_METHOD, CryptoSpec, RunSpec
from repro.compress.spec import CompressionSpec

#: Metric attributes carried by every :class:`PhaseCost`.
METRICS = (
    "seconds",
    "uplink_bytes",
    "downlink_bytes",
    "cipher_elements",
    "memory_bytes",
)


# -- calibration constants ----------------------------------------------------


#: Every fitted constant: name -> "unit: what it measures".
CONSTANT_DEFS: dict[str, str] = {
    "train_record_cnn": "s / (record * epoch * param): vectorized per-record "
    "training work, CNN family (fig05 MNIST)",
    "train_user_cnn": "s / (user * epoch * param): per-user fixed overhead of a "
    "vectorized CNN round (segmented reductions, clipping rows)",
    "train_record_dense": "s / (record * epoch * param): per-record training work, "
    "dense/logistic family, measured through the sharded engine (worker "
    "overhead folded in)",
    "sim_record": "s / (participating record * param): per-record work of a "
    "scheduler-driven simulation round (participation draws, weighting, "
    "accounting folded in)",
    "paillier_keygen": "s / key_bits^3: fast-backend Paillier keygen (CRT "
    "precompute dominates)",
    "paillier_offline": "s / (silo * coord * key_bits^3): offline randomizer-pool "
    "generation, fast backend",
    "paillier_encrypt_pair": "s / (silo * user * key_bits^3): per-round weighted "
    "encryption, fast backend: the one key-width power c_u^(f_u) per (silo, "
    "user) pair",
    "paillier_encrypt_coord": "s / (silo * user * coord * key_bits^2): per-round "
    "weighted encryption, fast backend: the fixed-point-width table look-ups "
    "per (silo, user, coordinate) -- a constant number of n^2 multiplications "
    "whatever the key size",
    "paillier_decrypt": "s / (coord * key_bits^3): per-round aggregate decryption "
    "(CRT), fast backend",
    "paillier_misc_base": "s: fast-backend setup misc (key exchange + blinded "
    "histogram + weight encryption), flat part",
    "paillier_misc_silo_user": "s / (silo * user): fast-backend setup misc, per "
    "(silo, user) pair part",
    "masked_setup": "s / silo^2: masked-backend setup: DH keygen + pairwise key "
    "exchange",
    "masked_round": "s / (silo pair * coord): per-round pairwise mask stream "
    "generation + upload",
    "churn_user": "s / (user * round): per-round churn process over the full "
    "population",
    "engine_shard_memory": "dimensionless: multiplier on the analytic in-flight "
    "shard footprint workers * shard * (records_per_user * features + dim) * 8",
}


@dataclass(frozen=True)
class Linear:
    """``base + sum(coef[c] * c)``: one metric, linear in the constants."""

    base: float = 0
    coef: dict[str, float] = field(default_factory=dict)

    def value(self, constants: dict[str, float]) -> float:
        """The metric under fitted ``constants`` (name -> value)."""
        missing = sorted(set(self.coef) - set(constants))
        if missing:
            raise KeyError(f"calibration is missing constants {missing}")
        return self.base + sum(k * constants[c] for c, k in self.coef.items())


def fitted(**coef: float) -> Linear:
    """``sum(coef[c] * c)`` over registered calibration constants."""
    unknown = sorted(set(coef) - set(CONSTANT_DEFS))
    if unknown:
        raise ValueError(
            f"unknown calibration constants {unknown}; "
            f"register them in repro.cost.model.CONSTANT_DEFS"
        )
    return Linear(0, coef)


# -- exact wire formulas ------------------------------------------------------


def ciphertext_bytes(key_bits: int) -> int:
    """One Paillier ciphertext, an element of Z_{n^2}: 128 B at 512-bit keys
    (:attr:`repro.protocol.runner.PrivateWeightingProtocol.ciphertext_bytes`)."""
    return (2 * key_bits + 7) // 8


#: One masked-backend coordinate, an element of Z_{2^64}
#: (:data:`repro.crypto.secagg.MASK_BYTES`).
MASK_BYTES = 8


# -- phases -------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseCost:
    """One phase's five metrics at one workload.

    ``per`` is ``"setup"`` (paid once per run) or ``"round"`` (paid every
    federated round).  A metric given as a number is a :class:`Linear`
    with no constants.  Memory is a *resident* footprint, not cumulative
    -- totals take its max, not its sum.
    """

    name: str
    per: str
    seconds: Linear | float = 0
    uplink_bytes: Linear | float = 0
    downlink_bytes: Linear | float = 0
    cipher_elements: Linear | float = 0
    memory_bytes: Linear | float = 0

    def __post_init__(self):
        if self.per not in ("setup", "round"):
            raise ValueError("per must be 'setup' or 'round'")
        for metric in METRICS:
            value = getattr(self, metric)
            if not isinstance(value, Linear):
                object.__setattr__(self, metric, Linear(value))


@dataclass(frozen=True)
class CostModel:
    """The phase structure of one spec's run, as a function of its workload."""

    method: str
    backend: str | None  # crypto backend, or None for plaintext
    family: str  # "cnn" | "dense" | "sim"
    phases: Callable[[dict], list[PhaseCost]]  # workload numbers -> phases
    notes: tuple[str, ...] = field(default=())


# -- builders -----------------------------------------------------------------


def _train_seconds(family: str, w: dict) -> Linear:
    """Local training: per-record work scaled by the model dimension.

    The dense-family constant is measured *through* the sharded engine
    (BENCH_scaleout), so worker-pool and BinnedSum merge overhead is
    folded into it rather than carried as a separate unfittable term.
    """
    active_users = w["participation"] * w["users"]
    records = active_users * w["records_per_user"]
    work = w["dim"] * w["epochs"]
    if family == "cnn":
        return fitted(
            train_record_cnn=work * records, train_user_cnn=work * active_users
        )
    if family == "dense":
        return fitted(train_record_dense=work * records)
    if family == "sim":
        return fitted(sim_record=work * records)
    raise ValueError(f"unknown model family {family!r}")


def _train_memory(sharded: bool, w: dict) -> Linear | float:
    """Resident bytes of local training."""
    row_bytes = w["records_per_user"] * w["features"]
    if sharded:
        # Workers hold in-flight shards only: records + delta rows per
        # shard slot, times the live worker count.
        return fitted(
            engine_shard_memory=w["workers"] * w["shard_size"] * (row_bytes + w["dim"]) * 8
        )
    # The unsharded vectorized engine materialises every user's
    # records plus the batched per-user delta matrix at once.
    return w["users"] * row_bytes * 8 + w["users"] * w["dim"] * 8


def _uplink_phase(
    comp: CompressionSpec | None, w: dict,
    uplink_bytes: Callable[[CompressionSpec | None, int], int],
) -> PhaseCost:
    """A plaintext method's uplink, per round: one silo's
    ``uplink_bytes(comp, dim)`` (:meth:`repro.core.FLMethod.uplink_bytes`:
    the dense release -- float32 for the ULDP-AVG family, float64
    otherwise -- or its lossy compressed form) from every silo that
    received the round-start broadcast -- the expected count is
    ``participation * silos``."""
    dim, silos, p = w["dim"], w["silos"], w["participation"]
    up = uplink_bytes(comp, dim)
    return PhaseCost("uplink", "round", uplink_bytes=p * (silos * up))


def _broadcast_phase(
    comp: CompressionSpec | None, w: dict, broadcast_bytes: Callable[[int], int]
) -> PhaseCost:
    """The server's broadcast, per round, to every silo that received it
    (``participation * silos`` expected): the method's dense broadcast,
    ``broadcast_bytes(dim)`` (:meth:`repro.core.FLMethod.broadcast_bytes`,
    the size of the array the runtime hands out), or the compressed update
    when ``comp.downlink`` is set (the pipeline only compresses the
    broadcast on request)."""
    dim, silos, p = w["dim"], w["silos"], w["participation"]
    if comp is not None and comp.downlink:
        down = comp.payload_bytes(dim)
    else:
        down = broadcast_bytes(dim)
    return PhaseCost("broadcast", "round", downlink_bytes=p * (silos * down))


def _secure_phases(
    crypto: CryptoSpec, comp: CompressionSpec | None, w: dict
) -> list[PhaseCost]:
    """Crypto setup + per-round phases of ``secure-uldp-avg`` (its
    broadcast is :func:`_broadcast_phase`, as for every method).

    ``d_eff`` is the ciphertext count per silo: ``keep_count`` under
    rand-k (the only family the secure path admits), else the full dim.
    """
    dim, silos, users = w["dim"], w["silos"], w["users"]
    d_eff = dim if comp is None else comp.keep_count(dim)
    if crypto.backend == "masked":
        p = w["participation"]
        return [
            PhaseCost("mask_setup", "setup", seconds=fitted(masked_setup=silos**2)),
            PhaseCost(
                "mask_and_upload",
                "round",
                seconds=fitted(masked_round=p * silos * (silos - 1) * d_eff),
                uplink_bytes=p * (silos * d_eff * MASK_BYTES),
                cipher_elements=p * (silos * d_eff),
                memory_bytes=silos * d_eff * MASK_BYTES,
            ),
        ]
    # Paillier (Protocol 1) requires the full roster every round.
    kb = w["key_bits"]
    cipher = ciphertext_bytes(kb)
    return [
        PhaseCost("keygen", "setup", seconds=fitted(paillier_keygen=kb**3)),
        PhaseCost(
            "offline_randomizers",
            "round",
            seconds=fitted(paillier_offline=silos * d_eff * kb**3),
        ),
        PhaseCost(
            "setup_misc",
            "setup",
            seconds=fitted(paillier_misc_base=1, paillier_misc_silo_user=silos * users),
        ),
        PhaseCost(
            "silo_weighted_encryption",
            "round",
            seconds=fitted(
                paillier_encrypt_pair=silos * users * kb**3,
                paillier_encrypt_coord=silos * users * d_eff * kb**2,
            ),
            uplink_bytes=silos * d_eff * cipher,
            cipher_elements=silos * d_eff,
            memory_bytes=silos * d_eff * cipher,
        ),
        PhaseCost(
            "aggregate_decrypt",
            "round",
            seconds=fitted(paillier_decrypt=d_eff * kb**3),
        ),
    ]


def _network_phase(phases: list[PhaseCost], w: dict) -> PhaseCost:
    """Wall-clock cost of moving the round's bytes over a real link."""
    round_bytes = sum(
        ph.uplink_bytes.base + ph.downlink_bytes.base
        for ph in phases
        if ph.per == "round"
    )
    return PhaseCost(
        "network", "round", seconds=round_bytes * (1 + w["retry"]) / w["bandwidth"]
    )


def build_cost_model(spec: RunSpec, family: str | None = None) -> CostModel:
    """Compose the per-phase cost model of one spec.

    ``family`` (``"cnn"``/``"dense"``) names the training-constant family
    and defaults to the resolved model's family
    (:func:`repro.cost.workload.resolve_family`); simulation specs always
    use the scheduler-inclusive ``"sim"`` constant.
    """
    notes: list[str] = []
    comp, crypto, churn = spec.compression, None, False
    if spec.is_simulation:
        from repro.cost.workload import scenario_traits

        traits = scenario_traits(spec)
        family, comp, churn = "sim", traits.compression, traits.has_churn
        if traits.participation < 1.0:
            notes.append(
                f"scenario {spec.sim.scenario!r}: expected participation "
                f"{traits.participation:g} (iid silo availability)"
            )
    else:
        if family is None:
            from repro.cost.workload import resolve_family

            family = resolve_family(spec)
        if spec.method.name == SECURE_METHOD:
            crypto = spec.crypto if spec.crypto is not None else CryptoSpec()
    from repro.api.runner import build_method

    method = build_method(spec)
    sharded = (
        not spec.is_simulation and spec.engine is not None and spec.engine.workers > 0
    )
    network = spec.cost is not None and spec.cost.bandwidth_mbps is not None

    def phases(w: dict) -> list[PhaseCost]:
        # A simulator holds one activity flag (np.bool_) per user.
        memory = w["population"] if spec.is_simulation else _train_memory(sharded, w)
        out = [PhaseCost("local_train", "round", _train_seconds(family, w), memory_bytes=memory)]
        if crypto is not None:
            out += _secure_phases(crypto, comp, w)
        else:
            out.append(_uplink_phase(comp, w, method.uplink_bytes))
        out.append(_broadcast_phase(comp, w, method.broadcast_bytes))
        if churn:
            out.append(PhaseCost("churn", "round", seconds=fitted(churn_user=w["population"])))
        if network:
            out.append(_network_phase(out, w))
        return out

    return CostModel(
        method=spec.method.name,
        backend=None if crypto is None else crypto.backend,
        family=family,
        phases=phases,
        notes=tuple(notes),
    )

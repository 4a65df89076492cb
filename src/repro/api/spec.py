"""The declarative :class:`RunSpec` tree: one validated config per run.

A :class:`RunSpec` captures everything that defines one training or
simulation run -- dataset, model, method, privacy, compression, crypto,
simulation scenario -- as a typed, validated, serialisable tree:

- it is read from a dict, JSON or TOML and written as a dict or JSON;
  round-trips are exact (``spec == from_dict(to_dict)``),
- every validation error names the offending dotted path
  (``method: sigma must be non-negative``),
- :func:`spec_hash` is a canonical content hash stamped into every
  :class:`repro.core.trainer.TrainingHistory` and simulation checkpoint,
  making results self-describing and letting ``--resume`` refuse a
  mismatched spec,
- ``spec.sweep`` holds grid axes (``{"method.sigma": [0.5, 1.0, 2.0]}``)
  that :func:`repro.api.sweep.expand_sweep` expands into child specs.

Two modes share the tree:

- **train** (``sim`` absent): ``dataset``/``model``/``method`` describe a
  plain :class:`repro.core.Trainer` run.
- **simulate** (``sim`` present): the named scenario owns the dataset and
  participation dynamics; only the ``method`` section may be customised
  (its sim-mode default is the scenario family's canonical
  ``uldp-avg-w`` with one local epoch).
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.registries import suggest
from repro.compress.spec import CompressionSpec

SCALES = ("smoke", "small", "paper")
DISTRIBUTIONS = ("uniform", "zipf")
#: Array backends the sharded engine's fold can run on (mirrors
#: :data:`repro.nn.backend.BACKENDS`; kept literal so the spec layer
#: stays import-light -- pinned equal by tests/nn/test_backend.py).
ARRAY_BACKENDS = ("numpy",)
GROUP_ROUTES = ("rdp", "dp")
#: Secure-aggregation schemes of ``secure-uldp-avg`` (mirrors
#: :data:`repro.protocol.secure_method.CRYPTO_BACKENDS`; literal for the
#: same reason, pinned equal by tests/api/test_spec.py).
CRYPTO_BACKENDS = ("fast", "masked")

#: Method name whose factory consumes the ``crypto`` section.
SECURE_METHOD = "secure-uldp-avg"


class SpecError(ValueError):
    """Invalid spec content; the message names the offending dotted path."""


# -- leaf sections ------------------------------------------------------------


@dataclass(frozen=True)
class DatasetSpec:
    """Which benchmark federation to build, and at what size.

    ``seed = None`` inherits the run seed.  The fixed-silo benchmarks
    (``heartdisease``, ``tcgabrca``) ignore ``silos``/``records`` -- their
    silo layout is part of the benchmark definition.
    """

    name: str = "creditcard"
    users: int = 100
    silos: int = 5
    records: int = 4000
    test_records: int | None = None
    distribution: str = "zipf"
    non_iid: bool = False
    seed: int | None = None

    def __post_init__(self):
        if self.users < 1:
            raise SpecError("users must be at least 1")
        if self.silos < 1:
            raise SpecError("silos must be at least 1")
        if self.records < 1:
            raise SpecError("records must be at least 1")
        if self.test_records is not None and self.test_records < 1:
            raise SpecError("test_records must be at least 1")
        if self.distribution not in DISTRIBUTIONS:
            raise SpecError(f"distribution must be one of {DISTRIBUTIONS}")


@dataclass(frozen=True)
class ModelSpec:
    """Which model to train; ``"auto"`` selects the paper's per-benchmark
    default (:func:`repro.nn.model.default_model_for`)."""

    name: str = "auto"

    def __post_init__(self):
        if not self.name:
            raise SpecError("name must be a non-empty model name or 'auto'")


@dataclass(frozen=True)
class MethodSpec:
    """Which FL method to run and its hyper-parameters.

    Only the fields a method consumes are honoured by its registry
    factory; e.g. ``group_size`` matters to ``uldp-group`` alone, and
    ``batch_size`` maps to ULDP-GROUP's ``expected_batch_size``.
    ``sample_rate = 1.0`` is normalised to "no sub-sampling" (q = 1 with
    no per-round Poisson draw).
    """

    name: str = "uldp-avg-w"
    sigma: float = 5.0
    clip: float = 1.0
    local_epochs: int = 2
    local_lr: float = 0.05
    global_lr: float | None = None
    batch_size: int | None = None
    group_size: int | str = 8
    group_route: str = "rdp"
    sample_rate: float | None = None

    def __post_init__(self):
        if not self.name:
            raise SpecError("name must be a non-empty method name")
        if self.sigma < 0:
            raise SpecError("sigma must be non-negative")
        if self.clip <= 0:
            raise SpecError("clip must be positive")
        if self.local_epochs < 1:
            raise SpecError("local_epochs must be at least 1")
        if self.local_lr <= 0:
            raise SpecError("local_lr must be positive")
        if self.global_lr is not None and self.global_lr <= 0:
            raise SpecError("global_lr must be positive (or omitted)")
        if self.batch_size is not None and self.batch_size < 1:
            raise SpecError("batch_size must be at least 1")
        if isinstance(self.group_size, bool) or (
            isinstance(self.group_size, int) and self.group_size < 1
        ):
            raise SpecError("group_size must be a positive int or a policy name")
        if self.group_route not in GROUP_ROUTES:
            raise SpecError(f"group_route must be one of {GROUP_ROUTES}")
        if self.sample_rate is not None and not 0 < self.sample_rate <= 1:
            raise SpecError("sample_rate must lie in (0, 1]")


@dataclass(frozen=True)
class PrivacySpec:
    """Accounting parameters shared by every private method."""

    delta: float = 1e-5

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise SpecError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class CryptoSpec:
    """Secure-aggregation wiring, consumed by the ``secure-uldp-avg`` method.

    ``backend="masked"`` selects pairwise-mask secure aggregation of each
    silo's release in the fixed ring Z_{2^64}, 8 B a coordinate
    (``paillier_bits``/``n_max``/``workers`` unused); ``"fast"`` runs
    Protocol 1 over Paillier.
    """

    backend: str = "fast"
    paillier_bits: int = 512
    n_max: int = 64
    workers: int | None = None
    #: Masked-backend survivor quorum: abort (QuorumError) any round whose
    #: surviving-silo count falls below this instead of aggregating.
    min_survivors: int = 1

    def __post_init__(self):
        if self.backend not in CRYPTO_BACKENDS:
            raise SpecError(f"backend must be one of {CRYPTO_BACKENDS}")
        if self.min_survivors < 1:
            raise SpecError("min_survivors must be at least 1")
        if self.paillier_bits < 128:
            raise SpecError("paillier_bits must be at least 128")
        if self.n_max < 1:
            raise SpecError("n_max must be at least 1")
        if self.workers is not None and self.workers < 1:
            raise SpecError("workers must be at least 1 (or omitted)")


@dataclass(frozen=True)
class SimSpec:
    """Which named federation scenario to run, and how to checkpoint it."""

    scenario: str = "ideal-sync"
    scale: str = "small"
    checkpoint_dir: str | None = None
    checkpoint_every: int | None = None

    def __post_init__(self):
        if not self.scenario:
            raise SpecError("scenario must be a non-empty scenario name")
        if self.scale not in SCALES:
            raise SpecError(f"scale must be one of {SCALES}")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise SpecError("checkpoint_every must be at least 1 (or omitted)")


@dataclass(frozen=True)
class NetSpec:
    """Networked-federation runtime wiring (``repro serve`` / ``repro silo``).

    Only meaningful alongside a ``[sim]`` section: the server process runs
    the scenario's :class:`repro.sim.FederationSimulator` and farms each
    round's per-silo training out to silo processes over TCP
    (:mod:`repro.net`).  Timeouts are wall-clock seconds and name the
    phase they bound: ``join_timeout`` (roster registration and silo-side
    connects), ``ping_timeout`` (per-round liveness heartbeats),
    ``round_timeout`` (one silo's compute+upload), ``idle_timeout`` (a
    silo waiting for its next instruction).  ``min_quorum`` aborts the run
    (:class:`repro.core.weighting.QuorumError`) when fewer live silos
    answer a round's heartbeat.  ``faults`` is a deterministic
    fault-injection plan (:class:`repro.net.faults.FaultPlan` tree) that
    silo processes apply to themselves -- the chaos-test harness.
    """

    host: str = "127.0.0.1"
    #: TCP port; 0 = OS-assigned (``repro serve`` prints the bound port).
    port: int = 0
    join_timeout: float = 30.0
    round_timeout: float = 60.0
    ping_timeout: float = 5.0
    idle_timeout: float = 600.0
    #: Silo-side connect/reconnect retries with exponential backoff.
    connect_retries: int = 8
    backoff_base: float = 0.1
    backoff_max: float = 2.0
    backoff_jitter: float = 0.5
    min_quorum: int = 1
    faults: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.host:
            raise SpecError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise SpecError("port must lie in [0, 65535]")
        for name in ("join_timeout", "round_timeout", "ping_timeout", "idle_timeout"):
            if getattr(self, name) <= 0:
                raise SpecError(f"{name} must be positive")
        if self.connect_retries < 0:
            raise SpecError("connect_retries must be non-negative")
        if self.backoff_base <= 0:
            raise SpecError("backoff_base must be positive")
        if self.backoff_max < self.backoff_base:
            raise SpecError("backoff_max must be at least backoff_base")
        if not 0 <= self.backoff_jitter <= 1:
            raise SpecError("backoff_jitter must lie in [0, 1]")
        if self.min_quorum < 1:
            raise SpecError("min_quorum must be at least 1")
        if not isinstance(self.faults, dict):
            raise SpecError("faults must be a table (a FaultPlan tree)")
        from repro.net.faults import FaultPlan

        try:
            FaultPlan.from_tree(self.faults)
        except ValueError as exc:
            raise SpecError(f"faults: {exc}") from exc


@dataclass(frozen=True)
class ObsSpec:
    """Observability wiring: tracing spans and the live metrics endpoint.

    Deliberately **excluded from the canonical spec hash** -- turning
    telemetry on or off never changes a run's identity, so traced runs
    resume untraced checkpoints (and vice versa) and networked
    server/silo pairs may disagree about ``[obs]`` without failing the
    spec-hash handshake.  With ``enabled = False`` (the default) the
    whole subsystem is a no-op and runs are bit-identical to builds
    without it.

    ``trace_path = None`` places ``trace.jsonl`` next to checkpoints
    (``sim.checkpoint_dir``) when there are any, else in the working
    directory.  ``sample_rate`` keeps only a deterministic subset of
    round spans (see :mod:`repro.obs.trace`).  ``metrics_port`` serves
    the trace's fold as ``GET /metrics`` (Prometheus text) on a side
    port; 0 = OS-assigned.
    """

    enabled: bool = False
    trace_path: str | None = None
    sample_rate: float = 1.0
    metrics_port: int | None = None

    def __post_init__(self):
        if not isinstance(self.enabled, bool):
            raise SpecError("enabled must be a boolean")
        if not 0 < self.sample_rate <= 1:
            raise SpecError("sample_rate must lie in (0, 1]")
        if self.metrics_port is not None and not 0 <= self.metrics_port <= 65535:
            raise SpecError("metrics_port must lie in [0, 65535] (or omitted)")


@dataclass(frozen=True)
class EngineSpec:
    """Sharded execution layout of the vectorized round hot path.

    A pure performance/memory knob with one documented exception:
    ``workers`` and ``shard_size`` never change results (the shard plan
    is independent of the worker count, shards align to the engine's
    numerical micro-batches, and partials combine through an exact
    binned reduction -- see docs/scaleout.md).  ``workers = 0`` (the
    default) computes shards in-process; ``workers >= 1`` runs them on a
    persistent process pool.  ``backend`` names the fold's array backend;
    ``"numpy"`` is the only one.
    """

    workers: int = 0
    shard_size: int = 4096
    backend: str = "numpy"

    def __post_init__(self):
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise SpecError("workers must be an integer")
        if self.workers < 0:
            raise SpecError("workers must be >= 0 (0 = in-process)")
        if not isinstance(self.shard_size, int) or isinstance(self.shard_size, bool):
            raise SpecError("shard_size must be an integer")
        if self.shard_size < 1:
            raise SpecError("shard_size must be >= 1")
        if self.backend not in ARRAY_BACKENDS:
            raise SpecError(f"backend must be one of {ARRAY_BACKENDS}")


@dataclass(frozen=True)
class CostSpec:
    """Capacity-planning inputs for the closed-form cost model (``repro cost``).

    Like ``[obs]``, this section is **excluded from the canonical spec
    hash**: asking "what would this run cost?" or attaching budgets never
    changes what the run computes, so it must not change the run's
    identity (checkpoints resume across ``[cost]`` edits).

    Budgets are consumed by ``repro cost --solve-for users`` and by
    ``repro sweep`` pruning; ``bandwidth_mbps``/``retry_overhead`` add a
    network-transfer term to the predicted wall clock (megabits/second
    and expected retransmission fraction); ``calibration`` overrides the
    committed ``calibration.json`` path.
    """

    budget_seconds: float | None = None
    budget_uplink_bytes: float | None = None
    budget_memory_bytes: float | None = None
    bandwidth_mbps: float | None = None
    retry_overhead: float = 0.0
    calibration: str | None = None

    def __post_init__(self):
        for name in ("budget_seconds", "budget_uplink_bytes", "budget_memory_bytes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise SpecError(f"{name} must be positive (or omitted)")
        if self.bandwidth_mbps is not None and self.bandwidth_mbps <= 0:
            raise SpecError("bandwidth_mbps must be positive (or omitted)")
        if self.retry_overhead < 0:
            raise SpecError("retry_overhead must be non-negative")
        if self.calibration is not None and not self.calibration:
            raise SpecError("calibration must be a non-empty path (or omitted)")


# -- the root -----------------------------------------------------------------

#: Section name -> dataclass of the subtree.
_SECTIONS: dict[str, type] = {
    "dataset": DatasetSpec,
    "model": ModelSpec,
    "method": MethodSpec,
    "privacy": PrivacySpec,
    "compression": CompressionSpec,
    "sim": SimSpec,
    "crypto": CryptoSpec,
    "net": NetSpec,
    "obs": ObsSpec,
    "engine": EngineSpec,
    "cost": CostSpec,
}

#: Scalar keys living directly on the root.
_ROOT_SCALARS = ("name", "seed", "rounds", "eval_every")


@dataclass(frozen=True)
class RunSpec:
    """One complete, validated run configuration (see module docstring).

    ``rounds = None`` means "the mode's default": 5 for a plain training
    run, the scenario scale's round count for a simulation.
    """

    name: str = "run"
    seed: int = 0
    rounds: int | None = None
    eval_every: int = 1
    dataset: DatasetSpec | None = None
    model: ModelSpec = field(default_factory=ModelSpec)
    method: MethodSpec | None = None
    privacy: PrivacySpec = field(default_factory=PrivacySpec)
    compression: CompressionSpec | None = None
    sim: SimSpec | None = None
    crypto: CryptoSpec | None = None
    net: NetSpec | None = None
    obs: ObsSpec | None = None
    engine: EngineSpec | None = None
    cost: CostSpec | None = None
    #: Sweep axes: dotted config path -> list of values (one grid).
    sweep: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.name:
            raise SpecError("name must be non-empty")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SpecError("seed must be an integer")
        if self.rounds is not None and (
            not isinstance(self.rounds, int) or self.rounds < 1
        ):
            raise SpecError("rounds must be an integer >= 1 (or omitted)")
        if not isinstance(self.eval_every, int) or self.eval_every < 1:
            raise SpecError("eval_every must be an integer >= 1")
        if self.sim is not None:
            if self.dataset is not None:
                raise SpecError(
                    "dataset: not allowed alongside [sim] -- the scenario "
                    "owns the dataset (see docs/api.md)"
                )
            if self.model.name != "auto":
                raise SpecError("model: must stay 'auto' alongside [sim]")
            if self.compression is not None:
                raise SpecError(
                    "compression: not allowed alongside [sim] -- scenario "
                    "recipes bundle their own compression"
                )
            if self.method is None:
                # The scenario family's canonical method: ULDP-AVG-w,
                # sigma 5, one local epoch.
                object.__setattr__(self, "method", MethodSpec(local_epochs=1))
        else:
            if self.dataset is None:
                object.__setattr__(self, "dataset", DatasetSpec())
            if self.method is None:
                object.__setattr__(self, "method", MethodSpec())
        if self.net is not None and self.sim is None:
            raise SpecError(
                "net: only meaningful alongside [sim] -- repro serve "
                "drives a named scenario (see docs/networking.md)"
            )
        if self.engine is not None and self.sim is not None:
            raise SpecError(
                "engine: not allowed alongside [sim] -- scenario recipes "
                "drive their own trainers; sharded execution applies to "
                "plain training runs (see docs/scaleout.md)"
            )
        if self.crypto is not None and self.method.name != SECURE_METHOD:
            raise SpecError(
                f"crypto: only consumed by method.name={SECURE_METHOD!r} "
                f"(got method.name={self.method.name!r})"
            )
        if self.sim is not None and self.method.name == SECURE_METHOD:
            backend = (self.crypto or CryptoSpec()).backend
            if backend != "masked":
                raise SpecError(
                    f"crypto.backend: {backend!r} (Paillier, Protocol 1) "
                    "needs the full silo roster every round and cannot run "
                    "under [sim], whose scheduler decides participation per "
                    "round; set crypto.backend = \"masked\""
                )
            if self.net is not None:
                raise SpecError(
                    f"net: method.name={SECURE_METHOD!r} runs in-process "
                    "only -- over [net] every silo would have to hand the "
                    "server its users' clipped deltas in the clear for the "
                    "server to mask, which is the leak secure aggregation "
                    "exists to prevent; silo-side masking is not implemented "
                    "(drop [net], or use method.name = \"uldp-avg-w\")"
                )
        for path, values in self.sweep.items():
            validate_path(path, sweep_axis=True)
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise SpecError(f"sweep.{path}: axis must be a non-empty list")
        # Plain lists, each value as the field it assigns would hold it
        # (``"method.sigma" = [1]`` is 1.0): one grid, one label, one hash.
        sweep = {
            p: [_canonical_axis_value(p, v) for v in values]
            for p, values in self.sweep.items()
        }
        object.__setattr__(self, "sweep", sweep)

    # -- serialisation --------------------------------------------------------

    @property
    def is_simulation(self) -> bool:
        """Whether this spec runs a named scenario (vs a plain trainer)."""
        return self.sim is not None

    def to_dict(self) -> dict:
        """The fully-resolved plain-dict tree (defaults materialised).

        ``None``-valued optional sections are omitted; inside sections,
        ``None`` fields are kept (JSON ``null``; a TOML file, which has no
        null, omits them) -- both read back identically because every
        optional field defaults to ``None``.
        """
        data: dict = {
            "name": self.name,
            "seed": self.seed,
            "eval_every": self.eval_every,
        }
        if self.rounds is not None:
            data["rounds"] = self.rounds
        if self.dataset is not None:
            data["dataset"] = dataclasses.asdict(self.dataset)
        data["model"] = dataclasses.asdict(self.model)
        data["method"] = dataclasses.asdict(self.method)
        data["privacy"] = dataclasses.asdict(self.privacy)
        if self.compression is not None:
            data["compression"] = dataclasses.asdict(self.compression)
        if self.sim is not None:
            data["sim"] = dataclasses.asdict(self.sim)
        if self.crypto is not None:
            data["crypto"] = dataclasses.asdict(self.crypto)
        if self.net is not None:
            data["net"] = dataclasses.asdict(self.net)
        if self.obs is not None:
            data["obs"] = dataclasses.asdict(self.obs)
        if self.engine is not None:
            data["engine"] = dataclasses.asdict(self.engine)
        if self.cost is not None:
            data["cost"] = dataclasses.asdict(self.cost)
        if self.sweep:
            data["sweep"] = {p: list(v) for p, v in self.sweep.items()}
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Build and validate a spec from a plain dict tree.

        Unknown keys and invalid values raise :class:`SpecError` naming
        the offending dotted path.
        """
        if not isinstance(data, dict):
            raise SpecError(f"spec root must be a table, got {type(data).__name__}")
        data = dict(data)
        kwargs: dict = {}
        root_fields = {f.name: f for f in dataclasses.fields(cls)}
        for key in _ROOT_SCALARS:
            if key in data:
                kwargs[key] = _coerce(
                    data.pop(key), str(root_fields[key].type), key
                )
        for section, section_cls in _SECTIONS.items():
            if section in data:
                payload = data.pop(section)
                if not isinstance(payload, dict):
                    raise SpecError(
                        f"{section}: must be a table, got {type(payload).__name__}"
                    )
                kwargs[section] = _build_section(section_cls, payload, section)
        if "sweep" in data:
            sweep = data.pop("sweep")
            if not isinstance(sweep, dict):
                raise SpecError("sweep: must be a table of axis -> value list")
            kwargs["sweep"] = sweep
        if data:
            unknown = sorted(data)[0]
            hint = suggest(unknown, [*_ROOT_SCALARS, *_SECTIONS, "sweep"])
            raise SpecError(f"{unknown}: unknown config key{hint}")
        try:
            return cls(**kwargs)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "RunSpec":
        """Load a ``.toml`` or ``.json`` spec file."""
        return cls.from_dict(load_spec_tree(path))

    # -- identity -------------------------------------------------------------

    def canonical_json(self) -> str:
        """The canonical (sorted, compact) JSON the spec hash is taken over.

        The ``obs`` and ``cost`` sections are excluded: observability and
        cost budgets never change what a run computes, so they must not
        change the run's identity (see :class:`ObsSpec` /
        :class:`CostSpec`).
        """
        data = self.to_dict()
        data.pop("obs", None)
        data.pop("cost", None)
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def hash(self) -> str:
        """Canonical content hash (first 16 hex chars of SHA-256).

        Invariant under the ``obs`` section -- see :meth:`canonical_json`.
        """
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    # -- derived specs --------------------------------------------------------

    def with_overrides(self, assignments: dict) -> "RunSpec":
        """A new spec with dotted-path assignments applied (re-validated)."""
        return RunSpec.from_dict(apply_overrides(self.to_dict(), assignments))


def spec_hash(spec: RunSpec) -> str:
    """Module-level alias for :meth:`RunSpec.hash`."""
    return spec.hash()


# -- section building ---------------------------------------------------------


def _coerce(value, annotation: str, path: str):
    """Light type coercion for values arriving from TOML/JSON.

    Integers are promoted where a float is expected (TOML ``sigma = 5``)
    and integral floats demoted where an int is expected (JSON
    ``rounds = 5.0``); a *fractional* float into an int-typed field is an
    error naming the path -- the downstream code would otherwise run with
    a round count or user count the spec never declared.  Booleans are
    not treated as integers.
    """
    if isinstance(value, bool):
        if "bool" not in annotation:
            raise SpecError(f"{path}: expected a number, got a boolean")
        return value
    wants_float = "float" in annotation
    wants_int = "int" in annotation
    if isinstance(value, int) and wants_float and not wants_int:
        return float(value)
    if isinstance(value, float) and wants_int and not wants_float:
        if value.is_integer():
            return int(value)
        raise SpecError(f"{path}: expected an integer, got {value!r}")
    return value


def _canonical_axis_value(path: str, value):
    """One value of the (validated) sweep axis ``path``, coerced as
    :meth:`RunSpec.from_dict` would coerce it once assigned."""
    section, _, name = path.partition(".")
    owner = RunSpec if section in _ROOT_SCALARS else _SECTIONS[section]
    types = {f.name: str(f.type) for f in dataclasses.fields(owner)}
    if owner is RunSpec or name:
        return _coerce(value, types[name or section], f"sweep.{path}")
    if not isinstance(value, dict):
        raise SpecError(
            f"sweep.{path}: whole-section axis values must be "
            f"tables, got {type(value).__name__}"
        )
    return {  # unknown keys are left for _build_section to name
        key: _coerce(v, types[key], f"sweep.{path}.{key}") if key in types else v
        for key, v in value.items()
    }


def _build_section(section_cls: type, payload: dict, path: str):
    """Construct one sub-spec dataclass with path-prefixed errors."""
    fields = {f.name: f for f in dataclasses.fields(section_cls)}
    kwargs = {}
    for key, value in payload.items():
        if key not in fields:
            raise SpecError(
                f"{path}.{key}: unknown key{suggest(key, list(fields))} "
                f"(valid: {', '.join(sorted(fields))})"
            )
        kwargs[key] = _coerce(value, str(fields[key].type), f"{path}.{key}")
    try:
        return section_cls(**kwargs)
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{path}: {exc}") from exc


# -- dotted-path overrides ----------------------------------------------------


def _valid_paths() -> list[str]:
    """Every assignable dotted path (for error suggestions)."""
    paths = list(_ROOT_SCALARS)
    for section, section_cls in _SECTIONS.items():
        paths.append(section)
        paths.extend(f"{section}.{f.name}" for f in dataclasses.fields(section_cls))
    return paths


def validate_path(path: str, sweep_axis: bool = False) -> None:
    """Check a dotted override path addresses a real spec field.

    Accepted shapes: a root scalar (``rounds``), a ``section.field`` pair
    (``method.sigma``), or -- for sweep axes -- a bare section name
    (``method``) whose values are whole-section tables.
    """
    parts = path.split(".")
    kind = "sweep axis" if sweep_axis else "config path"
    if parts[0] == "sweep":
        raise SpecError(f"{path}: cannot nest sweep under {kind}")
    if len(parts) == 1:
        if parts[0] in _ROOT_SCALARS:
            return
        if parts[0] in _SECTIONS:
            if sweep_axis:
                return  # axis of whole-section tables (e.g. method grids)
            raise SpecError(
                f"{path}: a section cannot be assigned directly; "
                f"set one of its fields (e.g. {parts[0]}."
                f"{dataclasses.fields(_SECTIONS[parts[0]])[0].name})"
            )
    elif len(parts) == 2 and parts[0] in _SECTIONS:
        fields = {f.name for f in dataclasses.fields(_SECTIONS[parts[0]])}
        if parts[1] in fields:
            return
    raise SpecError(f"{path}: unknown {kind}{suggest(path, _valid_paths())}")


def apply_overrides(tree: dict, assignments: dict) -> dict:
    """Apply dotted-path assignments to a plain spec tree (returns a copy).

    Paths are validated against the schema; assigning into an absent
    optional section (``sim.scenario`` on a train spec) creates it.
    Assigning ``sweep.<path>`` sets a sweep axis (value must be a list).
    """
    out = copy.deepcopy(tree)
    for path, value in assignments.items():
        parts = path.split(".")
        if parts[0] == "sweep" and len(parts) > 1:
            axis = ".".join(parts[1:])
            validate_path(axis, sweep_axis=True)
            if not isinstance(value, (list, tuple)):
                raise SpecError(f"{path}: a sweep axis needs a list of values")
            out.setdefault("sweep", {})[axis] = list(value)
            continue
        validate_path(path)
        target = out
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise SpecError(f"{path}: {part} is not a table")
        target[parts[-1]] = value
    return out


def parse_assignment(text: str) -> tuple[str, object]:
    """Parse one ``--set path=value`` argument.

    The value is read as JSON when possible (numbers, booleans, lists,
    ``null``, quoted strings) and as a bare string otherwise, so
    ``--set method.sigma=1.5`` and ``--set method.name=uldp-avg-w`` both
    do the obvious thing.
    """
    path, eq, raw = text.partition("=")
    path = path.strip()
    if not eq or not path:
        raise SpecError(f"--set expects path=value, got {text!r}")
    raw = raw.strip()
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return path, value


# -- files --------------------------------------------------------------------


def load_spec_tree(path: str | Path) -> dict:
    """Read a spec file into a plain dict tree (TOML or JSON by suffix).

    An unreadable or unparsable file is a :class:`SpecError` naming it.
    """
    path = Path(path)
    loads = {".json": json.loads, ".toml": tomllib.loads}.get(path.suffix.lower())
    if loads is None:
        raise SpecError(f"{path}: unsupported spec file type (use .toml or .json)")
    try:
        data = loads(path.read_text())
    except OSError as exc:
        raise SpecError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSON / TOML / unicode decode errors
        raise SpecError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecError(f"{path}: spec file must contain a table at the root")
    return data


# -- sweep expansion ----------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One expanded grid point: a child spec plus its axis assignments."""

    label: str
    assignments: dict
    spec: RunSpec


def _axis_label(path: str, value) -> str:
    if isinstance(value, dict):
        return f"{path}={value.get('name', '<table>')}"
    return f"{path}={value}"


def expand_sweep(spec: RunSpec) -> list[SweepPoint]:
    """Expand ``spec.sweep`` axes into the full grid of child specs.

    Each child drops the ``sweep`` table, applies one combination of axis
    values, and gets ``name`` suffixed with the grid point's assignments
    -- so every child's :func:`spec_hash` is distinct and self-describing.
    A spec without axes expands to itself (one point, empty label).
    """
    if not spec.sweep:
        return [SweepPoint("", {}, spec)]
    base = spec.to_dict()
    base.pop("sweep", None)
    axes = list(spec.sweep.items())
    points = []
    for combo in itertools.product(*(values for _, values in axes)):
        assignments = {path: value for (path, _), value in zip(axes, combo)}
        label = ", ".join(_axis_label(p, v) for p, v in assignments.items())
        tree = copy.deepcopy(base)
        for path, value in assignments.items():
            if path in _SECTIONS:  # whole-section table axis
                tree[path] = copy.deepcopy(value)
            else:
                tree = apply_overrides(tree, {path: value})
        tree["name"] = f"{spec.name}[{label}]"
        points.append(SweepPoint(label, assignments, RunSpec.from_dict(tree)))
    return points

"""Resolve a :class:`repro.api.RunSpec` into concrete workload numbers.

The symbolic layer (:mod:`repro.cost.model`) never touches datasets or
models; this module turns a spec into the substitution dict the planner
feeds it -- model dimension (by *building* the registered model against
the benchmark's known input shape, so the count is exact, not guessed),
records per user, crypto parameters, engine layout, and -- for
simulation specs -- the scenario's scale tier, expected participation,
and bundled compression recipe.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.api.spec import SECURE_METHOD, CryptoSpec, RunSpec
from repro.compress.spec import CompressionSpec
from repro.cost import model as M


class CostError(ValueError):
    """The cost model cannot resolve or answer something for this spec."""


#: Input shape of each builtin benchmark federation's ``test_x`` -- what
#: the registered model factories consume -- plus its ``model="auto"``
#: resolution (mirrors :func:`repro.nn.model.default_model_for`).
#: The fixed-silo benchmarks (heartdisease, tcgabrca) have a fixed
#: layout; for them the spec's declared ``records`` is an approximation.
DATASET_TRAITS: dict[str, dict] = {
    "creditcard": {"test_shape": (1, 30), "auto_model": "creditcard-mlp"},
    "mnist": {"test_shape": (1, 1, 14, 14), "auto_model": "mnist-cnn"},
    "heartdisease": {"test_shape": (1, 13), "auto_model": "logistic"},
    "tcgabrca": {"test_shape": (1, 39), "auto_model": "cox-linear"},
}

#: Model families with separately calibrated training constants.  Any
#: registered model not listed here falls back to ``dense`` (per-record
#: linear-algebra work is the dominant shape for every MLP-like model).
CNN_MODELS = ("mnist-cnn",)


def _dataset_name(spec: RunSpec) -> str:
    # Scenario recipes always build the creditcard benchmark
    # (repro.sim.scenarios.build_scenario).
    return "creditcard" if spec.is_simulation else spec.dataset.name


def dataset_traits(spec: RunSpec) -> dict:
    name = _dataset_name(spec)
    if name not in DATASET_TRAITS:
        raise CostError(
            f"dataset.name={name!r}: the cost model only knows the builtin "
            f"benchmarks ({', '.join(sorted(DATASET_TRAITS))}); for a custom "
            f"dataset there is no input shape to size the model from"
        )
    return DATASET_TRAITS[name]


def resolve_model_name(spec: RunSpec) -> str:
    if spec.is_simulation or spec.model.name == "auto":
        return dataset_traits(spec)["auto_model"]
    return spec.model.name


def resolve_features(spec: RunSpec) -> int:
    """Per-record feature count (images count every pixel)."""
    shape = dataset_traits(spec)["test_shape"]
    return int(np.prod(shape[1:]))


def resolve_dim(spec: RunSpec) -> int:
    """Exact flat parameter count: build the registered model once.

    Factories only read ``fed.test_x`` (the input shape), so a stub
    federation with a zero tensor of the benchmark's shape suffices --
    no dataset is generated.
    """
    from repro.api import builtin as _builtin  # noqa: F401  (registry population)
    from repro.api.registries import MODELS

    name = resolve_model_name(spec)
    try:
        factory = MODELS.get(name)
    except KeyError as exc:
        raise CostError(str(exc)) from exc
    stub = SimpleNamespace(test_x=np.zeros(dataset_traits(spec)["test_shape"]))
    try:
        model = factory(np.random.default_rng(0), stub)
    except AttributeError as exc:
        raise CostError(
            f"model {name!r}: its factory needs more than an input shape "
            f"({exc}); the cost model cannot size it analytically"
        ) from exc
    return int(model.get_flat_params().size)


def resolve_family(spec: RunSpec) -> str:
    """Training-constant family of the resolved model."""
    return "cnn" if resolve_model_name(spec) in CNN_MODELS else "dense"


# -- scenario introspection ---------------------------------------------------


@dataclass(frozen=True)
class ScenarioTraits:
    """What a named scenario recipe implies for the cost model."""

    participation: float
    has_churn: bool
    has_bandwidth: bool
    compression: CompressionSpec | None


def scenario_traits(name: str, rounds: int = 8, n_silos: int = 3) -> ScenarioTraits:
    """Build the scenario recipe once and read its cost-relevant knobs.

    Expected participation is exact for iid dropout (``1 - prob``) and
    approximated as 1.0 for windowed outages, deadline misses, and
    byte-cap exclusions -- those depend on draws the closed form cannot
    see (docs/cost_model.md states the approximation).
    """
    from repro.api import builtin as _builtin  # noqa: F401  (registry population)
    from repro.api.registries import SCENARIOS
    from repro.sim.participation import IidSiloDropout

    try:
        factory = SCENARIOS.get(name)
    except KeyError as exc:
        raise CostError(str(exc)) from exc
    recipe = factory(rounds=rounds, n_silos=n_silos)
    dropout = recipe.get("dropout")
    participation = (
        1.0 - dropout.prob if isinstance(dropout, IidSiloDropout) else 1.0
    )
    return ScenarioTraits(
        participation=participation,
        has_churn=recipe.get("churn") is not None,
        has_bandwidth=recipe.get("bandwidth") is not None,
        compression=recipe.get("compression"),
    )


# -- the substitution dict ----------------------------------------------------

#: Mode-default round counts (mirrors RunSpec: 5 for a plain training
#: run; simulations take the scenario scale's count).
TRAIN_DEFAULT_ROUNDS = 5


def resolve_rounds(spec: RunSpec) -> int:
    if spec.rounds is not None:
        return spec.rounds
    if spec.is_simulation:
        from repro.sim.scenarios import _scale_params

        return _scale_params(spec.sim.scale)["rounds"]
    return TRAIN_DEFAULT_ROUNDS


def substitutions(spec: RunSpec) -> dict:
    """symbol -> number for every workload symbol this spec pins down."""
    subs: dict = {}
    if spec.is_simulation:
        from repro.sim.scenarios import _scale_params

        params = _scale_params(spec.sim.scale)
        users, silos = params["n_users"], params["n_silos"]
        records = params["n_records"]
        traits = scenario_traits(
            spec.sim.scenario, rounds=resolve_rounds(spec), n_silos=silos
        )
        participation = traits.participation
    else:
        users, silos = spec.dataset.users, spec.dataset.silos
        records = spec.dataset.records
        participation = 1.0
    subs[M.USERS] = users
    subs[M.SILOS] = silos
    subs[M.DIM] = resolve_dim(spec)
    subs[M.RECORDS_PER_USER] = records / users
    subs[M.EPOCHS] = spec.method.local_epochs
    subs[M.FEATURES] = resolve_features(spec)
    subs[M.ROUNDS] = resolve_rounds(spec)
    subs[M.POPULATION] = users
    subs[M.PARTICIPATION] = participation
    crypto = spec.crypto
    if crypto is None and spec.method.name == SECURE_METHOD:
        crypto = CryptoSpec()
    if crypto is not None:
        subs[M.KEY_BITS] = crypto.paillier_bits
        subs[M.MASK_BITS] = crypto.mask_bits
    if spec.engine is not None and spec.engine.workers > 0:
        from repro.core.engine import EngineConfig

        cfg = EngineConfig(
            workers=spec.engine.workers, shard_size=spec.engine.shard_size
        )
        subs[M.WORKERS] = spec.engine.workers
        subs[M.SHARD_SIZE] = cfg.aligned_shard_size
    if spec.cost is not None and spec.cost.bandwidth_mbps is not None:
        subs[M.BANDWIDTH] = spec.cost.bandwidth_mbps * 1e6 / 8  # bytes/s
        subs[M.RETRY] = spec.cost.retry_overhead
    return subs

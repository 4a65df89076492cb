"""Resolve a :class:`repro.api.RunSpec` into concrete workload numbers.

The cost functions (:mod:`repro.cost.model`) never touch datasets or
models; this module turns a spec into the name -> number dict the
planner evaluates them at -- model dimension (by *building* the
registered model against the benchmark's known input shape, so the
count is exact, not guessed), records per user, crypto parameters,
engine layout, and -- for simulation specs -- the scenario's scale
tier, expected participation, and bundled compression recipe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from repro.api.spec import SECURE_METHOD, CryptoSpec, RunSpec
from repro.compress.spec import CompressionSpec


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
    # (repro.sim.scenarios.bind_scenario).
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

    sizes: dict  # the scale tier's workload sizes, rounds resolved
    participation: float
    has_churn: bool
    compression: CompressionSpec | None


def scenario_traits(spec: RunSpec) -> ScenarioTraits:
    """Read a simulation spec's scenario recipe for its cost-relevant knobs.

    The recipe comes from :func:`repro.sim.scenarios.scenario_recipe`, the
    lookup spec validation uses (importing it registers the builtins).
    Expected participation is exact for iid dropout (``1 - prob``) and
    approximated as 1.0 for windowed outages, deadline misses, and
    byte-cap exclusions -- those depend on draws the closed form cannot
    see (docs/cost_model.md states the approximation).
    """
    from repro.sim.participation import IidSiloDropout
    from repro.sim.scenarios import scenario_recipe

    try:
        sizes, recipe = scenario_recipe(spec.sim.scenario, spec.sim.scale, spec.rounds)
    except KeyError as exc:
        raise CostError(str(exc)) from exc
    dropout = recipe.get("dropout")
    return ScenarioTraits(
        sizes=sizes,
        participation=1.0 - dropout.prob if isinstance(dropout, IidSiloDropout) else 1.0,
        has_churn=recipe.get("churn") is not None,
        compression=recipe.get("compression"),
    )


# -- the workload numbers -----------------------------------------------------

#: Mode-default round count of a plain training run (mirrors RunSpec).
TRAIN_DEFAULT_ROUNDS = 5


def numbers(spec: RunSpec) -> dict:
    """name -> number for every workload number this spec pins down
    (the names are docs/cost_model.md's glossary)."""
    if spec.is_simulation:
        traits = scenario_traits(spec)
        sizes = traits.sizes
        users, silos, records = sizes["n_users"], sizes["n_silos"], sizes["n_records"]
        rounds, participation = sizes["rounds"], traits.participation
    else:
        users, silos = spec.dataset.users, spec.dataset.silos
        records = spec.dataset.records
        rounds = spec.rounds if spec.rounds is not None else TRAIN_DEFAULT_ROUNDS
        participation = 1
    w = {
        "users": users,
        "silos": silos,
        "dim": resolve_dim(spec),
        "records_per_user": records / users,
        "epochs": spec.method.local_epochs,
        "features": resolve_features(spec),
        "rounds": rounds,
        "population": users,
        # Exact, so expected byte counts round once, when reported.
        "participation": Fraction(participation),
    }
    crypto = spec.crypto
    if crypto is None and spec.method.name == SECURE_METHOD:
        crypto = CryptoSpec()
    if crypto is not None:
        w["key_bits"] = crypto.paillier_bits
    if spec.engine is not None and spec.engine.workers > 0:
        from repro.core.engine import EngineConfig

        cfg = EngineConfig(
            workers=spec.engine.workers, shard_size=spec.engine.shard_size
        )
        w["workers"] = spec.engine.workers
        w["shard_size"] = cfg.aligned_shard_size
    if spec.cost is not None and spec.cost.bandwidth_mbps is not None:
        w["bandwidth"] = spec.cost.bandwidth_mbps * 1e6 / 8  # bytes/s
        w["retry"] = spec.cost.retry_overhead
    return w

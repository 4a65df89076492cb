"""Named registries: the extension seams behind the declarative API.

Every pluggable family -- FL methods, benchmark datasets, model builders,
simulation scenarios, sparsifiers, experiments -- is a :class:`Registry`
of named factories populated through decorators::

    from repro.api import register_method

    @register_method("my-method", description="my custom optimiser")
    def _build_my_method(spec, crypto=None):
        return MyMethod(noise_multiplier=spec.sigma)

Third-party code registers at import time and ``repro run --set
method.name=my-method`` picks the entry up without touching core.  Lookups
of unknown names raise :class:`UnknownNameError` listing the valid names
plus a nearest-match suggestion (instead of a bare ``KeyError`` or an
argparse choice dump).

This module deliberately imports nothing from the rest of :mod:`repro`, so
low-level packages (``repro.compress``, ``repro.sim``) can register their
builtins here without import cycles.  The builtin method/dataset/model
entries live in :mod:`repro.api.builtin`.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Callable


def suggest(name: str, valid: list[str]) -> str:
    """A `` -- did you mean 'x'?`` hint for the closest valid name.

    The one shared spelling-suggestion helper: registries, spec-path
    validation, and :class:`repro.compress.CompressionSpec` all route
    through it so cutoff and wording stay consistent.  Empty string when
    nothing is close.
    """
    close = difflib.get_close_matches(name, valid, n=1, cutoff=0.4)
    return f" -- did you mean {close[0]!r}?" if close else ""


class UnknownNameError(KeyError):
    """Lookup of a name absent from a registry.

    Subclasses ``KeyError`` for backward compatibility with callers that
    caught the old dict lookups, but carries a human-readable message
    listing the registry's valid names and the closest match.
    """

    def __init__(self, kind: str, name: str, valid: list[str]):
        self.kind = kind
        self.name = name
        self.valid = list(valid)
        message = (
            f"unknown {kind} {name!r}{suggest(name, self.valid)} "
            f"(valid: {', '.join(valid) if valid else '<none registered>'})"
        )
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:  # KeyError would quote the whole message
        return self.message


@dataclass(frozen=True)
class RegistryEntry:
    """One named factory plus its metadata."""

    name: str
    factory: Callable[..., Any]
    description: str = ""
    #: Free-form metadata (e.g. a sparsifier's data-independence flag).
    meta: dict = field(default_factory=dict)


class Registry:
    """An ordered name -> factory mapping with decorator registration."""

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: dict[str, RegistryEntry] = {}

    def register(
        self, name: str, *, description: str = "", **meta
    ) -> Callable[[Callable], Callable]:
        """Decorator registering ``name``; re-registration is an error."""

        def decorator(factory: Callable) -> Callable:
            if name in self._entries:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered "
                    f"(by {self._entries[name].factory!r})"
                )
            self._entries[name] = RegistryEntry(name, factory, description, meta)
            return factory

        return decorator

    def entry(self, name: str) -> RegistryEntry:
        """The full entry for ``name``; raises :class:`UnknownNameError`."""
        if name not in self._entries:
            raise UnknownNameError(self.kind, name, self.names())
        return self._entries[name]

    def get(self, name: str) -> Callable:
        """The factory registered under ``name``."""
        return self.entry(name).factory

    def describe(self, name: str) -> str:
        """The one-line description registered with ``name``."""
        return self.entry(name).description

    def names(self) -> list[str]:
        """All registered names, sorted."""
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)


#: FL methods: ``factory(method_spec, crypto_spec=None) -> FLMethod``.
METHODS = Registry("method")
#: Benchmark federations: ``factory(dataset_spec, seed) -> FederatedDataset``.
DATASETS = Registry("dataset")
#: Model builders: ``factory(rng, fed) -> Sequential`` ("auto" is implicit).
MODELS = Registry("model")
#: Simulation scenarios: entries are :class:`repro.sim.scenarios.Scenario`
#: config factories registered by :mod:`repro.sim.scenarios`.
SCENARIOS = Registry("scenario")
#: Sparsifier families: ``factory(vec, k, rng) -> indices`` (see
#: :mod:`repro.compress.sparsify`); ``meta["data_independent"]`` marks
#: supports the secure protocol could share.
SPARSIFIERS = Registry("sparsifier")
#: Per-experiment *code*: ``factory(scale, seed) -> ExperimentResult`` for
#: the analytic experiments and the row shapers; an experiment that is only
#: a spec file (``examples/specs/<name>.toml``) needs no entry here.
EXPERIMENTS = Registry("experiment")


def register_method(name: str, *, description: str = "", **meta):
    """Register an FL method factory ``(MethodSpec, CryptoSpec|None) -> FLMethod``."""
    return METHODS.register(name, description=description, **meta)


def register_dataset(name: str, *, description: str = "", **meta):
    """Register a dataset factory ``(DatasetSpec, seed) -> FederatedDataset``."""
    return DATASETS.register(name, description=description, **meta)


def register_model(name: str, *, description: str = "", **meta):
    """Register a model builder ``(rng, fed) -> Sequential``."""
    return MODELS.register(name, description=description, **meta)


def register_scenario(name: str, *, description: str = "", **meta):
    """Register a simulation scenario config factory ``(rounds, n_silos) -> dict``."""
    return SCENARIOS.register(name, description=description, **meta)


def register_sparsifier(name: str, *, description: str = "", **meta):
    """Register a sparsifier ``(vec, k, rng) -> indices`` (k selected coords)."""
    return SPARSIFIERS.register(name, description=description, **meta)


def register_experiment(name: str, *, description: str = "", **meta):
    """Register experiment code ``(scale, seed) -> ExperimentResult`` (an
    analytic table, or a row shaper over the same-named spec file)."""
    return EXPERIMENTS.register(name, description=description, **meta)

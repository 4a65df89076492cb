"""The declarative run API: one validated config tree, one entrypoint.

- :class:`RunSpec` (+ ``DatasetSpec``/``ModelSpec``/``MethodSpec``/
  ``PrivacySpec``/``SimSpec``/``CryptoSpec``, reusing
  :class:`repro.compress.CompressionSpec`) -- a typed, serialisable spec
  tree read from TOML/JSON/dict, written as JSON/dict (exact round-trips),
  with a canonical content hash.
- :func:`run` -- execute one spec (training or simulation), returning a
  :class:`RunResult` whose history is stamped with the spec + hash.
- :func:`run_sweep` / :func:`expand_sweep` -- grid sweeps over axis lists.
- :mod:`repro.api.registries` -- decorator-based named registries
  (``@register_method`` and friends) that third-party code extends
  without touching core.

Names resolve lazily (PEP 562) so that low-level packages can import
``repro.api.registries`` without dragging in the full stack.

Usage::

    from repro.api import RunSpec, run

    spec = RunSpec.from_file("exp.toml")
    result = run(spec)
    print(result.table())
"""

from __future__ import annotations

from repro import _lazy_namespace

# name -> defining submodule, resolved on first attribute access.
_LAZY_EXPORTS = {
    "CompressionSpec": "repro.compress.spec",
    "CostSpec": "repro.api.spec",
    "CryptoSpec": "repro.api.spec",
    "DatasetSpec": "repro.api.spec",
    "MethodSpec": "repro.api.spec",
    "ModelSpec": "repro.api.spec",
    "ObsSpec": "repro.api.spec",
    "PrivacySpec": "repro.api.spec",
    "RunSpec": "repro.api.spec",
    "SimSpec": "repro.api.spec",
    "SpecError": "repro.api.spec",
    "SweepPoint": "repro.api.spec",
    "apply_overrides": "repro.api.spec",
    "expand_sweep": "repro.api.spec",
    "load_spec_tree": "repro.api.spec",
    "parse_assignment": "repro.api.spec",
    "spec_hash": "repro.api.spec",
    "validate_path": "repro.api.spec",
    "RunResult": "repro.api.runner",
    "build_dataset": "repro.api.runner",
    "build_method": "repro.api.runner",
    "build_simulator": "repro.api.runner",
    "build_trainer": "repro.api.runner",
    "checkpoint_extra": "repro.api.runner",
    "obs_session": "repro.api.runner",
    "run": "repro.api.runner",
    "verify_checkpoint_spec": "repro.api.runner",
    "SweepResult": "repro.api.sweep",
    "run_sweep": "repro.api.sweep",
    "Registry": "repro.api.registries",
    "UnknownNameError": "repro.api.registries",
    "register_dataset": "repro.api.registries",
    "register_experiment": "repro.api.registries",
    "register_method": "repro.api.registries",
    "register_model": "repro.api.registries",
    "register_scenario": "repro.api.registries",
    "register_sparsifier": "repro.api.registries",
}

__all__ = sorted(_LAZY_EXPORTS)
__getattr__, __dir__ = _lazy_namespace(__name__, _LAZY_EXPORTS)

"""Reproduction of Uldp-FL (VLDB 2024): cross-silo user-level DP federated learning.

Subpackages
-----------
- :mod:`repro.accounting` -- RDP/DP privacy accounting (Opacus-equivalent).
- :mod:`repro.crypto` -- Paillier, DH, secure aggregation, blinding.
- :mod:`repro.nn` -- numpy neural-network substrate with manual backprop.
- :mod:`repro.data` -- synthetic datasets and user/silo record allocation.
- :mod:`repro.core` -- the FL framework: ULDP-NAIVE/GROUP/AVG/SGD + FedAVG.
- :mod:`repro.compress` -- post-noise update compression (sparsify,
  quantize, error feedback) + wire-byte accounting.
- :mod:`repro.protocol` -- Protocol 1, the private weighting protocol.
- :mod:`repro.api` -- the declarative surface: :class:`RunSpec` config
  trees, :func:`run`, grid sweeps, and the extension registries.

Quickstart (the declarative API; see ``docs/api.md``)::

    import repro

    spec = repro.RunSpec.from_dict({
        "rounds": 5,
        "dataset": {"name": "creditcard", "users": 100, "silos": 5},
        "method": {"name": "uldp-avg-w", "sigma": 5.0},
    })
    result = repro.run(spec)
    print(result.table())

or, the imperative building blocks it resolves to::

    from repro import build_creditcard_benchmark, Trainer, UldpAvg

    fed = build_creditcard_benchmark(n_users=100, n_silos=5, seed=0)
    method = UldpAvg(clip=1.0, noise_multiplier=5.0, local_epochs=2)
    trainer = Trainer(fed, method, rounds=5, seed=0)
    history = trainer.run()
    print(history.summary())

Top-level names are resolved lazily (PEP 562) so that importing one
subpackage does not pull in the whole library.
"""

__version__ = "1.0.0"

import importlib
import sys


def _lazy_namespace(package: str, exports: dict[str, str]):
    """PEP 562 ``(__getattr__, __dir__)`` for ``package``: each public name
    in ``exports`` is imported from its defining module on first access
    and then cached, so importing one submodule never imports its
    siblings."""

    def __getattr__(name):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__


# name -> defining module, resolved on first attribute access.
_LAZY_EXPORTS = {
    "RunSpec": "repro.api.spec",
    "RunResult": "repro.api.runner",
    "run": "repro.api.runner",
    "run_sweep": "repro.api.sweep",
    "register_dataset": "repro.api.registries",
    "register_method": "repro.api.registries",
    "register_model": "repro.api.registries",
    "register_scenario": "repro.api.registries",
    "register_sparsifier": "repro.api.registries",
    "PrivacyAccountant": "repro.accounting.accountant",
    "CompressionSpec": "repro.compress.spec",
    "UpdateCompressor": "repro.compress.pipeline",
    "Default": "repro.core.methods.fedavg",
    "Trainer": "repro.core.trainer",
    "TrainingHistory": "repro.core.trainer",
    "UldpAvg": "repro.core.methods.uldp_avg",
    "UldpGroup": "repro.core.methods.uldp_group",
    "UldpNaive": "repro.core.methods.uldp_naive",
    "UldpSgd": "repro.core.methods.uldp_sgd",
    "FederatedDataset": "repro.data.federated",
    "build_creditcard_benchmark": "repro.data",
    "build_heartdisease_benchmark": "repro.data",
    "build_mnist_benchmark": "repro.data",
    "build_tcgabrca_benchmark": "repro.data",
    "PrivateWeightingProtocol": "repro.protocol.runner",
    "SecureUldpAvg": "repro.protocol.secure_method",
    "calibrate_noise_multiplier": "repro.accounting.calibration",
    "calibrate_sample_rate": "repro.accounting.calibration",
    "run_experiment": "repro.experiments.registry",
}

__all__ = ["__version__", *sorted(_LAZY_EXPORTS)]

__getattr__, __dir__ = _lazy_namespace(__name__, _LAZY_EXPORTS)

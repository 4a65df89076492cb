"""Experiments: the paper's figures as committed spec files.

A training-based experiment is a spec file you read and edit,
``examples/specs/<name>.toml``; this package loads it, resizes it to a
scale tier and a seed (:func:`spec_for_experiment`), runs its sweep and
returns structured results (:func:`run_experiment`, or ``python -m repro
figure <name>``).  Only what a file cannot say is code here: the row
shapers of ``fig09`` / ``fig10`` / ``sim01`` and the analytic ``fig02`` /
``fig11`` / ``fig12``.  ``tests/test_paper_claims.py`` asserts the findings.
"""

from repro.experiments.registry import (
    ExperimentResult,
    available_experiments,
    describe_experiment,
    run_experiment,
    run_experiment_multi_seed,
    spec_for_experiment,
)

__all__ = [
    "ExperimentResult",
    "available_experiments",
    "describe_experiment",
    "run_experiment",
    "run_experiment_multi_seed",
    "spec_for_experiment",
]

"""Satellite determinism suite: worker count never changes the run.

The headline guarantee of the sharded execution layer: the same RunSpec
trained with ``[engine]`` workers=0 / 1 / 4 and different shard sizes
produces a byte-identical TrainingHistory -- round metrics, epsilon,
the comm ledger, participation, and the final model parameters.

The comparison deliberately covers the *semantic* history (and raw
param bytes), not ``spec``/``spec_hash``: the ``[engine]`` section is
part of a run's identity hash by design (it names the execution plan),
so two configs legitimately hash differently while training the same
model.
"""

import numpy as np
import pytest

from repro.api.runner import build_trainer
from repro.api.spec import RunSpec

BASE = {
    "seed": 3,
    "rounds": 3,
    "dataset": {
        "name": "creditcard",
        "users": 12,
        "silos": 3,
        "records": 300,
        "test_records": 60,
        "distribution": "zipf",
    },
    "privacy": {},
}

ENGINE_GRID = [
    None,
    {"workers": 0, "shard_size": 1},
    {"workers": 1, "shard_size": 128},
    {"workers": 4, "shard_size": 256},
    {"workers": 2, "shard_size": 4096},
]


def _fingerprint(tree: dict) -> tuple:
    trainer = build_trainer(RunSpec.from_dict(tree))
    history = trainer.run()
    return (
        tuple((r.round, r.metric, r.loss, r.epsilon) for r in history.records),
        tuple((c.round, c.uplink_bytes, c.downlink_bytes) for c in history.comm),
        tuple((p.round, p.silos_seen, p.users_seen) for p in history.participation),
        trainer.model.get_flat_params().tobytes(),
    )


@pytest.mark.parametrize(
    "method",
    [
        {"name": "uldp-avg"},
        {"name": "uldp-avg-w"},
        {"name": "uldp-sgd"},
        {"name": "uldp-avg", "local_epochs": 2},
    ],
    ids=["avg", "avg-w", "sgd", "avg-2ep"],
)
def test_history_invariant_under_engine_config(method):
    trees = []
    for engine in ENGINE_GRID:
        tree = {**BASE, "name": "determinism", "method": method}
        if engine is not None:
            tree = {**tree, "engine": engine}
        trees.append(tree)
    reference = _fingerprint(trees[0])
    for tree in trees[1:]:
        assert _fingerprint(tree) == reference, (
            f"engine={tree.get('engine')} diverged from the unsharded run"
        )


def test_compressed_history_invariant_under_engine_config():
    # Compression consumes each silo's payload one by one (per-silo error
    # feedback), so the per-silo assembly must stay on the same fold.
    method = {"name": "uldp-avg"}
    compression = {"sparsify": "topk", "fraction": 0.25, "seed": 3}
    ref = _fingerprint(
        {**BASE, "name": "determinism-c", "method": method, "compression": compression}
    )
    for engine in ({"workers": 2, "shard_size": 128}, {"workers": 0, "shard_size": 1}):
        got = _fingerprint(
            {
                **BASE,
                "name": "determinism-c",
                "method": method,
                "compression": compression,
                "engine": engine,
            }
        )
        assert got == ref


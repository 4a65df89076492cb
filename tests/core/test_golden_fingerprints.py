"""Golden fingerprints of ULDP-AVG's row paths, fixed before they were merged.

The sha256 of the final parameters and the final epsilon of four short
runs, recorded at commit 7bcf520 -- the last one where ``uldp_avg.py``
wrote the per-silo step (users -> job schedules -> noise -> batched
clipped deltas) out separately for the in-process round, the networked
segment and the buffered-async payload.  One run per path: the streamed
shard fold, the same fold behind a 2-worker pool with a compressed
uplink, the row-materialising path under masked secure aggregation with
silo dropout, and the per-silo async payload.  They pin the single
per-silo helper to the old bodies bit for bit, where the loop oracle
(``oracle_loop.py``) only pins it to 1e-10.

The ``paillier`` entry was recorded one PR later, at commit 116e346 -- the
last one with ``crypto_backend="reference"`` in ``src/`` and a ``fast`` /
``reference`` branch in every Protocol 1 party -- and pins the single
Paillier implementation to the old ``fast`` arm (256-bit keys, 2 rounds,
a logistic model to keep the ciphertext count small).

To re-record after a change that is *meant* to move the numbers, print
``_fingerprint(TREES[name])`` for each name and say why in CHANGES.md.
"""

import hashlib

import pytest

from repro.api.runner import build_simulator, build_trainer
from repro.api.spec import RunSpec

DATASET = {
    "name": "creditcard",
    "users": 12,
    "silos": 3,
    "records": 300,
    "test_records": 60,
    "distribution": "zipf",
}
TRAIN = {"seed": 3, "rounds": 3, "dataset": DATASET, "privacy": {}}

TREES = {
    "plaintext": {**TRAIN, "method": {"name": "uldp-avg-w", "local_epochs": 1}},
    "compressed-sharded": {
        **TRAIN,
        "method": {"name": "uldp-avg-w", "local_epochs": 1},
        "compression": {
            "sparsify": "topk", "fraction": 0.25, "quantize_bits": 8,
            "error_feedback": True, "seed": 3,
        },
        "engine": {"workers": 2, "shard_size": 128},
    },
    "masked-dropout": {
        "seed": 9,
        "sim": {"scenario": "flaky-silos", "scale": "smoke"},
        "method": {"name": "secure-uldp-avg", "local_epochs": 1, "sigma": 1.0},
        "crypto": {"backend": "masked"},
    },
    "async-fedbuff": {
        "seed": 3,
        "sim": {"scenario": "async-fedbuff", "scale": "smoke"},
    },
    "paillier": {
        **TRAIN,
        "rounds": 2,
        "model": {"name": "logistic"},
        "method": {"name": "secure-uldp-avg", "local_epochs": 1},
        "crypto": {"backend": "fast", "paillier_bits": 256},
    },
}

GOLDEN = {
    "plaintext": (
        "d75c64de970ffb48af31439bfa6c76954e7074c78b6dbf6f0ceec7c72ceb3fdf",
        1.445621967952188,
    ),
    "compressed-sharded": (
        "0b58b70a47be22650beadc2a7febcc5d6f830e247264b1e1ffd40fddc6d53338",
        1.445621967952188,
    ),
    "masked-dropout": (
        "df97aeb8055771a725e9a07312d8aa129f43951ec195ff236f31b0d892c49096",
        8.885566134749796,
    ),
    "async-fedbuff": (
        "b38ae10f6f6565a9767e1fe354ab8cfeedd6991658f8e6825ad1560a5f32cff9",
        1.7667547726667157,
    ),
    "paillier": (
        "9e4857c5da7be2670b3df5106b9e33f382e31c639289daccc57675fa04ef1ff1",
        1.1581505950444586,
    ),
}


def _fingerprint(tree: dict) -> tuple[str, float]:
    spec = RunSpec.from_dict({"name": "golden", **tree})
    if spec.is_simulation:
        sim = build_simulator(spec)
        history, params = sim.run(), sim.trainer.params
    else:
        trainer = build_trainer(spec)
        history, params = trainer.run(), trainer.params
    return hashlib.sha256(params.tobytes()).hexdigest(), history.final.epsilon


@pytest.mark.parametrize("name", sorted(TREES))
def test_fingerprint_unchanged(name):
    assert _fingerprint(TREES[name]) == GOLDEN[name]

"""Golden fingerprints of ULDP-AVG's round paths, fixed before they were merged.

The sha256 of the final parameters and the final epsilon of four short
runs, recorded at commit 7bcf520 -- the last one where ``uldp_avg.py``
wrote the per-silo step (users -> job schedules -> noise -> batched
clipped deltas) out separately for the in-process round, the networked
segment and the buffered-async payload.  One run per path: the streamed
shard fold, the same fold behind a 2-worker pool with a compressed
uplink, the per-user-row path under masked secure aggregation with
silo dropout, and the per-silo async payload.  They pin the single
per-silo helper to the old bodies bit for bit, where the loop oracle
(``oracle_loop.py``) only pins it to 1e-10.

The ``paillier`` entry was recorded one PR later, at commit 116e346 -- the
last one with ``crypto_backend="reference"`` in ``src/`` and a ``fast`` /
``reference`` branch in every Protocol 1 party -- and pins the single
Paillier implementation to the old ``fast`` arm (256-bit keys, 2 rounds,
a logistic model to keep the ciphertext count small).

The ``plaintext`` entry was re-recorded once, on purpose, on top of commit
3f40160: the uncompressed round stopped summing ``sum(noises) + <one
binned fold over every silo's rows>.total()`` and became what the
compressed round always was -- ``0 + payload_0 + payload_1 + ...`` with
``payload_s = noise_s + <silo s's binned fold>.total()``, the one vector a
silo is allowed to release (Algorithm 3 line 17).  Same addends, one more
rounding per silo: max |delta param| = 2.2e-15 after the 3 rounds, epsilon
bit-equal; ``test_rebaseline_is_only_reassociation`` below pins the new sum
to the old formula at ``rtol=1e-13`` so the re-baseline cannot hide more
than reassociation.  The other four values are byte-for-byte the originals.

To re-record after a change that is *meant* to move the numbers, print
``_fingerprint(TREES[name])`` for each name and say why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from repro.api.runner import build_simulator, build_trainer
from repro.api.spec import RunSpec
from repro.core import UldpAvg
from repro.core.engine import fold_weighted_rows
from repro.core.reduce import BinnedSum
from repro.core.weighting import RoundParticipation
from repro.data import build_creditcard_benchmark
from repro.nn.model import build_tiny_mlp

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
        "1d9d6f6a39600ba2764d2966ca73dacbc60bf79ece7dd80875c5b693df40ef58",
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


class ParentFormulaUldpAvg(UldpAvg):
    """The uncompressed round aggregate exactly as commit 3f40160 summed
    it: every active silo's noise added up, plus *one* binned fold over all
    silos' rows, rounded once."""

    def _round_aggregate(self, params, round_weights):
        noise_std = self._noise_std()
        acc = BinnedSum(params.size, self.shard_engine.scale(self.clip))
        noises, users_seen = [], set()
        for s in self._active_silos():
            users, rows, noise = self.silo_round_segment(
                s, params, round_weights[s], noise_std)
            fold_weighted_rows(
                acc, round_weights[s, users], rows, self.shard_engine.backend)
            noises.append(noise)
            users_seen.update(users)
        aggregate = np.sum(noises, axis=0) + acc.total()
        return aggregate, users_seen, len(noises) * params.size * 8


@pytest.mark.parametrize(
    "kwargs, participation",
    [
        pytest.param({}, None, id="full"),
        pytest.param(
            {}, RoundParticipation(silo_mask=np.array([True, False, True])),
            id="dropout",
        ),
        pytest.param({"user_sample_rate": 0.5}, None, id="subsampled"),
    ],
)
def test_rebaseline_is_only_reassociation(kwargs, participation):
    """One round from one RNG state: the per-silo-payload sum and the
    parent's formula add the same numbers in a different order, so they
    agree to a few ulps of the largest addend -- and on everything that is
    not floating-point (RNG consumption, bytes, users, epsilon) exactly."""
    fed = build_creditcard_benchmark(
        n_users=12, n_silos=3, n_records=300, n_test=60, seed=3,
        distribution="zipf",
    )
    aggregates, traces = [], []
    for cls in (UldpAvg, ParentFormulaUldpAvg):
        method = cls(weighting="proportional", local_epochs=2, batch_size=8,
                     **kwargs)
        model = build_tiny_mlp(30, 8, 2, np.random.default_rng(1))
        method.prepare(fed, model, np.random.default_rng(7))
        hook = method._round_aggregate

        def spy(params, round_weights, hook=hook):
            result = hook(params, round_weights)
            aggregates.append(result[0])
            return result

        method._round_aggregate = spy
        method.round(0, model.get_flat_params(), participation)
        traces.append((method.rng.bit_generator.state, method.last_comm,
                       method.last_participation, method.epsilon(1e-5)))
    new, old = aggregates
    assert np.abs(old).max() > 0
    np.testing.assert_allclose(
        new, old, rtol=1e-13, atol=1e-13 * np.abs(old).max())
    assert traces[0] == traces[1]

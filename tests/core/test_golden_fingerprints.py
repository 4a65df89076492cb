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

The five ``uldp-sgd*`` entries (``SGD_TREES``) were recorded at commit
13d840d, the last one where ``uldp_sgd.py`` was a hand copy of
``UldpAvg.round`` that summed ``0 + reduce(<every silo's shard
partials>).total() + z_0 + z_1 + ...``, and their params sha256 was
re-recorded once, on purpose, when ``UldpSgd`` became a one-kernel
subclass of ``UldpAvg`` and took its sum (``0 + payload_0 + payload_1 +
...``): max |delta param| over the five runs 2.2e-15 (CHANGES.md, PR 19,
lists both columns).  Everything that is not floating point -- every
round's epsilon, the comm ledger, the participation log -- is the parent's
value, bit for bit, and ``test_rebaseline_is_only_reassociation`` holds the
merged aggregate to the parent's formula at ``rtol=1e-13``.

The two ``mnist-cnn*`` entries were recorded at commit 4415b95, the last
one where ``nn/batched.py``'s shared-weight walk allocated every temporary
afresh and ``core/engine.py`` deep-copied the template model per
micro-batch.  Three rounds with ``eval_every=2``, so the third round trains
from a model that ``evaluate_model`` has already been through, once in
process and once behind a 2-worker pool: they pin the workspace-backed walk
to the allocating one bit for bit on the convolutional path.

To re-record after a change that is *meant* to move the numbers, print
``_fingerprint(TREES[name])`` for each name and say why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from repro.api.runner import build_simulator, build_trainer
from repro.api.spec import RunSpec
from repro.core import UldpAvg, UldpSgd
from repro.core.engine import (
    LocalJob,
    fold_weighted_rows,
    make_shard_task,
    plan_shards,
)
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

MNIST_CNN = {
    **TRAIN,
    "eval_every": 2,
    "dataset": {
        "name": "mnist", "users": 12, "silos": 3, "records": 120,
        "test_records": 40, "distribution": "zipf",
    },
    "method": {"name": "uldp-avg-w", "local_epochs": 1},
}

TREES = {
    "mnist-cnn": MNIST_CNN,
    "mnist-cnn-sharded": {
        **MNIST_CNN, "engine": {"workers": 2, "shard_size": 128},
    },
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
    "mnist-cnn": (
        "e076c08e5dbaff90a9a7fb9a6b42f6d9ac556dddb81af82ab31a5e8a96177462",
        1.445621967952188,
    ),
    "mnist-cnn-sharded": (
        "e076c08e5dbaff90a9a7fb9a6b42f6d9ac556dddb81af82ab31a5e8a96177462",
        1.445621967952188,
    ),
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


SGD_SIM = {"rounds": 3, "method": {"name": "uldp-sgd"}}
SGD_TREES = {
    "uldp-sgd": {**TRAIN, "method": {"name": "uldp-sgd"}},
    "uldp-sgd-w-subsampled": {
        **TRAIN, "method": {"name": "uldp-sgd-w", "sample_rate": 0.5},
    },
    "uldp-sgd-sharded": {
        **TRAIN,
        "method": {"name": "uldp-sgd"},
        "engine": {"workers": 2, "shard_size": 128},
    },
    # Seed 2: round 1 has every silo down, round 3 the full roster.
    "uldp-sgd-flaky-silos": {
        **SGD_SIM, "seed": 2,
        "sim": {"scenario": "flaky-silos", "scale": "smoke"},
    },
    # Seed 6: one silo, then all three with a 1.67x make-up gain, then two.
    "uldp-sgd-carryover-makeup": {
        **SGD_SIM, "seed": 6,
        "sim": {"scenario": "carryover-makeup", "scale": "smoke"},
    },
}

DENSE = 33040  # one float64 payload of the 4130-parameter creditcard MLP

#: name -> (params sha256, per-round epsilon, [(uplink, downlink)],
#: [(silos_seen, users_seen)]); all but the sha are the parent's values.
SGD_GOLDEN = {
    "uldp-sgd": (
        "aabbdaf220fd3b38bc220852fe78eea03eb3a1b2d0d35390800cd1da5288a79b",
        [0.794522032537103, 1.1581505950444586, 1.445621967952188],
        [(3 * DENSE, 3 * DENSE)] * 3,
        [(3, 12)] * 3,
    ),
    "uldp-sgd-w-subsampled": (
        "45af708f55a84f36aa051d5aaccb33649af69ade42ed0f0d0a2ebe402dc1a079",
        [0.455531593304523, 0.6312832802535272, 0.7680940141667629],
        [(3 * DENSE, 3 * DENSE)] * 3,
        [(3, 3), (3, 8), (3, 6)],
    ),
    "uldp-sgd-sharded": (
        "aabbdaf220fd3b38bc220852fe78eea03eb3a1b2d0d35390800cd1da5288a79b",
        [0.794522032537103, 1.1581505950444586, 1.445621967952188],
        [(3 * DENSE, 3 * DENSE)] * 3,
        [(3, 12)] * 3,
    ),
    "uldp-sgd-flaky-silos": (
        "c846c8235b2cfcffcbe82acfa1f9aae1a7c59e0910829462ab7c37c21e9a04e3",
        [0.0, 0.512063674748734, 0.9700506277526435],
        [(0, 0), (2 * DENSE, 2 * DENSE), (3 * DENSE, 3 * DENSE)],
        [(0, 0), (2, 12), (3, 12)],
    ),
    "uldp-sgd-carryover-makeup": (
        "233f2d71f6f18e5615c109fd7c5e1944fa723f26a868543135368b38c326d11f",
        [0.24221302294257846, 1.4167330790632988, 1.5322886346188542],
        [(DENSE, DENSE), (3 * DENSE, 3 * DENSE), (2 * DENSE, 2 * DENSE)],
        [(1, 12), (3, 12), (2, 12)],
    ),
}


def _run(tree: dict):
    """``(history, final params)`` of one golden spec tree."""
    spec = RunSpec.from_dict({"name": "golden", **tree})
    if spec.is_simulation:
        sim = build_simulator(spec)
        return sim.run(), sim.trainer.params
    trainer = build_trainer(spec)
    return trainer.run(), trainer.params


def _fingerprint(tree: dict) -> tuple[str, float]:
    history, params = _run(tree)
    return hashlib.sha256(params.tobytes()).hexdigest(), history.final.epsilon


def _sgd_fingerprint(tree: dict) -> tuple:
    history, params = _run(tree)
    return (
        hashlib.sha256(params.tobytes()).hexdigest(),
        [r.epsilon for r in history.records],
        [(c.uplink_bytes, c.downlink_bytes) for c in history.comm],
        [(p.silos_seen, p.users_seen) for p in history.participation],
    )


@pytest.mark.parametrize("name", sorted(TREES))
def test_fingerprint_unchanged(name):
    assert _fingerprint(TREES[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SGD_TREES))
def test_uldp_sgd_fingerprint_unchanged(name):
    assert _sgd_fingerprint(SGD_TREES[name]) == SGD_GOLDEN[name]


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


class ParentFormulaUldpSgd(UldpSgd):
    """ULDP-SGD's round aggregate exactly as commit 13d840d summed it, when
    ``uldp_sgd.py`` had a round of its own: ``0 + reduce(<every active
    silo's shard partials>).total() + z_0 + z_1 + ...`` -- one exact
    reduction over the whole round, then the noise vectors one by one."""

    def _round_aggregate(self, params, round_weights):
        fed, model, _ = self._require_prepared()
        engine = self.shard_engine
        active, tasks, users_seen = self._active_silos(), [], set()
        for s in active:
            silo = fed.silos[s]
            users = [int(u) for u in silo.users_present()
                     if round_weights[s, u] != 0.0]
            jobs = [LocalJob(*silo.records_of_user(u)) for u in users]
            users_seen.update(users)
            for a, b in plan_shards(len(jobs), engine.config.aligned_shard_size):
                tasks.append(make_shard_task(
                    mode="gradient", model=model, task=fed.task, params=params,
                    jobs=jobs[a:b], weights=round_weights[s, users][a:b],
                    clip=self.clip, scale=engine.scale(self.clip), silo=s,
                    shard=len(tasks)))
        results = engine.run_tasks(tasks)
        aggregate = np.zeros_like(params)
        if results:
            aggregate = aggregate + engine.reduce(results).total()
        for _ in active:
            aggregate += self._gaussian_noise(self._noise_std(), params.size)
        return aggregate, users_seen, len(active) * params.size * 8


ROSTERS = pytest.mark.parametrize(
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


@ROSTERS
def test_rebaseline_is_only_reassociation(
    kwargs, participation, merged=UldpAvg, parent=ParentFormulaUldpAvg,
    base=dict(local_epochs=2, batch_size=8),
):
    """One round from one RNG state: the per-silo-payload sum and the
    parent's formula add the same numbers in a different order, so they
    agree to a few ulps of the largest addend -- and on everything that is
    not floating-point (RNG consumption, bytes, users, epsilon) exactly."""
    fed = build_creditcard_benchmark(
        n_users=12, n_silos=3, n_records=300, n_test=60, seed=3,
        distribution="zipf",
    )
    aggregates, traces = [], []
    for cls in (merged, parent):
        method = cls(weighting="proportional", **base, **kwargs)
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


@ROSTERS
def test_uldp_sgd_merge_is_only_reassociation(kwargs, participation):
    """The same, for ULDP-SGD's move onto ULDP-AVG's round (PR 19)."""
    test_rebaseline_is_only_reassociation(
        kwargs, participation, UldpSgd, ParentFormulaUldpSgd, {})

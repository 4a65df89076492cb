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

Every params sha256 above was re-recorded once more, on purpose, when a
silo's draws (its job schedules and its noise) moved off the trainer's
shared generator onto a generator of its own per release
(``UldpAvg._draw_silo``): the draws differ, so the bits do.  Every
epsilon and every comm ledger is the parent's value, bit for bit; so is
every participation log but ``uldp-sgd-w-subsampled``'s, whose server-side
user sample is drawn from the trainer's generator, which the silos no
longer advance between rounds.  CHANGES.md lists both columns.

The ``user-churn`` entry and ``CHURN_MASKS`` were recorded at commit
54d5c54, the last one where a simulator's user flags lived in a sharded,
memory-mapped population object that flipped them shard by shard.  They
pin the plain per-user mask (``ChurnProcess.step``) to that object draw
for draw: ``CHURN_MASKS`` is a 20-user population at departure and
arrival rate 0.5, where users depart and re-arrive within one step.

Every params sha256 was re-recorded once more, on purpose, when local
training moved to float32 (``TRAIN_DTYPE``) with the clip, the fold, the
noise and the global parameters left in float64: max |delta param| over
the thirteen runs 1.8e-7 (``user-churn``, ``uldp-sgd-w-subsampled``),
every epsilon, comm ledger and participation log the parent's value bit
for bit, and the sharded entries still equal their in-process twins.
CHANGES.md lists both columns.

The four ``*-multi-epoch*`` entries were recorded at commit 45479e2, the
last one where the multi-epoch bucket kernel
(``core/engine.py::_train_bucket``) trained a replica model -- a
``BatchedSequential`` of ``Batched*`` layers holding one parameter copy
per job -- instead of running the shared-weight walk on per-group
weights.  No other entry reaches that kernel (every one above trains a
single full-batch step or runs ULDP-SGD's gradient kernel), so these pin
its bits on the dense path: ULDP-AVG-w with two local epochs of batch 8
(45 buckets), ULDP-AVG full-batch over two epochs behind a 2-worker pool,
and the per-silo baselines DEFAULT (batch 8, no epsilon) and ULDP-NAIVE
over two epochs.  They hash the same under single-threaded BLAS.  No
convolutional multi-epoch entry was kept then, since its bits move with
BLAS's thread count; the one below pins it at the test host's count.

The ``mnist-cnn-multi-epoch`` entry was recorded at commit 906f74c, the
last one where the walk's convolution formed its input gradient as one
``(rows, kh*kw*C)`` GEMM folded back by a strided col2im, gathered every
im2col through a 6-D ``as_strided`` view, and applied a ReLU before the
max-pool that follows it.  It is the only entry that runs a CNN through
``per_group_step`` (ULDP-AVG-w, two full-batch local epochs, so every
round trains padded per-group weights twice), and it pins the per-group
convolution and pooling kernels bit for bit.  Its parameters stay
finite (``test_cnn_multi_epoch_stays_finite``): a minibatch variant at
the default ``local_lr`` overflows in float32 on the noisy global model,
and a hash of it would pin the NaN rows its clip drops.  Like the other
``mnist-cnn`` entries its bits move with BLAS's thread count.

Every params sha256 of a run whose silos form a payload -- all but
``masked-dropout``, ``paillier``, ``default-multi-epoch`` and
``uldp-naive-multi-epoch``, which are byte-for-byte the values above --
was re-recorded once more, on purpose, when a silo's release became
float32 (``UldpAvg.payload_dtype``, rounded once where it is formed):
max |delta param| over the fourteen runs 7.4e-7
(``uldp-avg-multi-epoch-sharded``; 1.2e-7 to 3.5e-7 for the others).
Every epsilon, downlink and participation log is the parent's value bit
for bit and every dense uplink exactly halved (``DENSE``);
``test_rebaseline_is_only_float32_rounding`` holds each new aggregate to
the float64 payloads' sum within their summed float32 half-ulps, and the
two reassociation re-baselines keep comparing the float64 release
(``Float64Payload*``) with the formulas they were recorded against.

The ``masked-dropout`` params sha256 was re-recorded once more, on
purpose and by a script that refused any other move, when a masked silo
began masking its own release -- the float32 payload every plaintext
carrier forms -- in Z_{2^64}, instead of Protocol 1's per-user integer
arithmetic scaled by C_LCM in a 256-bit field.  Its aggregate is now
``P * sum_s rint(release_s / P)``: max |delta param| 5.4e-8 after the 3
rounds, every epsilon, participation log and downlink the parent's value
bit for bit, each uplink a quarter of the parent's (8 B a coordinate, not
32).  Every other entry, ``paillier`` included, kept its hash.

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
from repro.sim import ChurnProcess

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
    "mnist-cnn-multi-epoch": {
        **MNIST_CNN, "method": {"name": "uldp-avg-w", "local_epochs": 2},
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
    "user-churn": {
        "seed": 3,
        "sim": {"scenario": "user-churn", "scale": "smoke"},
    },
    "uldp-avg-w-multi-epoch": {
        **TRAIN, "method": {"name": "uldp-avg-w", "local_epochs": 2, "batch_size": 8},
    },
    "uldp-avg-multi-epoch-sharded": {
        **TRAIN,
        "method": {"name": "uldp-avg", "local_epochs": 2},
        "engine": {"workers": 2, "shard_size": 128},
    },
    "default-multi-epoch": {
        **TRAIN, "method": {"name": "default", "local_epochs": 2, "batch_size": 8},
    },
    "uldp-naive-multi-epoch": {
        **TRAIN, "method": {"name": "uldp-naive", "local_epochs": 2},
    },
}

GOLDEN = {
    "mnist-cnn": (
        "161a7137390384faae78caaf7044ea78f82b6e011483c47424aa12bb337697c5",
        1.445621967952188,
    ),
    "mnist-cnn-sharded": (
        "161a7137390384faae78caaf7044ea78f82b6e011483c47424aa12bb337697c5",
        1.445621967952188,
    ),
    "mnist-cnn-multi-epoch": (
        "bcafda3928ec5a4f37bdf4783ee8002818f56e7417279d599e8d08a8164b4b62",
        1.445621967952188,
    ),
    "plaintext": (
        "84fde1d806e3ef12638768e04414326d19ff64670c7eea00e8f0fb8219eb909c",
        1.445621967952188,
    ),
    "compressed-sharded": (
        "4410c3844567d5d5eef29a4d440157aaa5e2454bef833709b2721b69519acb14",
        1.445621967952188,
    ),
    "masked-dropout": (
        "956889c831963a11268fcb298d052a6097a447a5f999f2c3ed8403420e09ca5a",
        8.885566134749796,
    ),
    "async-fedbuff": (
        "4001fb5de55cbf3d1b4d8027e4be9b41cea43304de6404df369ac397b05e4ccc",
        1.7667547726667157,
    ),
    "paillier": (
        "480b573230e0b7923122310af8ed9dc5c890e657394dca5ae0074ba45d93d852",
        1.1581505950444586,
    ),
    "user-churn": (
        "7bf96a3f785496dec0a4dffd76a19bf54ca9055e15e08951e7bbb1f3dac24e23",
        1.445621967952188,
    ),
    "uldp-avg-w-multi-epoch": (
        "f689ca16d5e26522f519d51e4fa7fd0405c1063dad3166db055a1cf959c9b6e8",
        1.445621967952188,
    ),
    "uldp-avg-multi-epoch-sharded": (
        "86f362d8d463f8d8dd5ab6ec1c813be8899522897e30e2d41dea3672f678af97",
        1.445621967952188,
    ),
    "default-multi-epoch": (
        "35f0fe52bc8f70b02fdcc3b3b7d6d45174b9bee44a4683a7d5f1fcb86379ac00",
        None,
    ),
    "uldp-naive-multi-epoch": (
        "42a2e1e41c73cc95ff7070cbd99be04d3fa5478eaf2eef657441d3f0efb2fed4",
        1.445621967952188,
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

DENSE = 16520  # one float32 payload of the 4130-parameter creditcard MLP
BROADCAST = 16520  # one float32 broadcast of it

#: name -> (params sha256, per-round epsilon, [(uplink, downlink)],
#: [(silos_seen, users_seen)]).
SGD_GOLDEN = {
    "uldp-sgd": (
        "120ed8484eaffc63d2aa015c96fc29f470eb9418c8eed39b9765471d095feb94",
        [0.794522032537103, 1.1581505950444586, 1.445621967952188],
        [(3 * DENSE, 3 * BROADCAST)] * 3,
        [(3, 12)] * 3,
    ),
    "uldp-sgd-w-subsampled": (
        "d0214e6084e2a09ddd26107c53ea0ba21568f10b1f2f491523bcffb5985646fd",
        [0.455531593304523, 0.6312832802535272, 0.7680940141667629],
        [(3 * DENSE, 3 * BROADCAST)] * 3,
        [(3, 2), (3, 6), (3, 8)],
    ),
    "uldp-sgd-sharded": (
        "120ed8484eaffc63d2aa015c96fc29f470eb9418c8eed39b9765471d095feb94",
        [0.794522032537103, 1.1581505950444586, 1.445621967952188],
        [(3 * DENSE, 3 * BROADCAST)] * 3,
        [(3, 12)] * 3,
    ),
    "uldp-sgd-flaky-silos": (
        "9ed71e34ce0c3915a5b51f9fb6bcd821182673bede5676584f3fc19b8185adbc",
        [0.0, 0.512063674748734, 0.9700506277526435],
        [(0, 0), (2 * DENSE, 2 * BROADCAST), (3 * DENSE, 3 * BROADCAST)],
        [(0, 0), (2, 12), (3, 12)],
    ),
    "uldp-sgd-carryover-makeup": (
        "53957d60f9a08e72f3d6da225bd9c56ef3edc398cdf177166c4cf348bb786fd7",
        [0.24221302294257846, 1.4167330790632988, 1.5322886346188542],
        [(DENSE, BROADCAST), (3 * DENSE, 3 * BROADCAST), (2 * DENSE, 2 * BROADCAST)],
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


def test_cnn_multi_epoch_stays_finite():
    _, params = _run(TREES["mnist-cnn-multi-epoch"])
    assert np.isfinite(params).all()


@pytest.mark.parametrize("name", sorted(SGD_TREES))
def test_uldp_sgd_fingerprint_unchanged(name):
    assert _sgd_fingerprint(SGD_TREES[name]) == SGD_GOLDEN[name]


#: Flags after each of six churn steps ('1' = active), the realised
#: (arrivals, departures) of each step, and the generator's PCG64 state
#: afterwards: 20 users, ``default_rng(11)``.
CHURN_MASKS = [
    "01111110100001111110", "00010000010011110110", "00010000100110111101",
    "11110000101110111100", "10011000111111111100", "00101000110111001100",
]
CHURN_FLIPS = [(0, 7), (4, 9), (5, 4), (5, 2), (4, 3), (1, 5)]
CHURN_RNG_STATE = 165413297334166550847267281204851629119


def test_churn_mask_unchanged():
    churn = ChurnProcess(departure_rate=0.5, arrival_rate=0.5)
    active = np.ones(20, dtype=np.bool_)
    rng = np.random.default_rng(11)
    masks, flips = [], []
    for _ in range(6):
        flips.append(churn.step(active, rng))
        masks.append("".join("1" if a else "0" for a in active))
    assert masks == CHURN_MASKS
    assert flips == CHURN_FLIPS
    assert rng.bit_generator.state["state"]["state"] == CHURN_RNG_STATE


class Float64PayloadUldpAvg(UldpAvg):
    """ULDP-AVG with the float64 release it had before the float32 one."""

    payload_dtype = np.dtype(np.float64)


class Float64PayloadUldpSgd(UldpSgd):
    """ULDP-SGD with the float64 release it had before the float32 one."""

    payload_dtype = np.dtype(np.float64)


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
        for s in active:  # each silo's own noise (full batch: nothing else)
            aggregate += self._draw_silo(
                s, round_weights[s], self._noise_std(), params.size)[2]
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
def _one_round(classes, kwargs, participation, base):
    """One round of each class from one RNG state: per class the
    aggregate, the silo payloads (empty if the class forms none) and
    everything that is not floating point."""
    fed = build_creditcard_benchmark(
        n_users=12, n_silos=3, n_records=300, n_test=60, seed=3,
        distribution="zipf",
    )
    aggregates, payloads, traces = [], [], []
    for cls in classes:
        method = cls(weighting="proportional", **base, **kwargs)
        model = build_tiny_mlp(30, 8, 2, np.random.default_rng(1))
        method.prepare(fed, model, np.random.default_rng(7))
        hook, source, formed = method._round_aggregate, method._shard_payloads, []

        def spy(params, round_weights, hook=hook):
            result = hook(params, round_weights)
            aggregates.append(result[0])
            return result

        def spy_source(*args, source=source, formed=formed):
            result = source(*args)
            formed.extend(payload for _, _, payload in result)
            return result

        method._round_aggregate = spy
        method._shard_payloads = spy_source
        report = method.round(0, model.get_flat_params(), participation)
        payloads.append(formed)
        traces.append((method.rng.bit_generator.state, report.comm,
                       report.participation, method.epsilon(1e-5)))
    return aggregates, payloads, traces


@ROSTERS
def test_rebaseline_is_only_reassociation(
    kwargs, participation, merged=Float64PayloadUldpAvg,
    parent=ParentFormulaUldpAvg, base=dict(local_epochs=2, batch_size=8),
):
    """One round from one RNG state: the per-silo-payload sum and the
    parent's formula add the same numbers in a different order, so they
    agree to a few ulps of the largest addend -- and on everything that is
    not floating-point (RNG consumption, bytes, users, epsilon) exactly."""
    (new, old), _, traces = _one_round((merged, parent), kwargs, participation, base)
    assert np.abs(old).max() > 0
    np.testing.assert_allclose(
        new, old, rtol=1e-13, atol=1e-13 * np.abs(old).max())
    assert traces[0] == traces[1]


@ROSTERS
def test_uldp_sgd_merge_is_only_reassociation(kwargs, participation):
    """The same, for ULDP-SGD's move onto ULDP-AVG's round (PR 19)."""
    test_rebaseline_is_only_reassociation(
        kwargs, participation, Float64PayloadUldpSgd, ParentFormulaUldpSgd, {})


@ROSTERS
@pytest.mark.parametrize(
    "cls, wide, base",
    [
        (UldpAvg, Float64PayloadUldpAvg, dict(local_epochs=2, batch_size=8)),
        (UldpSgd, Float64PayloadUldpSgd, {}),
    ],
    ids=["uldp-avg", "uldp-sgd"],
)
def test_rebaseline_is_only_float32_rounding(cls, wide, base, kwargs, participation):
    """The float32 release against the float64 one it replaced, from one
    RNG state: each payload is the float64 one rounded, so the aggregates
    differ by at most the summed per-payload half-ulps (plus the float64
    sums' own roundings); everything that is not floating point is equal
    but the uplink, which exactly halves."""
    (new, old), (narrow, payloads), traces = _one_round(
        (cls, wide), kwargs, participation, base)
    assert len(narrow) == len(payloads) > 0
    for got, want in zip(narrow, payloads):
        assert got.dtype == np.float32 and want.dtype == np.float64
        assert got.tobytes() == want.astype(np.float32).tobytes()
    half_ulps = sum(np.spacing(np.abs(p.astype(np.float32))) / 2 for p in payloads)
    slack = 4 * np.finfo(np.float64).eps * sum(np.abs(p) for p in payloads)
    assert np.all(np.abs(new - old) <= half_ulps + slack)
    assert np.abs(new - old).max() > 0
    (rng, comm, *rest), (rng_w, comm_w, *rest_w) = traces
    assert (rng, rest) == (rng_w, rest_w)
    assert comm.downlink_bytes == comm_w.downlink_bytes
    assert 2 * comm.uplink_bytes == comm_w.uplink_bytes > 0

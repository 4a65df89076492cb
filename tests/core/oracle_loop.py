"""The per-user training loop the batched engine replaced, kept as its oracle.

Until PR 14 every method shipped this as ``engine="loop"``: clone the
model, load the global parameters, run the local epochs on one user's (or
one silo's) records, clip, weight, add -- one tiny training run at a
time.  Each ``Loop*`` class is the runtime method with only its training
step swapped for that loop; every generator is consumed in the same order
(``train_epochs`` draws a job's minibatch permutations where the engine's
caller pre-draws them, then the silo's noise), so a loop run and an engine
run from one seed see the same noise and must agree on the parameters to
floating-point reassociation: ``ATOL`` in ``test_engine_equivalence.py``.
Like the engine, the loop trains in ``TRAIN_DTYPE`` (float32): a float32
copy of the model, float32 records, the loss gradient handed over in
float32, and a float64 delta of trained minus rounded start; the clip,
noise and sum stay float64.  The silo-level methods draw from the
trainer's generator; ULDP-AVG/SGD's loop payloads build each silo's own
generator for the release here, independently of the runtime's
``_draw_silo``: ``default_rng([root, space, key, silo])``.

``segment_payloads`` is the second reference the carrier tests compare
against: the runtime's per-user rows (``silo_round_segment``) folded by
``fold_weighted_rows``, the engine's fold over a materialised matrix.

The other loop rounds cover full participation only, which is all the
equivalence tests drive; ``LoopUldpAvg`` and ``LoopUldpSgd`` inherit
everything but the silo payloads (Algorithm 3's one round, two local
kernels), so they also run under a Trainer, with compression.
"""

from unittest import mock

import numpy as np
import reference_nn
from reference_nn import l2_clip, reference, train_epochs

from repro.core import Default, UldpAvg, UldpGroup, UldpNaive, UldpSgd
from repro.core.engine import fold_weighted_rows
from repro.core.methods.base import ParticipationSummary, RoundReport
from repro.core.reduce import BinnedSum
from repro.core.metrics import make_loss
from repro.core.weighting import RoundParticipation
from repro.nn import dpsgd
from repro.nn.layers import TRAIN_DTYPE
from repro.nn.losses import DegenerateBatchError


class TrainDtypeLoss:
    """``loss``'s reference handing its gradient to the layers in
    ``TRAIN_DTYPE``, as the walk hands the batched loss's gradient on."""

    def __init__(self, loss):
        self.loss = reference(loss)

    def forward(self, pred, target):
        return self.loss.forward(pred, target)

    def backward(self):
        return np.asarray(self.loss.backward(), TRAIN_DTYPE)


def local_delta(method, rng, params, x, y, lr, epochs, batch_size):
    """Model delta (local - global) after local SGD from ``params``,
    minibatch orders drawn from ``rng``: trained in float32, differenced
    in float64 against the rounded start."""
    fed, model, _ = method._require_prepared()
    start = params.astype(TRAIN_DTYPE)
    local = model.astype(TRAIN_DTYPE)
    local.set_flat_params(start)
    train_epochs(
        local, TrainDtypeLoss(make_loss(fed.task, local)), x.astype(TRAIN_DTYPE),
        y, lr=lr, epochs=epochs, rng=rng, batch_size=batch_size,
    )
    return np.subtract(local.get_flat_params(), start, dtype=np.float64)


def gradient(method, params, x, y):
    """Full-batch mean gradient at ``params``, computed in float32; zero
    where the loss is undefined on this data (the Cox likelihood of an
    event-free user)."""
    fed, model, _ = method._require_prepared()
    local = reference(model.astype(TRAIN_DTYPE))
    local.set_flat_params(params)
    loss = TrainDtypeLoss(make_loss(fed.task, local))
    local.zero_grad()
    try:
        loss.forward(local.forward(x.astype(TRAIN_DTYPE)), y)
    except DegenerateBatchError:
        return np.zeros(local.num_params)
    local.backward(loss.backward())
    return local.get_flat_grads().astype(np.float64)


def per_sample_clipped_gradient_sum(model, loss, x, y, clip, microbatch_size=1):
    """``reference_nn.per_sample_clipped_gradient_sum`` (one record at a
    time, each gradient clipped in float64) on a float32 copy of the model."""
    return reference_nn.per_sample_clipped_gradient_sum(
        model.astype(TRAIN_DTYPE), TrainDtypeLoss(loss), x.astype(TRAIN_DTYPE),
        y, clip, microbatch_size,
    )


def full_round_report(method, params, broadcast):
    """What the runtime's silo-level round reports when every silo took
    part: each silo's dense payload up, the broadcast down to each."""
    fed = method.fed
    users = {int(u) for silo in fed.silos for u in silo.users_present()}
    comm = method._log_comm(
        RoundParticipation.full(fed.n_silos),
        fed.n_silos * method.payload_bytes(params.size), broadcast.nbytes)
    return RoundReport(params, ParticipationSummary(fed.n_silos, len(users)), comm)


class LoopDefault(Default):
    def round(self, t, params, participation=None):
        assert participation is None
        broadcast = self.broadcast(params)
        deltas = [
            local_delta(self, self.rng, broadcast, silo.x, silo.y, self.local_lr,
                        self.local_epochs, self.batch_size)
            for silo in self.fed.silos
            if silo.n_records > 0
        ]
        return full_round_report(
            self, params + self.global_lr * np.sum(deltas, axis=0) / self.fed.n_silos,
            broadcast)


class LoopUldpNaive(UldpNaive):
    def round(self, t, params, participation=None):
        assert participation is None
        n_silos = self.fed.n_silos
        noise_std = self.noise_multiplier * self.clip * np.sqrt(n_silos)
        broadcast = self.broadcast(params)
        aggregate = np.zeros_like(params)
        for silo in self.fed.silos:
            if silo.n_records > 0:
                delta = local_delta(self, self.rng, broadcast, silo.x, silo.y,
                                    self.local_lr, self.local_epochs,
                                    self.batch_size)
                aggregate += l2_clip(delta, self.clip)
            aggregate += self._gaussian_noise(self.rng, noise_std, params.size)
        return full_round_report(
            self, params + self.global_lr * aggregate / n_silos, broadcast)


class LoopUldpGroup(UldpGroup):
    """DP-SGD steps on ``per_sample_clipped_gradient_sum``, the one-record-
    at-a-time reference in ``tests/reference_nn.py``, run in float32."""

    def round(self, t, params, participation=None):
        with mock.patch.object(
            dpsgd, "per_sample_clipped_gradient_sum",
            per_sample_clipped_gradient_sum,
        ):
            return super().round(t, params, participation)


def loop_payloads(method, params, round_weights, noise_std, active,
                  local_vector):
    """Algorithm 3's per-silo payload one user at a time, for each active
    silo from its own generator for the round in progress:
    ``local_vector(rng, x, y)`` per present user, clipped to C, weighted
    and summed, then the silo's noise added and the sum cast to the
    method's ``payload_dtype``."""
    fed, _, _ = method._require_prepared()
    space, key = method._release
    payloads = []
    for s in active:
        rng = np.random.default_rng([method._silo_root, space, key, s])
        silo = fed.silos[s]
        weight_row = round_weights[s]
        users = [int(u) for u in silo.users_present() if weight_row[u] != 0.0]
        total = np.zeros(params.size)
        for user in users:
            vector = local_vector(rng, *silo.records_of_user(user))
            total += weight_row[user] * l2_clip(vector, method.clip)
        noise = method._gaussian_noise(rng, noise_std, params.size)
        payload = noise + total if users else noise
        payloads.append((s, users, payload.astype(method.payload_dtype)))
    return payloads


def segment_payloads(method, params, round_weights, noise_std, active):
    """Each active silo's payload from its materialised rows: the row view
    ``silo_round_segment``, one ``fold_weighted_rows`` over the whole
    ``(users, P)`` matrix, then ``noise + total`` cast to the method's
    ``payload_dtype`` -- the walk every carrier must match bit for bit."""
    engine = method.shard_engine
    payloads = []
    for s in active:
        users, rows, noise = method.silo_round_segment(
            s, params, round_weights[s], noise_std)
        if users:
            acc = BinnedSum(params.size, engine.scale(method.clip))
            fold_weighted_rows(
                acc, round_weights[s, users], rows, engine.backend)
            noise = noise + acc.total()
        payloads.append((s, users, noise.astype(method.payload_dtype)))
    return payloads


class LoopUldpAvg(UldpAvg):
    """Per-user deltas one training run at a time, summed per silo; the
    payloads then take the runtime's compression and accounting.

    The oracle replaces the shard pool, the one in-process carrier;
    ``test_engine_equivalence.py`` counts the ``train_epochs`` calls to
    prove this body, not the engine, ran.
    """

    def _shard_payloads(self, params, round_weights, noise_std, active):
        return loop_payloads(
            self, params, round_weights, noise_std, active,
            lambda rng, x, y: local_delta(
                self, rng, params, x, y, self.local_lr, self.local_epochs,
                self.batch_size,
            ),
        )


class LoopUldpSgd(UldpSgd):
    """The SGD kernel the same way: one backward pass per user, negated
    (a descent direction), clipped; ``test_engine_equivalence.py`` counts
    the ``gradient`` calls."""

    def _shard_payloads(self, params, round_weights, noise_std, active):
        return loop_payloads(
            self, params, round_weights, noise_std, active,
            lambda rng, x, y: -gradient(self, params, x, y),
        )


#: Runtime method class -> its loop oracle.
LOOP = {
    Default: LoopDefault,
    UldpNaive: LoopUldpNaive,
    UldpSgd: LoopUldpSgd,
    UldpGroup: LoopUldpGroup,
    UldpAvg: LoopUldpAvg,
}

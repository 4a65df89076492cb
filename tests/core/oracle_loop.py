"""The per-user training loop the batched engine replaced, kept as its oracle.

Until PR 14 every method shipped this as ``engine="loop"``: clone the
model, load the global parameters, run the local epochs on one user's (or
one silo's) records, clip, weight, add -- one tiny training run at a
time.  Each ``Loop*`` class is the runtime method with only its training
step swapped for that loop; the RNG is consumed in the same order
(``train_epochs`` draws a job's minibatch permutations where the engine's
caller pre-draws them, then the silo's noise), so a loop run and an engine
run from one seed see the same noise and must agree on the parameters to
floating-point reassociation: ``atol=1e-10`` in
``test_engine_equivalence.py``.

The other loop rounds cover full participation only, which is all the
equivalence tests drive; ``LoopUldpAvg`` and ``LoopUldpSgd`` inherit
everything but the per-silo step (Algorithm 3's one round, two local
kernels), so they also run under a Trainer, with compression.
"""

from unittest import mock

import numpy as np

from repro.core import Default, UldpAvg, UldpGroup, UldpNaive, UldpSgd
from repro.core.clipping import clip_factor, l2_clip
from repro.core.metrics import make_loss
from repro.nn import dpsgd
from repro.nn.losses import DegenerateBatchError
from repro.nn.train import train_epochs


def local_delta(method, params, x, y, lr, epochs, batch_size):
    """Model delta (local - global) after local SGD from ``params``."""
    fed, model, rng = method._require_prepared()
    local = model.clone()
    local.set_flat_params(params)
    train_epochs(
        local, make_loss(fed.task, local), x, y, lr=lr, epochs=epochs,
        rng=rng, batch_size=batch_size,
    )
    return local.get_flat_params() - params


def gradient(method, params, x, y):
    """Full-batch mean gradient at ``params``; zero where the loss is
    undefined on this data (the Cox likelihood of an event-free user)."""
    fed, model, _ = method._require_prepared()
    local = model.clone()
    local.set_flat_params(params)
    loss = make_loss(fed.task, local)
    local.zero_grad()
    try:
        loss.forward(local.forward(x), y)
    except DegenerateBatchError:
        return np.zeros(local.num_params)
    local.backward(loss.backward())
    return local.get_flat_grads()


class LoopDefault(Default):
    def round(self, t, params, participation=None):
        assert participation is None
        deltas = [
            local_delta(self, params, silo.x, silo.y, self.local_lr,
                        self.local_epochs, self.batch_size)
            for silo in self.fed.silos
            if silo.n_records > 0
        ]
        return params + self.global_lr * np.sum(deltas, axis=0) / self.fed.n_silos


class LoopUldpNaive(UldpNaive):
    def round(self, t, params, participation=None):
        assert participation is None
        n_silos = self.fed.n_silos
        noise_std = self.noise_multiplier * self.clip * np.sqrt(n_silos)
        aggregate = np.zeros_like(params)
        for silo in self.fed.silos:
            if silo.n_records > 0:
                delta = local_delta(self, params, silo.x, silo.y, self.local_lr,
                                    self.local_epochs, self.batch_size)
                aggregate += l2_clip(delta, self.clip)
            aggregate += self._gaussian_noise(noise_std, params.size)
        return params + self.global_lr * aggregate / n_silos


class LoopUldpGroup(UldpGroup):
    """DP-SGD steps on ``per_sample_clipped_gradient_sum``, the one-record-
    at-a-time reference that stays in ``nn/dpsgd.py``."""

    def round(self, t, params, participation=None):
        with mock.patch.object(
            dpsgd, "per_sample_clipped_gradient_sum_vectorized",
            dpsgd.per_sample_clipped_gradient_sum,
        ):
            return super().round(t, params, participation)


def loop_silo_step(method, s, params, weight_row, noise_std, local_vector):
    """Algorithm 3's per-silo step one user at a time: ``local_vector(x, y)``
    per present user, clipped to C, then the silo's noise -- the RNG order
    of the runtime's ``_draw_silo``."""
    fed, _, _ = method._require_prepared()
    silo = fed.silos[s]
    users = [int(u) for u in silo.users_present() if weight_row[u] != 0.0]
    rows = np.zeros((len(users), params.size))
    factors = np.zeros(len(users))
    for i, user in enumerate(users):
        vector = local_vector(*silo.records_of_user(user))
        factors[i] = clip_factor(vector, method.clip)
        rows[i] = l2_clip(vector, method.clip)
    return users, rows, factors, method._gaussian_noise(noise_std, params.size)


class LoopUldpAvg(UldpAvg):
    """Per-user deltas one training run at a time; the rows then take the
    runtime's per-silo fold, noise, compression and accounting.

    The oracle replaces the per-silo step itself, and takes the in-process
    walk (``streaming_aggregation = False``) because the shard pool never
    calls ``_silo_step``; ``test_engine_equivalence.py`` counts the
    ``train_epochs`` calls to prove this body, not the engine, ran.
    """

    streaming_aggregation = False

    def _silo_step(self, s, params, weight_row, noise_std):
        return loop_silo_step(
            self, s, params, weight_row, noise_std,
            lambda x, y: local_delta(
                self, params, x, y, self.local_lr, self.local_epochs,
                self.batch_size,
            ),
        )


class LoopUldpSgd(UldpSgd):
    """The SGD kernel the same way: one backward pass per user, negated
    (a descent direction), clipped; ``test_engine_equivalence.py`` counts
    the ``gradient`` calls."""

    streaming_aggregation = False

    def _silo_step(self, s, params, weight_row, noise_std):
        return loop_silo_step(
            self, s, params, weight_row, noise_std,
            lambda x, y: -gradient(self, params, x, y),
        )


#: Runtime method class -> its loop oracle.
LOOP = {
    Default: LoopDefault,
    UldpNaive: LoopUldpNaive,
    UldpSgd: LoopUldpSgd,
    UldpGroup: LoopUldpGroup,
    UldpAvg: LoopUldpAvg,
}

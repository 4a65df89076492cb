"""ULDP-NAIVE (Algorithm 1): silo-level clipping with user-level noise.

Each silo trains locally like DP-FedAVG, clips its *whole* model delta to C
and adds Gaussian noise with variance sigma^2 C^2 |S| (per coordinate).
Because one user may influence the delta of every silo, the user-level
sensitivity of the aggregate sum is C * |S|; the per-silo noise therefore
scales with |S| so the aggregated noise matches that sensitivity with noise
multiplier sigma, giving Theorem 1's bound -- at a heavy utility cost.

Note on sign: the paper's Algorithm 1 line 12 writes ``delta = x_t - x_s``
while Algorithm 3 line 15 writes ``delta = x_s - x_t``; with the shared
server update ``x + eta_g * mean(delta)`` only the latter descends, so we
use delta = local - global throughout (the line 12 sign is a typo).
"""

from __future__ import annotations

import numpy as np

from repro.accounting import PrivacyAccountant
from repro.core.clipping import l2_clip_rows
from repro.core.engine import batched_local_deltas
from repro.core.methods.base import FLMethod, ParticipationSummary
from repro.core.weighting import RoundParticipation


class UldpNaive(FLMethod):
    """Baseline achieving ULDP via |S|-scaled noise (Algorithm 1)."""

    name = "ULDP-NAIVE"

    def __init__(
        self,
        clip: float = 1.0,
        noise_multiplier: float = 5.0,
        global_lr: float = 1.0,
        local_lr: float = 0.05,
        local_epochs: int = 2,
        batch_size: int | None = 64,
    ):
        super().__init__()
        if clip <= 0:
            raise ValueError("clip bound must be positive")
        if noise_multiplier < 0:
            raise ValueError("noise multiplier must be non-negative")
        self.clip = clip
        self.noise_multiplier = noise_multiplier
        self.global_lr = global_lr
        self.local_lr = local_lr
        self.local_epochs = local_epochs
        self.batch_size = batch_size
        self.accountant = PrivacyAccountant()

    def round(
        self,
        t: int,
        params: np.ndarray,
        participation: RoundParticipation | None = None,
    ) -> np.ndarray:
        """One ULDP-NAIVE round, optionally under a participation roster.

        Silo-level method: only ``silo_mask`` is honoured; ``user_mask``
        is ignored because silos clip and ship their *whole* delta (the
        same documented limitation as ULDP-GROUP).
        """
        fed, model, _ = self._require_prepared()
        if participation is None:
            participation = RoundParticipation.full(fed.n_silos)
        n_active = participation.n_active_silos
        if n_active == 0:
            self.last_participation = ParticipationSummary(0, 0)
            self.accountant.step_release(
                self.noise_multiplier, sensitivity=0.0, noise_scale=0.0
            )
            return params.copy()
        active = participation.silo_mask
        # With A participating silos the user-level sensitivity is C * A
        # and each silo uses noise std sqrt(sigma^2 C^2 A): the aggregate
        # noise std sigma * C * A matches that sensitivity at noise
        # multiplier sigma, exactly as in the full-participation Theorem 1
        # (where A = |S|).  Dropout therefore leaves epsilon unchanged.
        noise_std = self.noise_multiplier * self.clip * np.sqrt(n_active)

        # Draw each silo's minibatch schedule and noise silo by silo (the
        # order a per-silo training loop consumes them), then train every
        # silo in one batched run.
        jobs, noises = [], []
        for s, silo in enumerate(fed.silos):
            if not active[s]:
                continue
            if silo.n_records > 0:
                jobs.append(
                    self._local_job(
                        silo.x, silo.y, self.local_epochs, self.batch_size
                    )
                )
            noises.append(self._gaussian_noise(noise_std, params.size))
        deltas = batched_local_deltas(
            model, fed.task, params, jobs, self.local_lr, self.local_epochs
        )
        aggregate = l2_clip_rows(deltas, self.clip).sum(axis=0)
        if noises:
            aggregate = aggregate + np.sum(noises, axis=0)

        self.last_participation = ParticipationSummary(
            silos_seen=n_active,
            users_seen=len(
                {
                    int(u)
                    for s, silo in enumerate(fed.silos)
                    if active[s]
                    for u in silo.users_present()
                }
            ),
        )
        self.accountant.step_release(self.noise_multiplier)
        return params + self.global_lr * aggregate / n_active

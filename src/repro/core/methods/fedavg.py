"""DEFAULT: non-private FedAVG with two-sided learning rates.

The paper's non-private baseline (Yang, Fang & Liu 2021): each silo runs Q
local epochs from the global model, the server averages the silo deltas and
applies a separate global learning rate.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import batched_local_deltas
from repro.core.methods.base import FLMethod, ParticipationSummary
from repro.core.weighting import RoundParticipation


class Default(FLMethod):
    """Non-private FedAVG baseline ("DEFAULT" in the paper's figures)."""

    name = "DEFAULT"
    is_private = False

    def __init__(
        self,
        global_lr: float = 1.0,
        local_lr: float = 0.05,
        local_epochs: int = 2,
        batch_size: int | None = 64,
    ):
        super().__init__()
        if global_lr <= 0 or local_lr <= 0:
            raise ValueError("learning rates must be positive")
        if local_epochs < 1:
            raise ValueError("need at least one local epoch")
        self.global_lr = global_lr
        self.local_lr = local_lr
        self.local_epochs = local_epochs
        self.batch_size = batch_size

    def round(
        self,
        t: int,
        params: np.ndarray,
        participation: RoundParticipation | None = None,
    ) -> np.ndarray:
        """One FedAVG round, optionally under a participation roster.

        Silo-level method: only ``silo_mask`` is honoured.  ``user_mask``
        is ignored -- the baseline trains on whole silo datasets, so
        departed users' records stay in (same documented limitation as
        :class:`repro.core.methods.uldp_group.UldpGroup`).
        """
        fed, model, _ = self._require_prepared()
        if participation is None:
            participation = RoundParticipation.full(fed.n_silos)
        if participation.n_active_silos == 0:
            self.last_participation = ParticipationSummary(0, 0)
            return params.copy()
        active = participation.silo_mask

        def trains(s: int, silo) -> bool:
            return silo.n_records > 0 and active[s]

        # Non-private baseline: dropped silos are simply excluded and the
        # mean runs over the participating silos (survivor averaging).
        denominator = participation.n_active_silos
        jobs = [
            self._local_job(silo.x, silo.y, self.local_epochs, self.batch_size)
            for s, silo in enumerate(fed.silos)
            if trains(s, silo)
        ]
        deltas = batched_local_deltas(
            model, fed.task, params, jobs, self.local_lr, self.local_epochs
        )
        # Empty silos contribute zero deltas; the mean is over all
        # (participating) silos.
        aggregate = deltas.sum(axis=0) / denominator
        self.last_participation = ParticipationSummary(
            silos_seen=denominator,
            users_seen=len(
                set().union(
                    *(
                        set(silo.users_present().tolist())
                        for s, silo in enumerate(fed.silos)
                        if trains(s, silo)
                    ),
                    set(),
                )
            ),
        )
        return params + self.global_lr * aggregate

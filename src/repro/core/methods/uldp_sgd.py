"""ULDP-SGD (Algorithm 3, SGD variant).

The paper prints ULDP-AVG and ULDP-SGD as one listing, and this module is
the one line they differ in: a user's local vector is a single negated
full-batch gradient (line 22) instead of the model delta after Q local
epochs (line 15).  :class:`UldpSgd` therefore sets
:attr:`~repro.core.UldpAvg.local_kernel` and nothing else about the round:
the weights, the clip, the per-silo noisy payload of line 17, Algorithm
4's sub-sampling, the roster handling, compression, the byte ledger, the
per-silo step the async and networked runtimes drive, and Theorem 3's
sensitivity-C accounting are :class:`~repro.core.UldpAvg`'s.  The server
applies the aggregate as a descent step -- the shared line ``x + eta_g *
aggregate`` with clients returning descent directions; convergence is
slower than ULDP-AVG's because a round makes a single step.
"""

from __future__ import annotations

import numpy as np

from repro.core.methods.uldp_avg import UldpAvg


class UldpSgd(UldpAvg):
    """Single-gradient-step variant of the paper's method."""

    name = "ULDP-SGD"
    local_kernel = "gradient"

    def __init__(
        self,
        clip: float = 1.0,
        noise_multiplier: float = 5.0,
        global_lr: float | None = None,
        weighting: str = "uniform",
        user_sample_rate: float | None = None,
    ):
        super().__init__(
            clip=clip,
            noise_multiplier=noise_multiplier,
            global_lr=global_lr,
            local_epochs=1,
            weighting=weighting,
            user_sample_rate=user_sample_rate,
        )

    @property
    def display_name(self) -> str:
        return "ULDP-SGD-w" if self.weighting == "proportional" else "ULDP-SGD"

    def prepare(self, fed, model, rng, compression=None, engine=None) -> None:
        if self.global_lr is None:
            # Same Remark 3 scaling as ULDP-AVG with Q = 1 single step,
            # damped by the usual SGD step size.
            self.global_lr = float(fed.n_silos * np.sqrt(fed.n_users)) * 0.5
        super().prepare(fed, model, rng, compression=compression, engine=engine)

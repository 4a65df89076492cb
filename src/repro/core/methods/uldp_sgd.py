"""ULDP-SGD (Algorithm 3, SGD variant).

The FedSGD counterpart of ULDP-AVG: each silo computes one full-batch
gradient per user, clips it to C, weights it by w[s, u], sums over users,
and adds the same sigma^2 C^2 / |S| Gaussian noise.  The server applies the
aggregate as a (negated) gradient step -- the paper's shared server line
``x + eta_g * aggregate`` with the client returning descent directions.
Sensitivity analysis is identical to ULDP-AVG, so Theorem 3 applies
verbatim; convergence is slower because a round makes a single step.
"""

from __future__ import annotations

import numpy as np

from repro.accounting import PrivacyAccountant
from repro.core.engine import LocalJob, make_shard_task, plan_shards
from repro.core.methods.base import FLMethod, ParticipationSummary
from repro.core.weighting import (
    RoundParticipation,
    participation_weights,
    proportional_weights,
    realised_sensitivity,
    subsample_weights,
    uniform_weights,
    validate_weights,
)


class UldpSgd(FLMethod):
    """Single-gradient-step variant of the paper's method."""

    name = "ULDP-SGD"

    def __init__(
        self,
        clip: float = 1.0,
        noise_multiplier: float = 5.0,
        global_lr: float | None = None,
        weighting: str = "uniform",
        user_sample_rate: float | None = None,
    ):
        super().__init__()
        if clip <= 0:
            raise ValueError("clip bound must be positive")
        if noise_multiplier < 0:
            raise ValueError("noise multiplier must be non-negative")
        if weighting not in ("uniform", "proportional"):
            raise ValueError("weighting must be 'uniform' or 'proportional'")
        if user_sample_rate is not None and not 0 < user_sample_rate <= 1:
            raise ValueError("user sample rate must lie in (0, 1]")
        self.clip = clip
        self.noise_multiplier = noise_multiplier
        self.global_lr = global_lr
        self.weighting = weighting
        self.user_sample_rate = user_sample_rate
        self.weights: np.ndarray | None = None
        self.accountant = PrivacyAccountant()

    @property
    def display_name(self) -> str:
        return "ULDP-SGD-w" if self.weighting == "proportional" else "ULDP-SGD"

    def prepare(self, fed, model, rng, compression=None, engine=None) -> None:
        super().prepare(fed, model, rng, compression=compression, engine=engine)
        if self.weighting == "uniform":
            self.weights = uniform_weights(fed.n_silos, fed.n_users)
        else:
            self.weights = proportional_weights(fed.histogram())
        validate_weights(self.weights)
        if self.global_lr is None:
            # Same Remark 3 scaling as ULDP-AVG with Q = 1 single step,
            # damped by the usual SGD step size.
            self.global_lr = float(fed.n_silos * np.sqrt(fed.n_users)) * 0.5

    def round(
        self,
        t: int,
        params: np.ndarray,
        participation: RoundParticipation | None = None,
    ) -> np.ndarray:
        fed, model, rng = self._require_prepared()
        assert self.weights is not None
        q = self.user_sample_rate

        if participation is None:
            base_weights = self.weights
            active_mask = None
            noise_silos = fed.n_silos
            sensitivity, noise_scale = 1.0, 1.0
        else:
            active = participation.n_active_silos
            if active == 0:
                self.last_participation = ParticipationSummary(0, 0)
                self.accountant.step_release(
                    self.noise_multiplier, sample_rate=q if q else 1.0,
                    sensitivity=0.0, noise_scale=0.0,
                )
                return params.copy()
            base_weights = participation_weights(self.weights, participation)
            sensitivity = realised_sensitivity(base_weights)
            active_mask = participation.silo_mask
            if participation.noise_rescale:
                noise_silos = active
                noise_scale = 1.0
            else:
                noise_silos = fed.n_silos
                noise_scale = float(np.sqrt(active / fed.n_silos))

        if q is not None:
            sampled = np.where(rng.random(fed.n_users) < q)[0]
            round_weights = subsample_weights(base_weights, sampled)
        else:
            round_weights = base_weights

        noise_std = self.noise_multiplier * self.clip / np.sqrt(noise_silos)
        users_seen: set[int] = set()
        aggregate = np.zeros_like(params)
        # Per-silo job lists planned into micro-batch-aligned shards; each
        # shard's kernel computes the (negated, clipped) gradient rows and
        # folds them into a binned partial sum, so no process holds the
        # full per-user matrix.  Gradients draw no randomness, so the noise
        # draws stay in per-silo order regardless of workers/shard_size.
        engine = self.shard_engine
        scale_bound = engine.scale(self.clip)
        tasks = []
        for s, silo in enumerate(fed.silos):
            if active_mask is not None and not active_mask[s]:
                continue
            jobs, weights = [], []
            for user in silo.users_present():
                w = round_weights[s, user]
                if w == 0.0:
                    continue
                jobs.append(LocalJob(*silo.records_of_user(int(user))))
                weights.append(w)
                users_seen.add(int(user))
            for a, b in plan_shards(len(jobs), engine.config.aligned_shard_size):
                tasks.append(
                    make_shard_task(
                        mode="gradient",
                        model=model,
                        task=fed.task,
                        params=params,
                        jobs=jobs[a:b],
                        weights=np.asarray(weights[a:b], dtype=np.float64),
                        clip=self.clip,
                        scale=scale_bound,
                        silo=s,
                        shard=len(tasks),
                        backend=engine.config.backend,
                    )
                )
        results = engine.run_tasks(tasks)
        if results:
            aggregate = aggregate + engine.reduce(results).total()
        for s in range(fed.n_silos):
            if active_mask is not None and not active_mask[s]:
                continue
            aggregate += self._gaussian_noise(noise_std, params.size)

        self.last_participation = ParticipationSummary(
            silos_seen=noise_silos if participation is None
            else participation.n_active_silos,
            users_seen=len(users_seen),
        )
        if participation is None:
            self.accountant.step(self.noise_multiplier, sample_rate=q if q else 1.0)
        else:
            self.accountant.step_release(
                self.noise_multiplier, sample_rate=q if q else 1.0,
                sensitivity=sensitivity, noise_scale=noise_scale,
            )
        scale = fed.n_users * fed.n_silos * (q if q is not None else 1.0)
        assert self.global_lr is not None
        return params + self.global_lr * aggregate / scale

    def epsilon(self, delta: float) -> float:
        return self.accountant.get_epsilon(delta)

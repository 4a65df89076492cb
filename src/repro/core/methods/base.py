"""Common infrastructure for the FL methods.

Every method is a stateful object configured at construction and bound to a
dataset/model by :meth:`FLMethod.prepare` (called once by the trainer).
Each round the trainer calls :meth:`FLMethod.round` with the current flat
global parameter vector and receives the next one.  Privacy-consuming
methods maintain a :class:`repro.accounting.PrivacyAccountant` and report
their cumulative user-level epsilon through :meth:`FLMethod.epsilon`.

The secure-aggregation step of the paper (server only sees the summed
deltas) is simulated by summing plaintext deltas here; the cryptographic
realisation lives in :mod:`repro.protocol` and is verified to produce the
same sums (Theorem 4 tests).

Local training always runs through the batched engine of
:mod:`repro.core.engine`.  The straightforward per-user Python loop it
replaced lives on as the differential-testing oracle
``tests/core/oracle_loop.py``: it consumes the shared RNG identically and
agrees on round aggregates to within floating-point reassociation.

Methods may also carry a :class:`repro.compress.CompressionSpec`
(constructor argument or assigned by the trainer's ``compression=``):
:meth:`FLMethod.prepare` builds the stateful
:class:`repro.compress.UpdateCompressor` from it, and compressing methods
(the ULDP-AVG family) apply it strictly post-noise, reporting the round's
wire bytes through :attr:`FLMethod.last_comm`.

``round`` accepts an optional
:class:`repro.core.weighting.RoundParticipation` describing which silos
and users take part (the :mod:`repro.sim` runtime's dropout/churn roster).
``participation=None`` is the idealised full-participation setting and is
bit-identical to the pre-simulation behaviour.  After every round a method
records who actually contributed in :attr:`FLMethod.last_participation`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.compress import CompressionSpec, UpdateCompressor
from repro.core.engine import (
    EngineConfig,
    LocalJob,
    ShardedEngine,
    batched_local_deltas,
    draw_minibatch_schedule,
)
from repro.core.weighting import RoundParticipation
from repro.data.federated import FederatedDataset
from repro.nn.model import Sequential


@dataclass(frozen=True)
class ParticipationSummary:
    """Who actually contributed to one round's aggregate."""

    #: Silos whose updates (or noise) entered the aggregate.
    silos_seen: int
    #: Distinct users whose records influenced the aggregate.
    users_seen: int


@dataclass(frozen=True)
class CommSummary:
    """Wire bytes one round actually moved (summed over silos)."""

    #: Silo -> server payload bytes (compressed size when compressing).
    uplink_bytes: int
    #: Server -> silo broadcast bytes (per-silo size times recipients).
    downlink_bytes: int


class FLMethod(ABC):
    """Base class for federated optimisation methods."""

    name: str = "base"
    #: Whether the method consumes privacy budget (False only for DEFAULT).
    is_private: bool = True
    #: Whether :meth:`round` applies lossy update compression itself.
    #: Methods without it still accept an identity spec (byte accounting).
    supports_compression: bool = False

    def __init__(self, compression: CompressionSpec | None = None):
        self.fed: FederatedDataset | None = None
        self.model: Sequential | None = None
        self.rng: np.random.Generator | None = None
        #: Set by :meth:`round`: realised participation of the last round
        #: (None until the first round; the trainer records it per round).
        self.last_participation: ParticipationSummary | None = None
        #: The update-compression recipe (None = dense, no byte ledger
        #: beyond the trainer's dense default).  A trainer-level spec is
        #: passed to :meth:`prepare` instead of overwriting this field.
        self.compression = compression
        #: The spec actually in force after :meth:`prepare` (the trainer's
        #: override when given, else :attr:`compression`).  Kept separate
        #: so a method instance reused across trainers never inherits an
        #: earlier trainer's compression.
        self.active_compression: CompressionSpec | None = compression
        #: Stateful compressor, built by :meth:`prepare` from the spec.
        self.compressor: UpdateCompressor | None = None
        #: Set by :meth:`round`: wire bytes of the last round (None for
        #: methods that leave byte accounting to the trainer's default).
        self.last_comm: CommSummary | None = None
        #: Execution layout of the batched engine ([engine] section),
        #: bound by :meth:`prepare`; the defaults run single-process.
        self.engine_config = EngineConfig()
        #: The sharded executor built from :attr:`engine_config`.  Owns
        #: the worker pool when ``workers > 0``; results are bit-identical
        #: for every (workers, shard_size) setting.
        self.shard_engine = ShardedEngine(self.engine_config)

    def prepare(
        self,
        fed: FederatedDataset,
        model: Sequential,
        rng: np.random.Generator,
        compression: CompressionSpec | None = None,
        engine: EngineConfig | None = None,
    ) -> None:
        """Bind the method to a dataset and a model template.

        ``compression`` is the trainer-level override for this binding; it
        takes precedence over the method's own :attr:`compression` without
        mutating it (the effective spec lands in
        :attr:`active_compression`).  ``engine`` configures the sharded
        execution layout (None keeps the single-process defaults).
        """
        self.fed = fed
        self.model = model
        self.rng = rng
        if engine not in (None, self.engine_config):
            self.close()
            self.engine_config = engine
            self.shard_engine = ShardedEngine(engine)
        spec = compression if compression is not None else self.compression
        self.active_compression = spec
        self.compressor = None
        if spec is not None:
            if not spec.is_identity and not self.supports_compression:
                raise NotImplementedError(
                    f"{type(self).__name__} does not implement lossy update "
                    "compression; use CompressionSpec.none() for byte "
                    "accounting only, or a UldpAvg-family method"
                )
            self.compressor = UpdateCompressor(
                spec, fed.n_silos, model.num_params
            )

    @abstractmethod
    def round(
        self,
        t: int,
        params: np.ndarray,
        participation: RoundParticipation | None = None,
    ) -> np.ndarray:
        """Run round ``t`` from flat params; returns the next flat params.

        ``participation`` restricts the round to a subset of silos/users
        (None = everyone, exactly the pre-simulation behaviour).  Weight-
        based methods (ULDP-AVG/SGD) honour the full roster; silo-level
        methods (DEFAULT, ULDP-NAIVE, ULDP-GROUP) honour ``silo_mask``
        only and document that ``user_mask`` is ignored.
        """

    def epsilon(self, delta: float) -> float | None:
        """Cumulative user-level (eps, delta)-ULDP; None if non-private."""
        return None

    def close(self) -> None:
        """Release the sharded engine's worker pool (idempotent; the pool
        is recreated lazily if the method keeps training afterwards)."""
        if getattr(self, "shard_engine", None) is not None:
            self.shard_engine.close()

    # -- shared helpers -----------------------------------------------------

    def _require_prepared(self) -> tuple[FederatedDataset, Sequential, np.random.Generator]:
        if self.fed is None or self.model is None or self.rng is None:
            raise RuntimeError("method not prepared; call prepare() first")
        return self.fed, self.model, self.rng

    def _local_job(
        self, x: np.ndarray, y: np.ndarray, local_epochs: int, batch_size: int | None
    ) -> LocalJob:
        """Package one local dataset for the batched engine.

        Pre-draws the minibatch schedule from the shared RNG so the random
        stream advances exactly as a per-job ``train_epochs`` call would
        (full-batch jobs draw nothing) -- the invariant that keeps the
        loop oracle's noise draws identical to the engine's.
        """
        _, _, rng = self._require_prepared()
        schedule = draw_minibatch_schedule(len(x), batch_size, local_epochs, rng)
        return LocalJob(x, y, schedule=schedule)

    def _local_deltas_batched(
        self,
        params: np.ndarray,
        jobs: list[LocalJob],
        local_lr: float,
        local_epochs: int,
    ) -> np.ndarray:
        """Stacked per-job model deltas via the batched engine ((G, P))."""
        fed, model, _ = self._require_prepared()
        return batched_local_deltas(
            model, fed.task, params, jobs, local_lr, local_epochs
        )

    def _gaussian_noise(self, std: float, size: int) -> np.ndarray:
        _, _, rng = self._require_prepared()
        if std == 0.0:
            return np.zeros(size)
        return rng.normal(0.0, std, size=size)

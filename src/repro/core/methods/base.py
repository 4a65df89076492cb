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
(the ULDP-AVG/SGD family) apply it strictly post-noise, reporting the round's
wire bytes through :attr:`FLMethod.last_comm`.

``round`` accepts an optional
:class:`repro.core.weighting.RoundParticipation` describing which silos
and users take part (the :mod:`repro.sim` runtime's dropout/churn roster).
``participation=None`` is the idealised full-participation setting; every
method canonicalises it to ``RoundParticipation.full(n_silos)`` on the first
line of its round, so there is one round body and full participation is the
roster with everyone in it, bit for bit.  Every round *must* record who
actually contributed in :attr:`FLMethod.last_participation` (the zero-silo
round included): the trainer logs it and does not guess.

The contract.  What a runtime may ask of a method is *declared* on
:class:`FLMethod`, never probed for: ``accountant``, ``display_name``,
``uplink_payload_bytes()``, ``timing_report()``, the capabilities
``supports_compression`` / ``check_compression()`` and ``has_silo_step``,
and ``state_dict()`` / ``load_state()``, through which a method owns its
checkpointed state.  A spec that needs an undeclared capability is refused
at validation (:func:`repro.api.runner.validate_spec_names`; docs/api.md
has the table).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.accounting import PrivacyAccountant
from repro.compress import CompressionSpec, UpdateCompressor
from repro.core.engine import (
    EngineConfig,
    LocalJob,
    ShardedEngine,
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
    #: Whether the method has the per-silo step API (``silo_payload``,
    #: ``apply_aggregate``, ``contribution_executor``; ``weights``, ``clip``,
    #: ``noise_multiplier``, ``user_sample_rate``) that the buffered-async
    #: scheduler and the networked runtime drive instead of :meth:`round`.
    has_silo_step: bool = False

    def __init__(self, compression: CompressionSpec | None = None):
        self.fed: FederatedDataset | None = None
        self.model: Sequential | None = None
        self.rng: np.random.Generator | None = None
        #: The accountant behind :meth:`epsilon` when the budget is one
        #: composed curve (None: DEFAULT spends nothing, ULDP-GROUP keeps
        #: one accountant per silo).
        self.accountant: PrivacyAccountant | None = None
        #: Set by every :meth:`round` (part of the contract): realised
        #: participation of the last round.  None only before the first
        #: round; the trainer logs it per round and refuses a None.
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
        self.shard_engine.bind(fed, model)
        spec = compression if compression is not None else self.compression
        self.check_compression(spec)
        self.active_compression = spec
        self.compressor = (
            None if spec is None
            else UpdateCompressor(spec, fed.n_silos, model.num_params)
        )

    @property
    def display_name(self) -> str:
        """The label histories and reports carry (variants refine it)."""
        return self.name

    def check_compression(self, spec: CompressionSpec | None) -> None:
        """Refuse a compression recipe this method cannot honour:
        :meth:`prepare` and spec validation both call this, so both give
        one message.  Methods admitting only some recipes extend it."""
        if spec is not None and not spec.is_identity and not self.supports_compression:
            raise NotImplementedError(
                f"{self.display_name} does not implement lossy update "
                "compression; use CompressionSpec.none() for byte "
                "accounting only, or a ULDP-AVG/SGD-family method"
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
        (None = everyone: canonicalise it to ``RoundParticipation.full``).
        Weight-based methods (ULDP-AVG/SGD) honour the full roster;
        silo-level methods (DEFAULT, ULDP-NAIVE, ULDP-GROUP) honour
        ``silo_mask`` only and document that ``user_mask`` is ignored.
        Must set :attr:`last_participation` before returning.
        """

    def epsilon(self, delta: float) -> float | None:
        """Cumulative user-level (eps, delta)-ULDP; None if non-private."""
        return None if self.accountant is None else self.accountant.get_epsilon(delta)

    def uplink_payload_bytes(self) -> int:
        """One silo's per-round uplink wire size (the bandwidth models'
        input): the compressed estimate when a compressor is active, dense
        float64 otherwise.  Methods with another wire format override."""
        _, model, _ = self._require_prepared()
        if self.compressor is not None:
            return self.compressor.estimated_payload_bytes(model.num_params)
        return model.num_params * 8

    def timing_report(self) -> dict[str, float]:
        """Cumulative per-phase seconds (empty: no phase timer)."""
        return {}

    def close(self) -> None:
        """Release the sharded engine's worker pool (idempotent; the pool
        is recreated lazily if the method keeps training afterwards)."""
        if getattr(self, "shard_engine", None) is not None:
            self.shard_engine.close()

    # -- checkpoint serialisation -------------------------------------------

    def state_dict(self) -> dict:
        """Everything dynamic the method holds between rounds: here the
        compressor (residuals + RNG) and the accountant; subclasses add
        keys.  Hyper-parameters and what :meth:`prepare` rebuilds are not
        state: a resume prepares the method anew, then :meth:`load_state`."""
        return {
            "compressor": None if self.compressor is None
            else self.compressor.state_dict(),
            "accountant": None if self.accountant is None
            else self.accountant.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot, or refuse it.  Subclasses
        pop their keys and pass the rest up; state only one side has is
        refused, not dropped or left fresh: either silently forks the run."""
        state = dict(state)
        saved = state.pop("compressor", None)
        if (saved is None) != (self.compressor is None):
            raise ValueError(
                "checkpoint and rebuilt simulator disagree about update "
                "compression; was the scenario's compression spec changed?"
            )
        if saved is not None:
            self.compressor.load_state(saved)
        saved = state.pop("accountant", None)
        if (saved is None) != (self.accountant is None):
            raise self._unplaced("accountant", saved is not None)
        if saved is not None:
            self.accountant.load_state(saved)
        for key, value in state.items():
            if value is not None:
                raise self._unplaced(key, True)

    def _unplaced(self, key: str, saved: bool) -> ValueError:
        """The refusal for state only one side of a resume has."""
        return ValueError(
            f"checkpoint carries {'' if saved else 'no '}{key!r} state but the "
            f"rebuilt method cannot restore {'it' if saved else 'without it'}; "
            "was the scenario's method changed? "
            f"(rebuilt: {self.display_name})"
        )

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

    def _gaussian_noise(self, std: float, size: int) -> np.ndarray:
        _, _, rng = self._require_prepared()
        if std == 0.0:
            return np.zeros(size)
        return rng.normal(0.0, std, size=size)

"""Common infrastructure for the FL methods.

Every method is a stateful object configured at construction and bound to a
dataset/model by :meth:`FLMethod.prepare` (called once by the trainer):
:meth:`FLMethod.bind`, which a ``repro silo`` replica runs too, plus the
state only the server holds.
Each round the trainer calls :meth:`FLMethod.round` with the current flat
global parameter vector and receives the round's :class:`RoundReport`:
the next parameter vector, who contributed and the bytes that moved.
Privacy-consuming methods maintain a
:class:`repro.accounting.PrivacyAccountant` and report their cumulative
user-level epsilon through :meth:`FLMethod.epsilon`.

The secure-aggregation step of the paper (server only sees the summed
deltas) is simulated by summing plaintext deltas here; the cryptographic
realisation lives in :mod:`repro.protocol` and is verified to produce the
same sums (Theorem 4 tests).

Local training always runs through the batched engine of
:mod:`repro.core.engine`.  The straightforward per-user Python loop it
replaced lives on as the differential-testing oracle
``tests/core/oracle_loop.py``: it consumes every generator identically
and agrees on round aggregates to within floating-point reassociation.

Methods may also carry a :class:`repro.compress.CompressionSpec`
(constructor argument or assigned by the trainer's ``compression=``):
:meth:`FLMethod.prepare` builds the stateful
:class:`repro.compress.UpdateCompressor` from it, and compressing methods
(the ULDP-AVG/SGD family) apply it strictly post-noise.  Every round
reports the wire bytes it moved in its report's ``comm``.

``round`` accepts an optional
:class:`repro.core.weighting.RoundParticipation` describing which silos
and users take part (the :mod:`repro.sim` runtime's dropout/churn roster).
``participation=None`` is the idealised full-participation setting; every
method canonicalises it to ``RoundParticipation.full(n_silos)`` on the first
line of its round, so there is one round body and full participation is the
roster with everyone in it, bit for bit.  Every round *must* report who
actually contributed in its report's ``participation`` (the zero-silo
round included): the trainer logs it and does not guess, and refuses a
``round`` that returns anything but a :class:`RoundReport`.

The broadcast.  A round hands its silos one array, :meth:`FLMethod.broadcast`:
the global params cast to the dtype the method's local training reads
(:attr:`FLMethod.broadcast_dtype`, a class attribute: float32 for every
engine-trained method, which rounds the params to
:data:`repro.nn.layers.TRAIN_DTYPE` before touching a weight anyway;
float64 for ULDP-GROUP's float64 DP-SGD).  The server's own params stay
float64.  Every carrier -- shard tasks, a ``repro silo``'s ``compute``
frame, the buffered-async scheduler's pulls -- ships that array, and the
comm ledger charges its ``nbytes`` per recipient.

The release.  What a silo sends back is one array of
:attr:`FLMethod.payload_dtype`, a class attribute too: float32 for the
ULDP-AVG family, whose silo rounds its noisy weighted sum once where it
forms it (post-noise post-processing), float64 for the methods that form
their aggregate in process from no payload array (DEFAULT, ULDP-NAIVE,
ULDP-GROUP).  The ledger charges that array's ``nbytes``, and
:meth:`FLMethod.uplink_bytes` prices one silo's uplink -- that dense
array, or its lossy compressed form -- for the bandwidth models and the
cost model.

The contract.  What a runtime may ask of a method is *declared* on
:class:`FLMethod`, never probed for: ``accountant``, ``display_name``,
``broadcast_dtype`` / ``broadcast()``, ``payload_dtype`` /
``uplink_payload_bytes()``,
``timing_report()``, the capabilities
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

from repro.compress.spec import CompressionSpec
from repro.core.engine import (
    EngineConfig,
    LocalJob,
    ShardedEngine,
    draw_minibatch_schedule,
)
from repro.core.weighting import RoundParticipation
from repro.data.federated import FederatedDataset
from repro.nn.layers import TRAIN_DTYPE
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


@dataclass(frozen=True)
class RoundReport:
    """What one round of :meth:`FLMethod.round` returns: the next flat
    params, who contributed and the bytes that moved."""

    params: np.ndarray
    participation: ParticipationSummary
    comm: CommSummary


class FLMethod(ABC):
    """Base class for federated optimisation methods."""

    name: str = "base"
    #: Whether the method consumes privacy budget (False only for DEFAULT).
    is_private: bool = True
    #: Whether :meth:`round` applies lossy update compression itself.
    #: Methods without it still accept an identity spec (byte accounting).
    supports_compression: bool = False
    #: Whether the method has the per-silo step API that the networked
    #: runtime (``silo_payload``, ``contribution_executor``) and the
    #: buffered-async scheduler (``buffered_job``, ``release_buffered``,
    #: ``last_release``; ``user_sample_rate``) drive instead of :meth:`round`.
    has_silo_step: bool = False
    #: The dtype of the round's broadcast (:meth:`broadcast`): what the
    #: method's local training reads of the global params, and no wider.
    broadcast_dtype: np.dtype = TRAIN_DTYPE
    #: The dtype of one silo's dense uplink payload, the array the ledger
    #: charges (:meth:`payload_bytes`).
    payload_dtype: np.dtype = np.dtype(np.float64)

    def __init__(self, compression: CompressionSpec | None = None):
        self.fed: FederatedDataset | None = None
        self.model: Sequential | None = None
        self.rng: np.random.Generator | None = None
        #: The accountant behind :meth:`epsilon` when the budget is one
        #: composed curve (None: DEFAULT spends nothing, ULDP-GROUP keeps
        #: one accountant per silo).
        self.accountant = None  # repro.accounting.PrivacyAccountant
        #: The update-compression recipe (None = dense, no byte ledger
        #: beyond the trainer's dense default).  A trainer-level spec is
        #: passed to :meth:`prepare` instead of overwriting this field.
        self.compression = compression
        #: The spec actually in force after :meth:`prepare` (the trainer's
        #: override when given, else :attr:`compression`).  Kept separate
        #: so a method instance reused across trainers never inherits an
        #: earlier trainer's compression.
        self.active_compression: CompressionSpec | None = compression
        #: Stateful compressor (:class:`repro.compress.UpdateCompressor`),
        #: built by :meth:`prepare` from the spec.
        self.compressor = None
        #: Execution layout of the batched engine ([engine] section),
        #: bound by :meth:`prepare`; the defaults run single-process.
        self.engine_config = EngineConfig()
        #: The sharded executor built from :attr:`engine_config`.  Owns
        #: the worker pool when ``workers > 0``; results are bit-identical
        #: for every (workers, shard_size) setting.
        self.shard_engine = ShardedEngine(self.engine_config)

    def bind(
        self,
        fed: FederatedDataset,
        model: Sequential,
        rng: np.random.Generator,
        engine: EngineConfig | None = None,
    ) -> None:
        """Bind the method to a dataset, a model template and the generator
        the template was drawn from: what every party runs, the server and
        each ``repro silo`` replica alike.  ``engine`` configures the
        sharded execution layout (None keeps the single-process defaults).
        Subclasses add the draws every party makes identically."""
        self.fed = fed
        self.model = model
        self.rng = rng
        if engine not in (None, self.engine_config):
            self.close()
            self.engine_config = engine
            self.shard_engine = ShardedEngine(engine)
        self.shard_engine.bind(fed, model)

    def prepare(
        self,
        fed: FederatedDataset,
        model: Sequential,
        rng: np.random.Generator,
        compression: CompressionSpec | None = None,
        engine: EngineConfig | None = None,
    ) -> None:
        """:meth:`bind`, then build what only the server holds: the
        compressor here, weights and accountants in subclasses.

        A method already bound to these very objects keeps that binding
        (a scenario binds before its trainer prepares:
        :func:`repro.sim.scenarios.bind_scenario`).  ``compression`` is
        the trainer-level override for this binding; it takes precedence
        over the method's own :attr:`compression` without mutating it
        (the effective spec lands in :attr:`active_compression`).
        """
        if not (self.fed is fed and self.model is model and self.rng is rng):
            self.bind(fed, model, rng, engine)
        spec = compression if compression is not None else self.compression
        self.check_compression(spec)
        self.active_compression = spec
        self.compressor = None
        if spec is not None:
            from repro.compress.pipeline import UpdateCompressor

            self.compressor = UpdateCompressor(spec, fed.n_silos, model.num_params)

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
    ) -> RoundReport:
        """Run round ``t`` from flat params; returns its :class:`RoundReport`.

        ``participation`` restricts the round to a subset of silos/users
        (None = everyone: canonicalise it to ``RoundParticipation.full``).
        Weight-based methods (ULDP-AVG/SGD) honour the full roster;
        silo-level methods (DEFAULT, ULDP-NAIVE, ULDP-GROUP) honour
        ``silo_mask`` only and document that ``user_mask`` is ignored.
        The report's ``comm`` comes from :meth:`_log_comm`.
        """

    def epsilon(self, delta: float) -> float | None:
        """Cumulative user-level (eps, delta)-ULDP; None if non-private."""
        return None if self.accountant is None else self.accountant.get_epsilon(delta)

    def uplink_payload_bytes(self) -> int:
        """One silo's per-round uplink wire size (the bandwidth models'
        input): :meth:`uplink_bytes` under the active compression.
        Methods with another wire format override."""
        _, model, _ = self._require_prepared()
        comp = self.compressor
        return self.uplink_bytes(
            None if comp is None else comp.spec, model.num_params)

    def broadcast(self, params: np.ndarray) -> np.ndarray:
        """The round's one broadcast: ``params`` as this method's silos
        read them (:attr:`broadcast_dtype`), the array every carrier
        ships.  A round forms it first, before any silo could have
        fetched the model; its ``nbytes`` is what the ledger charges."""
        return params.astype(self.broadcast_dtype)

    def _log_comm(
        self, participation: RoundParticipation, uplink: int, per_recipient: int
    ) -> CommSummary:
        """The round's :class:`CommSummary`, by the one byte rule of every
        round:
        ``uplink`` bytes up (what the round's contributors sent), and
        ``per_recipient`` bytes down to each silo the broadcast reached
        at round start -- a superset of the contributors when a silo
        fetched the model and then missed the deadline.  A method with no
        payload array (DEFAULT, ULDP-NAIVE, ULDP-GROUP) charges
        ``silos_seen * payload_bytes(P)`` up and its broadcast's
        ``nbytes`` down."""
        return CommSummary(uplink, per_recipient * participation.n_broadcast_silos)

    def _idle_round(
        self, params: np.ndarray, participation: RoundParticipation,
        broadcast: np.ndarray,
    ) -> RoundReport:
        """The report of a round no silo contributed to: the params
        unchanged, nothing up, the broadcast charged to each silo that
        fetched it before failing."""
        return RoundReport(
            params.copy(), ParticipationSummary(0, 0),
            self._log_comm(participation, 0, broadcast.nbytes),
        )

    @classmethod
    def broadcast_bytes(cls, dim: int) -> int:
        """One recipient's dense broadcast of a ``dim``-parameter model:
        the cost model's price for what :meth:`broadcast` hands out."""
        return dim * np.dtype(cls.broadcast_dtype).itemsize

    @classmethod
    def payload_bytes(cls, dim: int) -> int:
        """One silo's dense uplink payload of a ``dim``-parameter model
        (:attr:`payload_dtype`): what the ledger charges per contributor."""
        return dim * np.dtype(cls.payload_dtype).itemsize

    @classmethod
    def uplink_bytes(cls, spec: CompressionSpec | None, dim: int) -> int:
        """One silo's uplink of a ``dim``-parameter model under ``spec``:
        the dense :meth:`payload_bytes` when ``spec`` is None or the
        identity (it changes no payload), else the lossy compressed size
        :meth:`repro.compress.CompressionSpec.payload_bytes`."""
        if spec is None or spec.is_identity:
            return cls.payload_bytes(dim)
        return spec.payload_bytes(dim)

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

    @staticmethod
    def _local_job(rng, x, y, local_epochs: int, batch_size: int | None) -> LocalJob:
        """Package one local dataset for the batched engine.

        Pre-draws the minibatch schedule from ``rng`` so the generator
        advances exactly as a per-job reference ``train_epochs`` call would
        (full-batch jobs draw nothing) -- the invariant that keeps the
        loop oracle's noise draws identical to the engine's.
        """
        schedule = draw_minibatch_schedule(len(x), batch_size, local_epochs, rng)
        return LocalJob(x, y, schedule=schedule)

    @staticmethod
    def _gaussian_noise(rng, std: float, size: int) -> np.ndarray:
        if std == 0.0:
            return np.zeros(size)
        return rng.normal(0.0, std, size=size)

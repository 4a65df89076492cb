"""ULDP-AVG/SGD (Algorithm 3) with optional user-level sub-sampling (Algorithm 4).

The paper prints both variants as one listing and so does this module:
:class:`UldpAvg` is the whole round, and :class:`repro.core.UldpSgd`
changes the one line that produces a user's local vector
(:attr:`UldpAvg.local_kernel`: Q local epochs, or one full-batch gradient).

The paper's main contribution: each silo trains a *per-user* model delta
(Q local epochs on only that user's records), clips it to C, scales it by
the weight w[s, u], sums over users, and adds Gaussian noise with variance
sigma^2 C^2 / |S|.  Since the weights satisfy sum_s w[s, u] <= 1, any single
user moves the cross-silo aggregate by at most C in l2 -- user-level
sensitivity C -- and the summed noise across silos has std sigma * C, so the
aggregate satisfies the Gaussian-mechanism RDP with noise multiplier sigma
(Theorem 3).

Weighting strategies (Section 4.1):

- ``"uniform"``: w = 1/|S| (no data knowledge needed).
- ``"proportional"``: Eq. (3), w[s, u] = n[s, u] / N_u -- the ULDP-AVG-w
  variant.  In deployment the weights are computed by Protocol 1 without
  revealing histograms; the trainer uses them directly (the protocol is
  verified separately to produce identical aggregates).

User-level sub-sampling (``user_sample_rate`` = q): the server Poisson-
samples users each round and zeroes the weights of non-sampled users; the
aggregate is rescaled by 1/q and the accountant applies sub-sampled RDP
amplification (Remark 1).

One product, one fold.  A silo releases exactly one thing per round
(Algorithm 3 line 17): ``payload_s = z_s + sum_u w[s,u] * clip(delta_su)``,
the noise plus the engine's micro-batched binned fold
(:func:`repro.core.engine.fold_clipped_rows`), rounded once in float64 and
once more to float32 (:attr:`UldpAvg.payload_dtype`,
:meth:`UldpAvg._release_payload`): post-noise post-processing, so the
guarantee is untouched, and the rounding error (half a float32 ulp, ~6e-8
of the payload) sits orders of magnitude below the noise just added (std
sigma * C / sqrt(|S|)).  The round aggregate is
``0 + payload_0 + payload_1 + ...`` in float64 over the active silos in
index order (:meth:`UldpAvg._round_aggregate`), and that payload is the
only thing that crosses a process or socket boundary.  It is formed by
the shard pool's tasks or, silo by silo, by :meth:`UldpAvg.silo_payload`
(remote silo processes, :meth:`UldpAvg.buffered_job`) -- the same fold,
the same bits.  Per-user rows exist outside the engine only for
:class:`repro.protocol.SecureUldpAvg`, which multiplies each by an
encrypted weight (:meth:`UldpAvg.silo_round_segment`).

A silo's randomness is its own (line 17: each silo draws ``z_s``): its
minibatch orders and noise for one release come from a generator that is
a pure function of (run, release, silo), made in
:meth:`UldpAvg._draw_silo` only -- no carrier ships generator state, and
no silo's draws depend on which others are active or in what order.
"""

from __future__ import annotations

import numpy as np

from repro.compress.spec import CompressionSpec
from repro.core.engine import (
    clipped_rows,
    fold_clipped_rows,
    make_shard_task,
    plan_shards,
)
from repro.core.methods.base import (
    CommSummary,
    FLMethod,
    ParticipationSummary,
    RoundReport,
)
from repro.core.reduce import BinnedSum
from repro.core.weighting import (
    RoundParticipation,
    participation_weights,
    proportional_weights,
    realised_sensitivity,
    subsample_weights,
    uniform_weights,
    validate_weights,
)
from repro.nn.layers import TRAIN_DTYPE

#: The two key spaces of a silo's generator: a synchronous round, keyed by
#: its index, and a buffered-async job, keyed by the scheduler's job
#: counter.  A *release* is ``(space, key)``.
SYNC_ROUND, ASYNC_JOB = 0, 1


class UldpAvg(FLMethod):
    """The paper's primary method (Algorithm 3, AVG variant).

    ``compression`` (a :class:`repro.compress.CompressionSpec`) compresses
    the wire payloads strictly post-noise: each silo's *noisy* weighted
    delta sum is sparsified/quantized on the uplink (optionally through a
    per-silo error-feedback accumulator), and with ``downlink=True`` the
    server's broadcast update is compressed too.  The accountant sees the
    exact same calls as the uncompressed run -- compression is pure
    post-processing -- and ``CompressionSpec.none()`` reproduces the dense
    trainer bit for bit.
    """

    name = "ULDP-AVG"
    supports_compression = True
    has_silo_step = True
    #: A silo's release is rounded to the dtype its training ran in.
    payload_dtype = TRAIN_DTYPE
    #: The one line of Algorithm 3 the variants differ in, a user's local
    #: vector: ``"delta"`` (after Q local epochs, line 15) or ``"gradient"``
    #: (one negated full-batch gradient, line 22): the ``mode`` of the
    #: engine's kernel dispatch (:func:`repro.core.engine.clipped_rows`).
    local_kernel = "delta"

    def __init__(
        self,
        clip: float = 1.0,
        noise_multiplier: float = 5.0,
        global_lr: float | None = None,
        local_lr: float = 0.05,
        local_epochs: int = 2,
        weighting: str = "uniform",
        user_sample_rate: float | None = None,
        batch_size: int | None = None,
        compression: CompressionSpec | None = None,
    ):
        super().__init__(compression=compression)
        if clip <= 0:
            raise ValueError("clip bound must be positive")
        if noise_multiplier < 0:
            raise ValueError("noise multiplier must be non-negative")
        if local_epochs < 1:
            raise ValueError("need at least one local epoch")
        if weighting not in ("uniform", "proportional"):
            raise ValueError("weighting must be 'uniform' or 'proportional'")
        if user_sample_rate is not None and not 0 < user_sample_rate <= 1:
            raise ValueError("user sample rate must lie in (0, 1]")
        self.clip = clip
        self.noise_multiplier = noise_multiplier
        self.global_lr = global_lr
        self.local_lr = local_lr
        self.local_epochs = local_epochs
        self.weighting = weighting
        self.user_sample_rate = user_sample_rate
        self.batch_size = batch_size
        self.weights: np.ndarray | None = None
        #: ``fed.token()`` at :meth:`prepare`: what this method's
        #: by-reference shard tasks are planned against.
        self._fed_token: tuple | None = None
        #: Seed root of every silo's generator, drawn by :meth:`prepare`.
        self._silo_root: int | None = None
        #: The release :meth:`round` forms: the per-silo step's default.
        self._release: tuple[int, int] = (SYNC_ROUND, 0)
        # Transient per-round participation state read by _round_aggregate:
        # which silos train and how many silos share the noise budget.
        self._active_silo_mask: np.ndarray | None = None
        self._noise_silos: int | None = None
        #: Optional replacement for the in-process payload sources: a
        #: callable ``(broadcast, round_weights, noise_std, active) ->
        #: [(silo, users, payload), ...]`` that has each active silo's
        #: :meth:`silo_payload` computed by a real silo process.  The
        #: networked runtime (:mod:`repro.net`) installs one per round;
        #: None (the default) keeps everything in-process.
        self.contribution_executor = None

    @property
    def display_name(self) -> str:
        return "ULDP-AVG-w" if self.weighting == "proportional" else "ULDP-AVG"

    def bind(self, fed, model, rng, engine=None) -> None:
        super().bind(fed, model, rng, engine)
        self._fed_token = fed.token()
        self._silo_root = int(rng.integers(2**63))

    def prepare(self, fed, model, rng, compression=None, engine=None) -> None:
        from repro.accounting.accountant import PrivacyAccountant

        super().prepare(fed, model, rng, compression=compression, engine=engine)
        if self.weighting == "uniform":
            self.weights = uniform_weights(fed.n_silos, fed.n_users)
        else:
            self.weights = proportional_weights(fed.histogram())
        validate_weights(self.weights)
        if self.accountant is None:  # one budget across rebindings
            self.accountant = PrivacyAccountant()
        if self.global_lr is None:
            # Remark 3: eta_g = |S| * sqrt(|U| * Q) recovers the DP-FedAVG
            # noise scaling after the server's 1/(|U||S|) averaging.
            self.global_lr = float(
                fed.n_silos * np.sqrt(fed.n_users * self.local_epochs)
            )

    def round(
        self,
        t: int,
        params: np.ndarray,
        participation: RoundParticipation | None = None,
    ) -> RoundReport:
        fed, _, rng = self._require_prepared()
        assert self.weights is not None
        self._release = (SYNC_ROUND, t)
        q = self.user_sample_rate
        rate = 1.0 if q is None else q
        if participation is None:
            # The paper's idealised setting is the roster with everyone in
            # it: same weights bit for bit, sensitivity and noise scale 1.
            participation = RoundParticipation.full(fed.n_silos)
        broadcast = self.broadcast(params)
        active = participation.n_active_silos
        if active == 0:
            # Every silo is down: the round releases nothing and costs no
            # budget (logged so the honesty report sees the gap).  Silos
            # that fetched the model before failing still consumed
            # broadcast bytes (there is no update to compress).
            self.accountant.step_release(
                self.noise_multiplier, rate, sensitivity=0.0, noise_scale=0.0
            )
            return self._idle_round(params, participation, broadcast)
        base_weights = participation_weights(self.weights, participation)
        sensitivity = realised_sensitivity(base_weights)
        self._active_silo_mask = participation.silo_mask
        if participation.noise_rescale:
            self._noise_silos = active
            noise_scale = 1.0
        else:
            self._noise_silos = fed.n_silos
            noise_scale = float(np.sqrt(active / fed.n_silos))

        if q is not None:
            sampled = np.where(rng.random(fed.n_users) < q)[0]
            round_weights = subsample_weights(base_weights, sampled)
        else:
            round_weights = base_weights

        try:
            aggregate, users_seen, uplink = self._round_aggregate(
                broadcast, round_weights
            )
        finally:
            self._active_silo_mask = None
            self._noise_silos = None

        self.accountant.step_release(
            self.noise_multiplier, rate, sensitivity=sensitivity,
            noise_scale=noise_scale,
        )
        update = self._server_update(aggregate, fed.n_users * fed.n_silos * rate)
        comp = self.compressor
        if comp is not None and comp.spec.downlink and not comp.spec.is_identity:
            sent = comp.compress_downlink(update)
            update = sent.dense
            downlink_per_silo = sent.nbytes
        else:
            downlink_per_silo = broadcast.nbytes
        return RoundReport(
            params + update,
            ParticipationSummary(silos_seen=active, users_seen=len(users_seen)),
            self._log_comm(participation, uplink, downlink_per_silo),
        )

    def _round_aggregate(
        self, broadcast: np.ndarray, round_weights: np.ndarray
    ) -> tuple[np.ndarray, set[int], int]:
        """The round's one sum: ``0 + payload_0 + payload_1 + ...`` over the
        active silos in silo-index order, each payload being Algorithm 3
        line 17's noisy weighted sum -- the only thing a silo releases --
        and first through the uplink compressor when a lossy one is active
        (strictly post-noise, per-silo error feedback).  Every silo trains
        from ``broadcast``, the round's :meth:`broadcast`.

        The ``(silo, users, payload)`` triples come from the shard pool
        (:meth:`_shard_payloads`) or, when one is installed, from remote
        silos behind the :attr:`contribution_executor`: the same bits.
        Summing plaintext payloads simulates secure aggregation (only the
        sum is used);
        :class:`repro.protocol.SecureUldpAvg` overrides this hook with the
        real cryptographic Protocol 1 and is tested to produce the same
        result within fixed-point precision (Theorem 4).

        Returns ``(aggregate, users_seen, uplink_bytes)``.
        """
        source = self.contribution_executor
        if source is None:
            source = self._shard_payloads
        comp = self.compressor
        if comp is not None and comp.spec.is_identity:
            comp = None
        aggregate = np.zeros(broadcast.size)
        users_seen: set[int] = set()
        uplink = 0
        for s, users, payload in source(
            broadcast, round_weights, self._noise_std(), self._active_silos()
        ):
            nbytes = payload.nbytes
            if comp is not None:
                sent = comp.compress_uplink(s, payload)
                payload, nbytes = sent.dense, sent.nbytes
            aggregate += payload
            users_seen.update(users)
            uplink += nbytes
        return aggregate, users_seen, uplink

    def _active_silos(self) -> list[int]:
        """This round's contributing silos, in index order.  Dropped silos
        train nothing, draw no noise and send no payload."""
        fed, _, _ = self._require_prepared()
        mask = self._active_silo_mask
        return [s for s in range(fed.n_silos) if mask is None or mask[s]]

    def _noise_std(self, shares: int | None = None) -> float:
        """Per-payload noise std sqrt(sigma^2 C^2 / A) where A is ``shares``
        (default: the noise-contributing silos, all of them outside the
        simulation): summing A payloads yields aggregate noise std sigma *
        C, matching the user-level sensitivity C at noise multiplier sigma."""
        fed, _, _ = self._require_prepared()
        if shares is None:
            shares = self._noise_silos if self._noise_silos is not None else fed.n_silos
        return float(self.noise_multiplier * self.clip / np.sqrt(shares))

    def _draw_silo(
        self, s: int, weight_row: np.ndarray, noise_std: float, size: int, release=None
    ) -> tuple[list[int], list, np.ndarray]:
        """Everything silo ``s`` draws for one release (default: the
        round in progress), from the silo's own generator
        ``default_rng([root, space, key, s])``: the minibatch schedules of
        the users with non-zero weight (Algorithm 4's visibility model:
        the others are skipped), then the silo's noise vector.  Training
        itself draws nothing, so this fixes a silo's randomness whatever
        runs its jobs, whichever silos are active, in whatever order.

        Returns ``(users, jobs, noise)``.
        """
        fed, _, _ = self._require_prepared()
        space, key = self._release if release is None else release
        rng = np.random.default_rng([self._silo_root, space, key, s])
        silo = fed.silos[s]
        users = [int(u) for u in silo.users_present() if weight_row[u] != 0.0]
        jobs = [
            self._local_job(
                rng, *silo.records_of_user(u), self.local_epochs, self.batch_size
            )
            for u in users
        ]
        return users, jobs, self._gaussian_noise(rng, noise_std, size)

    def _shard_payloads(
        self,
        params: np.ndarray,
        round_weights: np.ndarray,
        noise_std: float,
        active: list[int],
    ) -> list[tuple[int, list[int], np.ndarray]]:
        """Each active silo's payload through the sharded engine, the
        per-user matrix never materialised.

        Each silo's participating users are planned into
        micro-batch-aligned shards (:func:`repro.core.engine.plan_shards`);
        a shard task names its jobs -- silo, user ids, their pre-drawn
        schedules (:func:`repro.core.engine.resident_jobs`) -- folds its
        clipped weighted rows into a binned partial sum, and only the
        ``(bins, P)`` states stream back, where an exact tree-reduce
        combines each silo's own.  Every silo's draws
        (:meth:`_draw_silo`) happen here in the parent before any shard
        executes, so they are invariant to ``workers``/``shard_size``.
        """
        fed, _, _ = self._require_prepared()
        engine = self.shard_engine
        shard_size = engine.config.aligned_shard_size
        scale = engine.scale(self.clip)
        tasks: list[dict] = []
        drawn: list[tuple[int, list[int], np.ndarray]] = []
        for s in active:
            users, jobs, noise = self._draw_silo(
                s, round_weights[s], noise_std, params.size
            )
            drawn.append((s, users, noise))
            weights = round_weights[s, users]
            schedules = [job.schedule for job in jobs]
            full_batch = all(schedule is None for schedule in schedules)
            for a, b in plan_shards(len(jobs), shard_size):
                # The records and the template stay where the engine's
                # processes already hold them: the task names them.
                reference = {
                    "token": self._fed_token,
                    "silo": s,
                    "users": np.array(users[a:b], dtype=np.int64),
                    "schedules": None if full_batch else schedules[a:b],
                }
                tasks.append(
                    make_shard_task(
                        mode=self.local_kernel,
                        model=None,
                        task=fed.task,
                        params=params,
                        jobs=reference,
                        weights=weights[a:b],
                        clip=self.clip,
                        scale=scale,
                        silo=s,
                        shard=len(tasks),
                        lr=self.local_lr,
                        epochs=self.local_epochs,
                        backend=engine.config.backend,
                    )
                )

        shards: dict[int, list[dict]] = {}
        for result in engine.run_tasks(tasks):
            shards.setdefault(result["silo"], []).append(result)
        return [
            (s, users, self._release_payload(
                noise, engine.reduce(shards[s]) if s in shards else None))
            for s, users, noise in drawn
        ]

    def _release_payload(
        self, noise: np.ndarray, fold: BinnedSum | None
    ) -> np.ndarray:
        """A silo's one release from its noise and its binned fold
        (None: no user trained): ``noise + fold.total()``, rounded to
        :attr:`payload_dtype` -- the array every carrier ships and the
        ledger charges.  The rounding follows the noise, so it is
        post-processing of the Gaussian mechanism's output."""
        total = noise if fold is None else noise + fold.total()
        return total.astype(self.payload_dtype)

    # -- per-silo step API (remote silos, buffered-async simulation) ----------

    def silo_payload(
        self,
        s: int,
        params: np.ndarray,
        weight_row: np.ndarray,
        noise_std: float,
        *,
        release: tuple[int, int] | None = None,
    ) -> tuple[list[int], np.ndarray]:
        """Everything silo ``s`` releases in one round (Algorithm 3 line
        17): ``sum_u weight_row[u] * clip(delta_su) + z_s``, trained from
        ``params`` -- the :meth:`broadcast` a silo was handed (the
        result is the same from the float64 params it was cast from).

        A ``repro silo`` process runs this for ``release=(SYNC_ROUND, t)``,
        ``t`` being its ``compute`` frame's round, and ships the result;
        :meth:`buffered_job` runs it for ``(ASYNC_JOB, job)`` with whatever
        params the silo last pulled.  ``release`` defaults to the round
        this method is in (:meth:`_draw_silo`).  ``weight_row`` is silo
        s's row of the realised round weights; users with zero weight are
        skipped.

        The sum is the shard tasks' fold
        (:func:`repro.core.engine.fold_clipped_rows`), rounded by the same
        :meth:`_release_payload`, so the same bits.

        Returns ``(users, payload)``: the contributing user ids (the
        server's participation and sensitivity bookkeeping) and the noisy
        ``(P,)`` sum as :attr:`payload_dtype` -- never a per-user row,
        never an un-noised sum.
        """
        fed, model, _ = self._require_prepared()
        users, jobs, noise = self._draw_silo(
            s, weight_row, noise_std, params.size, release)
        if not users:
            return users, self._release_payload(noise, None)
        engine = self.shard_engine
        acc = BinnedSum(params.size, engine.scale(self.clip))
        fold_clipped_rows(
            acc, self.local_kernel, model, fed.task, params, jobs,
            weight_row[users], self.clip, engine.config.backend,
            self.local_lr, self.local_epochs,
        )
        return users, self._release_payload(noise, acc)

    def silo_round_segment(
        self,
        s: int,
        params: np.ndarray,
        weight_row: np.ndarray,
        noise_std: float,
        *,
        release: tuple[int, int] | None = None,
    ) -> tuple[list[int], np.ndarray, np.ndarray]:
        """:meth:`silo_payload` before the fold: silo ``s``'s per-user rows
        and its noise, kept apart.

        Only Protocol 1 needs this (:class:`repro.protocol.SecureUldpAvg`
        multiplies each user's delta by an *encrypted* weight), and only
        inside one process: rows never cross a boundary.

        Returns ``(users, rows, noise)``: the contributing user ids,
        their clipped delta rows (``(len(users), P)``, safe to keep), and
        the silo's Gaussian noise vector.
        """
        fed, model, _ = self._require_prepared()
        users, jobs, noise = self._draw_silo(
            s, weight_row, noise_std, params.size, release)
        rows = clipped_rows(
            self.local_kernel, model, fed.task, params, jobs, self.clip,
            self.local_lr, self.local_epochs,
        )
        return users, rows.copy(), noise  # the engine's row block is reused

    # -- buffered-async release (the scheduler's jobs and merges) -------------

    def buffered_job(
        self, s: int, broadcast: np.ndarray, seq: int,
        user_mask: np.ndarray | None, buffer_size: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Silo ``s``'s async job ``seq``: its :meth:`silo_payload` for
        ``(ASYNC_JOB, seq)`` with departed users (``~user_mask``) weighted
        0, at noise std ``sigma * C / sqrt(buffer_size)`` (a full buffer
        carries sigma * C).  Returns ``(users, weights, payload)``."""
        assert self.weights is not None
        weight_row = self.weights[s].copy()
        if user_mask is not None:
            weight_row[~user_mask] = 0.0
        users, payload = self.silo_payload(
            s, broadcast, weight_row, self._noise_std(buffer_size),
            release=(ASYNC_JOB, seq))
        users = np.array(users, dtype=np.int64)
        return users, weight_row[users], payload

    def release_buffered(
        self, params: np.ndarray, buffer, discounts: np.ndarray, comm: CommSummary
    ) -> RoundReport:
        """One buffered-async release of the :meth:`buffered_job` results
        in ``buffer`` (each with its ``silo``, ``users``, ``weights`` and
        ``payload``), staleness-discounted by ``discounts``.

        The aggregate is ``0 + d_0 * payload_0 + d_1 * payload_1 + ...`` in
        float64.  A user in several payloads is charged the sum of their
        ``d * w`` (Theorem 3's weight constraint, realised); K payloads of
        noise std ``sigma * C / sqrt(K)`` sum to std ``sigma * C *
        sqrt(mean(d^2))``.  The server step divides by ``|U|`` times the
        merged payloads.
        """
        fed, _, _ = self._require_prepared()
        aggregate = np.zeros_like(params)
        charged: dict[int, float] = {}
        for d, update in zip(discounts, buffer):
            aggregate += d * update.payload.astype(np.float64)
            for user, w in zip(update.users, update.weights):
                charged[int(user)] = charged.get(int(user), 0.0) + d * float(w)
        self.accountant.step_release(
            self.noise_multiplier, sensitivity=max(charged.values(), default=0.0),
            noise_scale=float(np.sqrt(np.mean(discounts**2))))
        update = self._server_update(aggregate, fed.n_users * max(len(buffer), 1))
        silos = len({u.silo for u in buffer})
        return RoundReport(
            params + update, ParticipationSummary(silos, len(charged)), comm)

    @property
    def last_release(self):
        """The accountant's record of the latest release (a ReleaseEvent)."""
        return self.accountant.releases[-1]

    def _server_update(self, aggregate: np.ndarray, divisor: float) -> np.ndarray:
        """``eta_g * aggregate / divisor`` (``|U| |S| q`` for a round)."""
        assert self.global_lr is not None
        return self.global_lr * aggregate / divisor

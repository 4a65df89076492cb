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

One product, three carriers.  A silo releases exactly one thing per round
(Algorithm 3 line 17): ``payload_s = z_s + sum_u w[s,u] * clip(delta_su)``,
the noise plus one micro-batched binned fold, rounded once.  The round
aggregate is ``0 + payload_0 + payload_1 + ...`` over the active silos in
index order (:meth:`UldpAvg._round_aggregate`), and that payload is the
only thing that crosses a process or socket boundary.  It is formed by
the shard pool, by an in-process walk over the silos, or by remote silo
processes running :meth:`UldpAvg.silo_payload` -- the same bits each
time.  Per-user rows exist outside the engine only for
:class:`repro.protocol.SecureUldpAvg`, which multiplies each by an
encrypted weight (:meth:`UldpAvg.silo_round_segment`).
"""

from __future__ import annotations

import numpy as np

from repro.accounting import PrivacyAccountant
from repro.compress import CompressionSpec
from repro.core.engine import (
    batched_clipped_gradients,
    batched_clipped_local_deltas,
    fold_weighted_rows,
    make_shard_task,
    plan_shards,
)
from repro.core.methods.base import CommSummary, FLMethod, ParticipationSummary
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
    #: The one line of Algorithm 3 the variants differ in, a user's local
    #: vector: ``"delta"`` (after Q local epochs, line 15) or ``"gradient"``
    #: (one negated full-batch gradient, line 22).  Read by the per-silo
    #: step and, as ``make_shard_task(mode=)``, by the shard pool.
    local_kernel = "delta"
    #: Whether the in-process round plans each silo's jobs into shard tasks
    #: for the engine (and its worker pool) or walks :meth:`_silo_step`
    #: silo by silo.  Both form the same payloads bit for bit; the loop
    #: oracle, which replaces :meth:`_silo_step`, sets this False.
    streaming_aggregation = True

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
        record_clip_stats: bool = False,
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
        self.record_clip_stats = record_clip_stats
        self.weights: np.ndarray | None = None
        #: ``fed.token()`` at :meth:`prepare`: what this method's
        #: by-reference shard tasks are planned against.
        self._fed_token: tuple | None = None
        self.accountant = PrivacyAccountant()
        #: Per-round clipping factors (the alpha of Remark 4), populated
        #: only when record_clip_stats is set; used by the ablation bench.
        self.clip_factor_history: list[np.ndarray] = []
        # Transient per-round participation state read by _round_aggregate:
        # which silos train and how many silos share the noise budget.
        self._active_silo_mask: np.ndarray | None = None
        self._noise_silos: int | None = None
        #: Optional replacement for the in-process payload sources: a
        #: callable ``(params, round_weights, noise_std, active) ->
        #: [(silo, users, payload), ...]`` that has each active silo's
        #: :meth:`silo_payload` computed by a real silo process.  The
        #: networked runtime (:mod:`repro.net`) installs one per round;
        #: None (the default) keeps everything in-process.  Remote silos
        #: report no clip factors: ``record_clip_stats`` skips such rounds.
        self.contribution_executor = None

    @property
    def display_name(self) -> str:
        return "ULDP-AVG-w" if self.weighting == "proportional" else "ULDP-AVG"

    def prepare(self, fed, model, rng, compression=None, engine=None) -> None:
        super().prepare(fed, model, rng, compression=compression, engine=engine)
        if self.weighting == "uniform":
            self.weights = uniform_weights(fed.n_silos, fed.n_users)
        else:
            self.weights = proportional_weights(fed.histogram())
        validate_weights(self.weights)
        self._fed_token = fed.token()
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
    ) -> np.ndarray:
        fed, _, rng = self._require_prepared()
        assert self.weights is not None
        q = self.user_sample_rate
        rate = 1.0 if q is None else q
        if participation is None:
            # The paper's idealised setting is the roster with everyone in
            # it: same weights bit for bit, sensitivity and noise scale 1.
            participation = RoundParticipation.full(fed.n_silos)
        active = participation.n_active_silos
        if active == 0:
            # Every silo is down: the round releases nothing and costs no
            # budget (logged so the honesty report sees the gap).  Silos
            # that fetched the model before failing still consumed
            # broadcast bytes (dense: there is no update to compress).
            self.last_participation = ParticipationSummary(0, 0)
            self.last_comm = CommSummary(
                0, params.size * 8 * participation.n_broadcast_silos
            )
            self.accountant.step_release(
                self.noise_multiplier, rate, sensitivity=0.0, noise_scale=0.0
            )
            return params.copy()
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
                params, round_weights
            )
        finally:
            self._active_silo_mask = None
            self._noise_silos = None

        self.last_participation = ParticipationSummary(
            silos_seen=active, users_seen=len(users_seen)
        )
        self.accountant.step_release(
            self.noise_multiplier, rate, sensitivity=sensitivity,
            noise_scale=noise_scale,
        )
        scale = fed.n_users * fed.n_silos * rate
        assert self.global_lr is not None
        update = self.global_lr * aggregate / scale
        comp = self.compressor
        if comp is not None and comp.spec.downlink and not comp.spec.is_identity:
            broadcast = comp.compress_downlink(update)
            update = broadcast.dense
            downlink_per_silo = broadcast.nbytes
        else:
            downlink_per_silo = params.size * 8
        # Downlink recipients are the silos that fetched the broadcast at
        # round start -- a superset of the contributors when deadline or
        # bandwidth filtering bit after the download.
        self.last_comm = CommSummary(
            uplink, downlink_per_silo * participation.n_broadcast_silos
        )
        return params + update

    def _round_aggregate(
        self, params: np.ndarray, round_weights: np.ndarray
    ) -> tuple[np.ndarray, set[int], int]:
        """The round's one sum: ``0 + payload_0 + payload_1 + ...`` over the
        active silos in silo-index order, each payload being Algorithm 3
        line 17's noisy weighted sum -- the only thing a silo releases --
        and first through the uplink compressor when a lossy one is active
        (strictly post-noise, per-silo error feedback).

        The ``(silo, users, payload)`` triples come from one of three
        carriers that produce the same bits: the shard pool
        (:meth:`_shard_payloads`), the in-process walk
        (:meth:`_walk_payloads`), or remote silos behind the
        :attr:`contribution_executor`.  Summing plaintext payloads
        simulates secure aggregation (only the sum is used);
        :class:`repro.protocol.SecureUldpAvg` overrides this hook with the
        real cryptographic Protocol 1 and is tested to produce the same
        result within fixed-point precision (Theorem 4).

        Returns ``(aggregate, users_seen, uplink_bytes)``.
        """
        if self.contribution_executor is not None:
            source = self.contribution_executor
        elif self.streaming_aggregation:
            source = self._shard_payloads
        else:
            source = self._walk_payloads
        comp = self.compressor
        if comp is not None and comp.spec.is_identity:
            comp = None
        aggregate = np.zeros(params.size)
        users_seen: set[int] = set()
        uplink = 0
        for s, users, payload in source(
            params, round_weights, self._noise_std(), self._active_silos()
        ):
            nbytes = payload.size * 8
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

    def _noise_std(self) -> float:
        """Per-silo noise std sqrt(sigma^2 C^2 / A) where A is the number
        of noise-contributing silos (all of them outside the simulation):
        summing A silo contributions yields aggregate noise std sigma * C,
        matching the user-level sensitivity C at noise multiplier sigma."""
        fed, _, _ = self._require_prepared()
        noise_silos = (
            self._noise_silos if self._noise_silos is not None else fed.n_silos
        )
        return float(self.noise_multiplier * self.clip / np.sqrt(noise_silos))

    def _draw_silo(
        self, s: int, weight_row: np.ndarray, noise_std: float, size: int
    ) -> tuple[list[int], list, np.ndarray]:
        """Everything silo ``s``'s step draws from the shared RNG, in the
        one order every path keeps: the minibatch schedules of the users
        with non-zero weight (Algorithm 4's visibility model: the others
        are skipped), then the silo's noise vector.  Training itself draws
        nothing, so this fixes the random stream whatever runs the jobs.

        Returns ``(users, jobs, noise)``.
        """
        fed, _, _ = self._require_prepared()
        silo = fed.silos[s]
        users = [int(u) for u in silo.users_present() if weight_row[u] != 0.0]
        jobs = [
            self._local_job(
                *silo.records_of_user(u), self.local_epochs, self.batch_size
            )
            for u in users
        ]
        return users, jobs, self._gaussian_noise(noise_std, size)

    def _silo_step(
        self, s: int, params: np.ndarray, weight_row: np.ndarray, noise_std: float
    ) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
        """Algorithm 3's per-silo step with the rows kept: each present
        user's local vector -- :attr:`local_kernel`: the delta trained from
        ``params``, or one negated gradient at it -- clipped to C (line 16
        before the w multiplication), plus the silo's noise.

        The in-process walk, a remote silo process, the buffered-async
        scheduler (all through :meth:`silo_payload` or its body) and
        Protocol 1's row view (:meth:`silo_round_segment`) run exactly this
        -- one batched engine call over the silo's own job list.  BLAS
        reductions depend on batch composition at the ULP level, so
        batching per silo (never across silos), in the shard tasks'
        micro-batches, is what makes every carrier bit-identical.

        Returns ``(users, rows, factors, noise)``; ``rows`` is the
        engine's workspace row block, valid only until the next engine call.
        """
        fed, model, _ = self._require_prepared()
        users, jobs, noise = self._draw_silo(s, weight_row, noise_std, params.size)
        if self.local_kernel == "gradient":
            rows, factors = batched_clipped_gradients(
                model, fed.task, params, jobs, self.clip
            )
        else:
            rows, factors = batched_clipped_local_deltas(
                model, fed.task, params, jobs,
                self.local_lr, self.local_epochs, self.clip,
            )
        return users, rows, factors, noise

    def _noisy_sum(
        self, noise: np.ndarray, weights: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """``noise + sum_u weights[u] * rows[u]`` through the engine's
        micro-batched binned fold: the same chunk compositions and the
        same exact reduction a shard task applies, one rounding per silo."""
        if not len(rows):
            return noise
        acc = BinnedSum(noise.size, self.shard_engine.scale(self.clip))
        fold_weighted_rows(acc, weights, rows, self.shard_engine.backend)
        return noise + acc.total()

    def _walk_payloads(
        self,
        params: np.ndarray,
        round_weights: np.ndarray,
        noise_std: float,
        active: list[int],
    ) -> list[tuple[int, list[int], np.ndarray]]:
        """Each active silo's payload from :meth:`_silo_step`, one silo at
        a time in this process."""
        fed, _, _ = self._require_prepared()
        factors = np.full((fed.n_silos, fed.n_users), np.nan)
        payloads = []
        for s in active:
            users, rows, silo_factors, noise = self._silo_step(
                s, params, round_weights[s], noise_std
            )
            factors[s, users] = silo_factors
            payloads.append(
                (s, users, self._noisy_sum(noise, round_weights[s, users], rows))
            )
        if self.record_clip_stats:
            self.clip_factor_history.append(factors)
        return payloads

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
        executes, so the random stream is invariant to
        ``workers``/``shard_size``.
        """
        fed, _, _ = self._require_prepared()
        engine = self.shard_engine
        shard_size = engine.config.aligned_shard_size
        scale = engine.scale(self.clip)
        tasks: list[dict] = []
        task_users: list[list[int]] = []
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
                    "loader": "repro.core.engine:resident_jobs",
                    "spec": {
                        "token": self._fed_token,
                        "silo": s,
                        "users": np.array(users[a:b], dtype=np.int64),
                        "schedules": None if full_batch else schedules[a:b],
                    },
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
                task_users.append(users[a:b])

        results = engine.run_tasks(tasks)
        if self.record_clip_stats:
            factors = np.full((fed.n_silos, fed.n_users), np.nan)
            for result, shard_users in zip(results, task_users):
                factors[result["silo"], shard_users] = result["factors"]
            self.clip_factor_history.append(factors)

        shards: dict[int, list[dict]] = {}
        for result in results:
            shards.setdefault(result["silo"], []).append(result)
        payloads = []
        for s, users, noise in drawn:
            if s in shards:
                noise = noise + engine.reduce(shards[s]).total()
            payloads.append((s, users, noise))
        return payloads

    # -- per-silo step API (remote silos, buffered-async simulation) ----------

    def silo_payload(
        self,
        s: int,
        params: np.ndarray,
        weight_row: np.ndarray,
        noise_std: float,
    ) -> tuple[list[int], np.ndarray]:
        """Everything silo ``s`` releases in one round (Algorithm 3 line
        17): ``sum_u weight_row[u] * clip(delta_su) + z_s``, trained from
        ``params``.

        A ``repro silo`` process runs this after restoring the server's
        chained RNG state and ships the result; the buffered-async
        scheduler calls it with whatever params the silo last pulled and a
        ``noise_std`` of its own choosing.  ``weight_row`` is silo s's row
        of the realised round weights; users with zero weight are skipped.

        Returns ``(users, payload)``: the contributing user ids (the
        server's participation and sensitivity bookkeeping) and the noisy
        ``(P,)`` sum -- never a per-user row, never an un-noised sum.
        """
        users, rows, _, noise = self._silo_step(s, params, weight_row, noise_std)
        return users, self._noisy_sum(noise, weight_row[users], rows)

    def silo_round_segment(
        self,
        s: int,
        params: np.ndarray,
        weight_row: np.ndarray,
        noise_std: float,
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
        users, rows, _, noise = self._silo_step(s, params, weight_row, noise_std)
        return users, rows.copy(), noise  # the engine's row block is reused

    def apply_aggregate(
        self, params: np.ndarray, aggregate: np.ndarray, n_updates: int
    ) -> np.ndarray:
        """Server update for an externally-merged aggregate (async policies).

        Mirrors the synchronous server line ``x + eta_g * agg / (|U||S|)``
        with the silo count replaced by the number of merged silo updates.
        """
        fed, _, _ = self._require_prepared()
        assert self.global_lr is not None
        scale = fed.n_users * max(n_updates, 1)
        return params + self.global_lr * aggregate / scale

"""ULDP-AVG (Algorithm 3) with optional user-level sub-sampling (Algorithm 4).

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
"""

from __future__ import annotations

import numpy as np

from repro.accounting import PrivacyAccountant
from repro.compress import CompressionSpec
from repro.core.engine import (
    batched_clipped_local_deltas,
    fold_weighted_rows,
    make_shard_task,
    plan_shards,
)
from repro.core.methods.base import CommSummary, FLMethod, ParticipationSummary
from repro.core.reduce import BinnedSum, tree_reduce
from repro.core.weighting import (
    RoundParticipation,
    participation_weights,
    proportional_weights,
    realised_sensitivity,
    subsample_weights,
    uniform_weights,
    validate_weights,
)


class _RoundContributions(list):
    """Per-silo ``{user: clipped delta}`` dicts plus their stacked rows.

    ``matrix`` holds every clipped delta of the round as one ``(K, P)``
    array in ``(silo, user)`` order; the dict values are row views into
    it.  The plaintext aggregation folds each silo's consecutive slice
    (:meth:`silo_blocks`) without re-stacking, while consumers of the
    list interface -- :class:`repro.protocol.SecureUldpAvg` encrypts each
    user's delta -- see ordinary dicts.
    """

    def __init__(
        self, segments: list[tuple[list[int], np.ndarray] | None], size: int
    ):
        """``segments[s]`` is silo s's ``(users, rows)``, or None when it
        sat the round out (an empty dict keeps silo indices aligned)."""
        super().__init__()
        blocks = [seg[1] for seg in segments if seg is not None]
        self.matrix = (
            np.concatenate(blocks, axis=0) if blocks else np.zeros((0, size))
        )
        row = 0
        for seg in segments:
            users = [] if seg is None else seg[0]
            self.append({u: self.matrix[row + i] for i, u in enumerate(users)})
            row += len(users)

    def silo_blocks(self):
        """Yield ``(silo, users, rows)`` with ``rows`` that silo's slice."""
        row = 0
        for s, per_user in enumerate(self):
            yield s, list(per_user), self.matrix[row : row + len(per_user)]
            row += len(per_user)


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
    #: Whether :meth:`round` may stream shard partial sums instead of
    #: materialising per-user rows.  Subclasses that must see each user's
    #: clipped delta (:class:`repro.protocol.SecureUldpAvg` encrypts them
    #: individually) set this False and keep the row-materialising path.
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
        self.accountant = PrivacyAccountant()
        #: Per-round clipping factors (the alpha of Remark 4), populated
        #: only when record_clip_stats is set; used by the ablation bench.
        self.clip_factor_history: list[np.ndarray] = []
        # Transient per-round participation state read by
        # _compute_contributions (kept as attributes so the SecureUldpAvg
        # subclass's override keeps its signature): which silos train and
        # how many silos share the noise budget.
        self._active_silo_mask: np.ndarray | None = None
        self._noise_silos: int | None = None
        # Set by _aggregate (and the SecureUldpAvg override): uplink wire
        # bytes of the round just aggregated.
        self._round_uplink_bytes: int | None = None
        #: Optional replacement for the in-process silo walk: a callable
        #: ``(params, round_weights, noise_std, active_mask) ->
        #: (contributions, noises)`` that farms each silo's
        #: :meth:`silo_round_segment` out to a real silo process.  The
        #: networked runtime (:mod:`repro.net`) installs one per round;
        #: None (the default) keeps everything in-process.
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

        if participation is None:
            base_weights = self.weights
            sensitivity, noise_scale = 1.0, 1.0
        else:
            active = participation.n_active_silos
            if active == 0:
                # Every silo is down: the round releases nothing and costs
                # no budget (logged so the honesty report sees the gap).
                # Silos that fetched the model before failing to
                # contribute still consumed broadcast bytes (dense: there
                # is no update to compress).
                self.last_participation = ParticipationSummary(0, 0)
                self.last_comm = CommSummary(
                    0, params.size * 8 * participation.n_broadcast_silos
                )
                self.accountant.step_release(
                    self.noise_multiplier, sample_rate=q if q else 1.0,
                    sensitivity=0.0, noise_scale=0.0,
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
            if self._streaming_applies():
                aggregate, users_seen = self._round_streamed(params, round_weights)
            else:
                contributions, noises = self._compute_contributions(
                    params, round_weights
                )
                aggregate = self._aggregate(t, contributions, noises, round_weights)
                users_seen = {u for per_user in contributions for u in per_user}
        finally:
            self._active_silo_mask = None
            self._noise_silos = None

        self.last_participation = ParticipationSummary(
            silos_seen=fed.n_silos if participation is None
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
        update = self.global_lr * aggregate / scale
        silos_seen = self.last_participation.silos_seen
        comp = self.compressor
        if comp is not None and comp.spec.downlink and not comp.spec.is_identity:
            broadcast = comp.compress_downlink(update)
            update = broadcast.dense
            downlink_per_silo = broadcast.nbytes
        else:
            downlink_per_silo = params.size * 8
        uplink = (
            self._round_uplink_bytes
            if self._round_uplink_bytes is not None
            else silos_seen * params.size * 8
        )
        # Downlink recipients are the silos that fetched the broadcast at
        # round start -- a superset of the contributors when deadline or
        # bandwidth filtering bit after the download.
        recipients = (
            fed.n_silos if participation is None else participation.n_broadcast_silos
        )
        self.last_comm = CommSummary(uplink, downlink_per_silo * recipients)
        self._round_uplink_bytes = None
        return params + update

    def _streaming_applies(self) -> bool:
        """Whether this round streams shard partials (the default) or
        materialises per-user rows: a subclass needs the rows
        (:attr:`streaming_aggregation`), or a :attr:`contribution_executor`
        delivers them silo by silo.  :meth:`_aggregate` applies the same
        binned fold to the rows, so the two paths agree bit for bit."""
        return self.streaming_aggregation and self.contribution_executor is None

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
        user's delta trained from ``params`` and clipped to C (line 16
        before the w multiplication), plus the silo's noise.

        The in-process materialised round, a remote silo process and the
        buffered-async payload all run exactly this -- one batched engine
        call over the silo's own job list.  BLAS reductions depend on batch
        composition at the ULP level, so batching per silo (never across
        silos) is what makes the three bit-identical.

        Returns ``(users, rows, factors, noise)``; ``rows`` is a pooled
        engine buffer, valid only until the next engine call.
        """
        fed, model, _ = self._require_prepared()
        users, jobs, noise = self._draw_silo(s, weight_row, noise_std, params.size)
        rows, factors = batched_clipped_local_deltas(
            model, fed.task, params, jobs,
            self.local_lr, self.local_epochs, self.clip,
        )
        return users, rows, factors, noise

    def _round_streamed(
        self, params: np.ndarray, round_weights: np.ndarray
    ) -> tuple[np.ndarray, set[int]]:
        """One round through the sharded streaming path (Algorithm 3 with
        the per-user matrix never materialised).

        Each active silo's participating users are planned into
        micro-batch-aligned shards (:func:`repro.core.engine.plan_shards`);
        every shard task folds its clipped weighted rows into a binned
        partial sum and only the ``(bins, P)`` states stream back, where
        an exact tree-reduce combines them.  Each active silo's draws
        (:meth:`_draw_silo`) happen here in the parent before any shard
        executes, so the random stream is invariant to
        ``workers``/``shard_size``.
        """
        fed, model, _ = self._require_prepared()
        noise_std = self._noise_std()
        engine = self.shard_engine
        shard_size = engine.config.aligned_shard_size
        scale = engine.scale(self.clip)
        tasks: list[dict] = []
        task_users: list[list[int]] = []
        noises: list[np.ndarray] = []
        active_silos: list[int] = []
        users_seen: set[int] = set()
        for s in range(fed.n_silos):
            if self._active_silo_mask is not None and not self._active_silo_mask[s]:
                continue
            users, jobs, noise = self._draw_silo(
                s, round_weights[s], noise_std, params.size
            )
            noises.append(noise)
            active_silos.append(s)
            users_seen.update(users)
            weights = round_weights[s, users]
            for a, b in plan_shards(len(jobs), shard_size):
                tasks.append(
                    make_shard_task(
                        mode="delta",
                        model=model,
                        task=fed.task,
                        params=params,
                        jobs=jobs[a:b],
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

        comp = self.compressor
        if comp is not None and not comp.spec.is_identity:
            return (
                self._streamed_compressed(params, noises, active_silos, results),
                users_seen,
            )
        self._round_uplink_bytes = len(noises) * params.size * 8
        aggregate = np.sum(noises, axis=0)
        if results:
            aggregate = aggregate + engine.reduce(results).total()
        return aggregate, users_seen

    def _streamed_compressed(
        self,
        params: np.ndarray,
        noises: list[np.ndarray],
        active_silos: list[int],
        results: list[dict],
    ) -> np.ndarray:
        """Compressed uplink over streamed partials: each silo's *noisy*
        payload is reconstituted from its own shards' binned states (one
        rounding, same bits as the materialised per-silo fold), then
        routed through the compressor exactly as
        :meth:`_aggregate_compressed` would."""
        comp = self.compressor
        assert comp is not None
        per_silo: dict[int, list[dict]] = {}
        for result in results:
            per_silo.setdefault(result["silo"], []).append(result)
        aggregate = np.zeros(params.size)
        uplink = 0
        for noise, s in zip(noises, active_silos):
            payload = noise
            shards = per_silo.get(s)
            if shards:
                acc = tree_reduce([BinnedSum.from_state(r["state"]) for r in shards])
                payload = payload + acc.total()
            sent = comp.compress_uplink(s, payload)
            aggregate += sent.dense
            uplink += sent.nbytes
        self._round_uplink_bytes = uplink
        return aggregate

    def _compute_contributions(
        self, params: np.ndarray, round_weights: np.ndarray
    ) -> tuple[_RoundContributions, list[np.ndarray]]:
        """Per-silo clipped per-user deltas and per-silo Gaussian noise.

        Returns ``(contributions, noises)`` where ``contributions[s]`` maps
        user id -> *unweighted* clipped delta and ``noises`` holds one
        vector per active silo: a walk over the active silos running
        :meth:`_silo_step` (or whatever the :attr:`contribution_executor`
        collected from the silo processes running it).  Dropped silos
        (``self._active_silo_mask``) train nothing and draw no noise.
        """
        fed, _, _ = self._require_prepared()
        noise_std = self._noise_std()
        if self.contribution_executor is not None:
            if self.record_clip_stats:
                raise NotImplementedError(
                    "record_clip_stats is not supported with a contribution "
                    "executor (remote silos do not report clip factors)"
                )
            return self.contribution_executor(
                params, round_weights, float(noise_std), self._active_silo_mask
            )
        factors = np.full((fed.n_silos, fed.n_users), np.nan)
        segments: list[tuple[list[int], np.ndarray] | None] = []
        noises: list[np.ndarray] = []
        for s in range(fed.n_silos):
            if self._active_silo_mask is not None and not self._active_silo_mask[s]:
                segments.append(None)
                continue
            users, rows, silo_factors, noise = self._silo_step(
                s, params, round_weights[s], noise_std
            )
            # Pooled rows: copy before the next silo's batch overwrites them.
            segments.append((users, rows.copy()))
            noises.append(noise)
            factors[s, users] = silo_factors
        if self.record_clip_stats:
            self.clip_factor_history.append(factors)
        return _RoundContributions(segments, params.size), noises

    def _aggregate(
        self,
        t: int,
        contributions: _RoundContributions,
        noises: list[np.ndarray],
        round_weights: np.ndarray,
    ) -> np.ndarray:
        """Plaintext aggregation: sum_s (sum_u w[s,u] * delta_su + z_s).

        The row matrix is folded silo slice by silo slice through the
        engine's micro-batched binned sum -- the same chunk compositions
        and the same exact reduction the streamed path applies, which is
        what keeps a row-materialising round (rows from :meth:`_silo_step`,
        in process or over the wire) bit-identical to the streamed one.
        This simulates secure aggregation (the server only ever consumes
        the final sum); :class:`repro.protocol.SecureUldpAvg` overrides it
        with the real cryptographic Protocol 1 and is tested to produce
        the same result within fixed-point precision (Theorem 4).

        With a lossy :class:`CompressionSpec` the aggregation routes
        through :meth:`_aggregate_compressed` instead, which forms each
        silo's *noisy* payload explicitly before compressing it.  The
        identity spec keeps this exact code path, which is what the oracle
        test pins bit for bit.
        """
        if self.compressor is not None and not self.compressor.spec.is_identity:
            return self._aggregate_compressed(contributions, noises, round_weights)
        self._round_uplink_bytes = len(noises) * noises[0].size * 8
        aggregate = np.sum(noises, axis=0)
        if len(contributions.matrix):
            acc = BinnedSum(aggregate.size, self.shard_engine.scale(self.clip))
            for s, users, rows in contributions.silo_blocks():
                fold_weighted_rows(
                    acc, round_weights[s, users], rows, self.shard_engine.backend
                )
            aggregate = aggregate + acc.total()
        return aggregate

    def _aggregate_compressed(
        self,
        contributions: _RoundContributions,
        noises: list[np.ndarray],
        round_weights: np.ndarray,
    ) -> np.ndarray:
        """Per-silo noisy payloads, compressed on the uplink, then summed.

        Each active silo's payload ``sum_u w[s,u] * delta_su + z_s`` is
        formed explicitly -- compression must see exactly what crosses the
        wire, strictly post-noise -- then routed through the compressor's
        per-silo error-feedback loop.  The server sums the reconstructions,
        which still simulates secure aggregation (only the sum is used).
        """
        comp = self.compressor
        assert comp is not None
        active = self._active_silo_mask
        remaining = iter(noises)
        aggregate = np.zeros_like(noises[0])
        uplink = 0
        for s, users, rows in contributions.silo_blocks():
            if active is not None and not active[s]:
                continue  # dropped silo: no payload, no noise slot
            payload = next(remaining)
            if users:
                acc = BinnedSum(payload.size, self.shard_engine.scale(self.clip))
                fold_weighted_rows(
                    acc, round_weights[s, users], rows, self.shard_engine.backend
                )
                payload = payload + acc.total()
            sent = comp.compress_uplink(s, payload)
            aggregate += sent.dense
            uplink += sent.nbytes
        self._round_uplink_bytes = uplink
        return aggregate

    def uplink_payload_bytes(self) -> int:
        """One silo's per-round uplink wire size (the bandwidth models' input).

        The compressed estimate when a compressor is active, dense float64
        otherwise; :class:`repro.protocol.SecureUldpAvg` overrides this
        with ciphertext sizes.
        """
        _, model, _ = self._require_prepared()
        if self.compressor is not None:
            return self.compressor.estimated_payload_bytes(model.num_params)
        return model.num_params * 8

    # -- per-silo step API (buffered-async simulation, remote silos) ---------

    def silo_contribution(
        self,
        t: int,
        params: np.ndarray,
        s: int,
        round_weights: np.ndarray,
        noise_std: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One silo's weighted noisy sum computed at (possibly stale) params.

        The buffered-async policy calls this per silo with whatever global
        params the silo last pulled; the scheduler later merges buffered
        payloads with staleness weights.  ``noise_std`` is chosen by the
        policy (e.g. ``sigma * C / sqrt(K)`` for buffer size K so a full
        buffer carries total noise std ``sigma * C``).

        Returns:
            (payload, users, weights): the noisy weighted delta sum, the
            contributing user ids, and their realised weights -- the last
            two feed the merge-time sensitivity bookkeeping.
        """
        users, rows, _, noise = self._silo_step(
            s, params, round_weights[s], noise_std
        )
        weights = round_weights[s, users]
        return noise + weights @ rows, np.array(users, dtype=np.int64), weights

    def silo_round_segment(
        self,
        s: int,
        params: np.ndarray,
        weight_row: np.ndarray,
        noise_std: float,
    ) -> tuple[list[int], np.ndarray, np.ndarray]:
        """One silo's slice of a synchronous round, for remote execution.

        Runs :meth:`_silo_step` -- the computation
        :meth:`_compute_contributions` performs for silo ``s`` -- so a silo
        process that first restores the server's chained RNG state
        produces bit-identical results to the in-process simulator (the
        :mod:`repro.net` ideal-network oracle).  ``weight_row`` is silo
        s's row of the realised round weights.

        Returns ``(users, rows, noise)``: the contributing user ids,
        their clipped delta rows (``(len(users), P)``, safe to keep), and
        the silo's Gaussian noise vector.
        """
        users, rows, _, noise = self._silo_step(s, params, weight_row, noise_std)
        return users, rows.copy(), noise  # engine buffers are pooled

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

    def epsilon(self, delta: float) -> float:
        return self.accountant.get_epsilon(delta)

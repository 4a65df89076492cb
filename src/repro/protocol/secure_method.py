"""ULDP-AVG-w with aggregation through the real cryptographic protocol.

:class:`SecureUldpAvg` is a drop-in replacement for
``UldpAvg(weighting="proportional")`` whose per-round aggregation runs
Protocol 1 end to end (Paillier, blinding, secure aggregation) instead of
the plaintext simulation.  Training results agree with the plaintext method
up to the fixed-point precision P (Theorem 4); the cost is the protocol
overhead measured in Figures 10-11.

With ``user_sample_rate`` set, the *server* performs the Poisson sampling
and silos never learn the outcome (weights of unsampled users are Enc(0)) --
the paper's default visibility model.  ``private_subsampling_slots`` enables
the Section 4.1 OT extension instead, hiding the outcome from the server as
well.
"""

from __future__ import annotations

import logging

import numpy as np

from repro.compress import CompressionSpec, scatter
from repro.core.methods.uldp_avg import UldpAvg
from repro.crypto.dh import DHGroup
from repro.crypto.encoding import MagnitudeBudgetError, round_max_abs
from repro.crypto.secagg import (
    MaskedAggregationProtocol,
    encode_weighted_payload,
    weight_numerators,
)
from repro.protocol.oblivious import PrivateSubsampler
from repro.protocol.runner import PrivateWeightingProtocol

#: Accepted ``crypto_backend`` values (mirrored by
#: :data:`repro.api.spec.CRYPTO_BACKENDS`, which stays import-light; pinned
#: equal by tests/api/test_spec.py).
CRYPTO_BACKENDS = ("fast", "masked")

log = logging.getLogger(__name__)

#: NIST SP 800-57 part 1, table 2: (modulus bits, security strength) for
#: finite-field DH and for factoring-based moduli such as Paillier's n.
_NIST_STRENGTH = ((15360, 256), (7680, 192), (3072, 128), (2048, 112), (1024, 80))

#: Below this strength (or with seeded keys) ``prepare`` logs the
#: :meth:`SecureUldpAvg.security_summary` line as a warning.
MIN_STRENGTH_BITS = 112


def modulus_strength_bits(modulus_bits: int) -> int:
    """Security strength NIST assigns a modulus of this size (0 = below
    the table's smallest entry, i.e. breakable in practice)."""
    return next((s for size, s in _NIST_STRENGTH if modulus_bits >= size), 0)


def _rating(strength: int) -> str:
    return f"{strength}-bit" if strength else "<80-bit"


class SecureUldpAvg(UldpAvg):
    """ULDP-AVG-w whose aggregation is the real Protocol 1.

    The cryptographic protocols encrypt (or mask) each user's clipped
    delta individually, so this subclass -- alone -- works on per-user
    rows: it overrides :meth:`_round_aggregate` and builds plain
    ``{user: clipped delta}`` dicts from :meth:`silo_round_segment`, all
    inside one process (the networked runtime refuses this method: its
    silos would have to ship those rows to the server in the clear).

    ``private_subsampling_slots = P`` enables OT-based user-level
    sub-sampling at rate q = 1/P where *neither the server nor the silos*
    learn the per-round outcome (mutually exclusive with
    ``user_sample_rate``, where the server performs and knows the sampling).

    ``crypto_backend`` selects the secure-aggregation scheme.  ``"fast"``
    (default) is Protocol 1 over Paillier: CRT decryption, a weighting
    kernel that pays one key-width power per (silo, user) and
    fixed-point-width look-ups per coordinate, offline randomizer pools,
    across-silo process parallelism via ``protocol_workers``; under a
    seeded protocol RNG its aggregates and training histories are
    identical to the seed implementation's (its silo ciphertexts are equal
    in plaintext, not in bits), which is kept as the test oracle
    ``tests/protocol/oracle_reference.py``.
    ``"masked"`` replaces Protocol 1's Paillier aggregation with
    Bonawitz-style pairwise-mask secure aggregation
    (:class:`repro.crypto.secagg.MaskedAggregationProtocol`): orders of
    magnitude faster, ``mask_bits // 8`` uplink bytes per coordinate
    instead of a Paillier ciphertext, and -- uniquely among the secure
    backends -- it accepts :class:`~repro.core.weighting.RoundParticipation`
    with silo dropout (unmatched masks are recovered from revealed
    per-round keys).  The masked path follows the plaintext Algorithm 4
    visibility model (silos see the server's zeroed sampling weights), so
    it is bit-identical to the Paillier backend under full participation
    and matches the plaintext :class:`UldpAvg` under any participation
    pattern; it does not support the OT sub-sampling extension.

    ``compression`` admits only ``sparsify="randk"`` (or the identity):
    every silo restricts its encrypted round to the *same* random support
    derived from the compressor's shared stream, so the pairwise masks
    still cancel and -- because the support is data-independent -- the
    unsent coordinates release nothing about the data.  Top-k is rejected
    (a data-dependent support chosen *before* noise would itself leak, and
    per-silo supports would desynchronise the masking); quantization is
    rejected (Paillier ciphertexts have fixed width -- shrinking the
    plaintext saves nothing); error feedback and downlink compression are
    rejected (out of scope for the encrypted path).

    ``dh_group`` is the silos' key-agreement group.  It is a constructor
    argument only -- no spec field reaches it -- and ``None`` means RFC
    3526 group 14, so a run launched from a spec cannot have a toy group;
    protocol-level tests pass ``DHGroup.test_group()``.
    """

    name = "ULDP-AVG-w (secure)"
    #: Not declared: the inherited per-silo step forms a *plaintext* payload,
    #: so a runtime driving it (buffered-async, ``[net]``) bypasses Protocol 1.
    has_silo_step = False
    #: The Protocol 1 orchestrator ``prepare`` builds (the test oracle
    #: substitutes its seed-implementation subclass here).
    protocol_cls = PrivateWeightingProtocol

    def __init__(
        self,
        clip: float = 1.0,
        noise_multiplier: float = 5.0,
        global_lr: float | None = None,
        local_lr: float = 0.05,
        local_epochs: int = 2,
        user_sample_rate: float | None = None,
        batch_size: int | None = None,
        n_max: int = 64,
        paillier_bits: int = 512,
        precision: float = 1e-10,
        protocol_seed: int | None = 0,
        private_subsampling_slots: int | None = None,
        crypto_backend: str = "fast",
        protocol_workers: int | None = None,
        compression: CompressionSpec | None = None,
        mask_bits: int = 256,
        min_survivors: int = 1,
        dh_group: DHGroup | None = None,
    ):
        if crypto_backend not in CRYPTO_BACKENDS:
            raise ValueError(
                f"unknown crypto_backend {crypto_backend!r}; "
                f"choose from {CRYPTO_BACKENDS}"
            )
        if min_survivors < 1:
            raise ValueError("min_survivors must be at least 1")
        if crypto_backend == "masked" and private_subsampling_slots is not None:
            raise ValueError(
                "the OT sub-sampling extension is Paillier-specific "
                "(Enc(0) dummy slots); use user_sample_rate with the "
                "masked backend"
            )
        if private_subsampling_slots is not None:
            if user_sample_rate is not None:
                raise ValueError(
                    "use either server-side user_sample_rate or OT-based "
                    "private_subsampling_slots, not both"
                )
            if private_subsampling_slots < 2:
                raise ValueError("need at least two OT slots")
            # The OT extension realises Poisson-style sampling at q = 1/P;
            # the accountant sees exactly that rate.
            user_sample_rate = 1.0 / private_subsampling_slots
        super().__init__(
            clip=clip,
            noise_multiplier=noise_multiplier,
            global_lr=global_lr,
            local_lr=local_lr,
            local_epochs=local_epochs,
            weighting="proportional",
            user_sample_rate=user_sample_rate,
            batch_size=batch_size,
            compression=compression,
        )
        self.n_max = n_max
        self.paillier_bits = paillier_bits
        self.precision = precision
        self.protocol_seed = protocol_seed
        self.private_subsampling_slots = private_subsampling_slots
        self.crypto_backend = crypto_backend
        self.protocol_workers = protocol_workers
        self.mask_bits = mask_bits
        #: Masked-backend survivor quorum: a dropout round with fewer than
        #: this many surviving silos raises
        #: :class:`repro.core.weighting.QuorumError` instead of
        #: aggregating (see docs/protocol_performance.md on why a server
        #: faking dropouts to shrink the survivor set is worth refusing).
        self.min_survivors = min_survivors
        self.dh_group = dh_group if dh_group is not None else DHGroup.rfc3526_2048()
        self.subsampler: PrivateSubsampler | None = None
        self.protocol: PrivateWeightingProtocol | None = None
        self.masked_protocol: MaskedAggregationProtocol | None = None
        self._histogram: np.ndarray | None = None

    @property
    def display_name(self) -> str:
        return self.name

    def check_compression(self, spec: CompressionSpec | None) -> None:
        """Reject specs the encrypted path cannot honour (see class doc)."""
        if spec is None or spec.is_identity:
            return
        if spec.sparsify != "randk":
            raise ValueError(
                "the secure protocol admits only sparsify='randk': the "
                "support must be data-independent (it is chosen before "
                "noise) and shared by every silo (mask cancellation)"
            )
        if spec.quantize_bits is not None:
            raise ValueError(
                "quantization does not shrink fixed-width Paillier "
                "ciphertexts; use quantize_bits=None with the secure path"
            )
        if spec.error_feedback or spec.downlink:
            raise ValueError(
                "error feedback and downlink compression are not "
                "implemented for the secure path"
            )

    def prepare(self, fed, model, rng, compression=None, engine=None) -> None:
        super().prepare(fed, model, rng, compression=compression, engine=engine)
        summary, weak = self._security()
        if weak:
            log.warning("%s", summary)
        n_max = max(self.n_max, int(fed.user_totals().max(initial=1)))
        try:
            self._build_protocol(fed, n_max)
        except MagnitudeBudgetError as exc:
            if n_max == self.n_max:
                raise
            knob = "mask_bits" if self.crypto_backend == "masked" else "paillier_bits"
            raise MagnitudeBudgetError(
                f"{exc}.  Here n_max cannot be lowered: it was raised from "
                f"the configured {self.n_max} because one user holds {n_max} "
                f"records across silos -- raise crypto.{knob}, or spread the "
                "records over more users (dataset.users)"
            ) from exc

    def _build_protocol(self, fed, n_max: int) -> None:
        """Construct the backend's protocol object and run its set-up."""
        if self.crypto_backend == "masked":
            self.masked_protocol = MaskedAggregationProtocol(
                fed.n_silos,
                mask_bits=self.mask_bits,
                precision=self.precision,
                n_max=n_max,
                seed=self.protocol_seed,
                group=self.dh_group,
            )
            self.masked_protocol.run_setup()
            self._histogram = fed.histogram()
            return
        self.protocol = self.protocol_cls(
            fed.histogram(),
            n_max=n_max,
            paillier_bits=self.paillier_bits,
            precision=self.precision,
            dh_group=self.dh_group,
            seed=self.protocol_seed,
            workers=self.protocol_workers,
        )
        self.protocol.run_setup()
        if self.private_subsampling_slots is not None:
            seed = self.protocol.silos[0].shared_seed
            assert seed is not None
            self.subsampler = PrivateSubsampler(seed, self.private_subsampling_slots)

    def security_summary(self) -> str:
        """One line on what protects this run: the DH group and its
        strength, the Paillier modulus (or the mask field width), and
        whether key material is seeded.

        ``repro validate-config`` prints it for secure specs and
        :meth:`prepare` logs it as a warning when any component is below
        :data:`MIN_STRENGTH_BITS` or seeded -- which today is every run a
        spec launches (``protocol_seed=0`` is the default and no
        ``[crypto]`` field changes it).
        """
        return self._security()[0]

    def _security(self) -> tuple[str, bool]:
        """The summary line, and whether it deserves a warning."""
        group = self.dh_group
        strengths = [modulus_strength_bits(group.prime.bit_length())]
        parts = [
            f"dh={group.label} ({_rating(strengths[0])}, "
            f"{group.exponent_bits}-bit exponents)"
        ]
        if self.crypto_backend == "masked":
            parts.append(f"mask_bits={self.mask_bits}")
        else:
            strengths.append(modulus_strength_bits(self.paillier_bits))
            parts.append(
                f"paillier_bits={self.paillier_bits} ({_rating(strengths[1])})"
            )
        seeded = self.protocol_seed is not None
        parts.append(
            "keys: seeded (reproducible, not secret)" if seeded else "keys: secrets"
        )
        return (
            "security: " + "; ".join(parts),
            seeded or min(strengths) < MIN_STRENGTH_BITS,
        )

    def round(self, t, params, participation=None):
        """Protocol 1 rounds require the full roster; masked rounds do not.

        The Paillier backend fixes the encrypted per-user weights at setup,
        so silo dropout would desynchronise the blinding-mask cancellation.
        The pairwise-mask backend recovers unmatched masks from revealed
        per-round keys, so it runs any
        :class:`~repro.core.weighting.RoundParticipation` the plaintext
        method accepts.
        """
        if participation is not None and self.crypto_backend != "masked":
            raise NotImplementedError(
                "the Paillier crypto backend ('fast') does not "
                "support partial participation: per-user weights are fixed "
                "inside the encrypted setup and silo dropout would "
                "desynchronise the blinding-mask cancellation; use "
                "crypto_backend='masked' (pairwise-mask secure aggregation "
                "with dropout recovery) for secure rounds under dropout"
            )
        return super().round(t, params, participation)

    def _round_aggregate(self, params, round_weights):
        """Protocol 1 replaces the plaintext sum of silo payloads.

        Silos must not learn the sub-sampling outcome: unlike the
        plaintext Algorithm 4 -- where the server distributes zeroed
        weights and silos skip unsampled users -- every silo trains every
        present user (the *unsampled* weight row decides who is present)
        and unsampled users are cancelled inside the encrypted domain by
        Enc(0) weights.  With server-side sampling ``round_weights``
        encodes the server's decision (zeroed columns) and the protocol
        zeroes the encrypted weights; with the OT extension the sampled
        set is implicit: the PRG-derived slot choice selects real weights
        or Enc(0) dummies and no party learns which.

        The masked backend keeps the plaintext visibility model instead
        (zeroed weights reach the silos), which is what lets it track the
        plaintext method bit for bit under dropout -- and, because
        zero-weight users contribute exactly zero either way, its
        aggregate still matches the Paillier backend.

        With ``sparsify="randk"`` compression, the round first restricts
        every delta and noise vector to one shared random support (drawn
        per round from the compressor's stream -- in deployment, from the
        silos' shared seed R, so indices never cross the wire): Protocol 1
        then encrypts, masks, sums, and decrypts only the k surviving
        coordinates, and the decoded sub-aggregate is scattered back into
        the d-dimensional update with exact zeros elsewhere.  The uplink
        shrinks from ``d`` to ``k`` ciphertexts per silo.
        """
        fed, _, _ = self._require_prepared()
        masked = self.crypto_backend == "masked"
        train_weights = round_weights if masked else self.weights
        noise_std = self._noise_std()
        # One {user: clipped delta} dict per silo (empty for a dropped one,
        # which keeps silo indices aligned), one noise vector per active silo.
        contributions: list[dict[int, np.ndarray]] = [{} for _ in fed.silos]
        noises: list[np.ndarray] = []
        for s in self._active_silos():
            users, rows, noise = self.silo_round_segment(
                s, params, train_weights[s], noise_std
            )
            contributions[s] = dict(zip(users, rows))
            noises.append(noise)
        users_seen = {user for per_silo in contributions for user in per_silo}

        dim = len(noises[0])
        support = None
        comp = self.compressor
        if comp is not None and comp.spec.sparsify == "randk":
            support = comp.draw_support(dim)
            contributions = [
                {user: delta[support] for user, delta in per_silo.items()}
                for per_silo in contributions
            ]
            noises = [noise[support] for noise in noises]
        if masked:
            assert self.masked_protocol is not None
            aggregate = self._aggregate_masked(contributions, noises, round_weights)
            coordinate_bytes = self.masked_protocol.mask_bytes
        else:
            assert self.protocol is not None
            if self.subsampler is not None:
                aggregate = self.protocol.run_round_ot_sampling(
                    contributions, noises, self.subsampler
                )
            else:
                sampled = np.where(round_weights.sum(axis=0) > 0)[0]
                aggregate = self.protocol.run_round(
                    contributions, noises, sampled_users=sampled
                )
            coordinate_bytes = self.protocol.ciphertext_bytes
        uplink = len(noises) * len(noises[0]) * coordinate_bytes
        if support is not None:
            aggregate = scatter(support, aggregate, dim)
        return aggregate, users_seen, uplink

    def _aggregate_masked(self, contributions, noises, round_weights):
        """Masked secure aggregation over the (possibly partial) roster.

        Each active silo encodes ``sum_u Encode(delta_su) * (n_su * C_LCM
        / N_u) + Encode(z_s) * C_LCM`` into the mask field and uploads the
        pairwise-masked vector; dropped silos upload nothing and their
        unmatched masks are recovered inside the protocol.  The decoded
        sum is the identical integer arithmetic the Paillier path
        decrypts, so both secure backends agree bit for bit under full
        participation.
        """
        proto = self.masked_protocol
        assert proto is not None
        active = self._active_silo_mask
        fed, _, _ = self._require_prepared()
        survivors = int(active.sum()) if active is not None else len(contributions)
        if survivors < self.min_survivors:
            from repro.core.weighting import QuorumError

            raise QuorumError(
                f"masked secure aggregation has {survivors} surviving "
                f"silo(s) this round, below min_survivors="
                f"{self.min_survivors}; refusing to aggregate over so few "
                "silos (see docs/protocol_performance.md)"
            )
        numerators = weight_numerators(round_weights, self._histogram, proto.c_lcm)
        # One noise vector per active silo; a dropped silo sends no payload.
        noise_of = dict(zip(self._active_silos(), noises))
        max_abs = round_max_abs(contributions, noises, list(noise_of))
        proto.check_round_magnitude(
            max_abs, num_terms=fed.n_silos * (fed.n_users + 1)
        )
        vectors: list[list[int] | None] = [
            encode_weighted_payload(
                per_user,
                {user: numerators[s, user] for user in per_user},
                noise_of[s],
                self.precision,
                proto.c_lcm,
                proto.modulus,
            )
            if s in noise_of
            else None
            for s, per_user in enumerate(contributions)
        ]
        return proto.decode_aggregate(proto.run_round(vectors))

    def uplink_payload_bytes(self) -> int:
        """One silo's uplink in *wire* bytes (not plaintext floats).

        A secure round ships one Paillier ciphertext (Paillier backend)
        or one ``mask_bits``-bit field element (masked backend) per
        surviving coordinate, so bandwidth models must budget
        ``k * |Z_{n^2}|`` resp. ``k * mask_bits/8`` bytes.
        """
        _, model, _ = self._require_prepared()
        dim = model.num_params
        comp = self.compressor
        if comp is not None and comp.spec.sparsify == "randk":
            dim = comp.spec.keep_count(dim)
        if self.crypto_backend == "masked":
            assert self.masked_protocol is not None
            return dim * self.masked_protocol.mask_bytes
        assert self.protocol is not None
        return dim * self.protocol.ciphertext_bytes

    def timing_report(self) -> dict[str, float]:
        """Per-phase wall-clock totals (for the Fig. 10/11 benches)."""
        if self.crypto_backend == "masked":
            assert self.masked_protocol is not None
            return self.masked_protocol.timer.report()
        assert self.protocol is not None
        return self.protocol.timer.report()

    # -- checkpoint serialisation -------------------------------------------

    def state_dict(self) -> dict:
        """The base state plus the masked protocol's round counter, which
        seeds the per-round masks (key material rebuilds from
        ``protocol_seed`` at prepare time; Paillier rounds hold no state)."""
        protocol = None
        if self.masked_protocol is not None:
            protocol = {"backend": "masked", **self.masked_protocol.state_dict()}
        return {**super().state_dict(), "protocol": protocol}

    def load_state(self, state: dict) -> None:
        state = dict(state)
        saved = state.pop("protocol", None)
        backend = "masked" if self.masked_protocol is not None else None
        if (saved or {}).get("backend") != backend:
            raise ValueError(
                "checkpoint and rebuilt method disagree about the crypto "
                "backend; was the spec's crypto section changed?"
            )
        super().load_state(state)
        if saved is not None:
            self.masked_protocol.load_state(saved)

"""ULDP-AVG-w with aggregation through a real secure-aggregation protocol.

:class:`SecureUldpAvg` is a drop-in replacement for
``UldpAvg(weighting="proportional")`` whose per-round aggregation runs
Protocol 1 end to end (Paillier, blinding, secure aggregation) or masks
each silo's release pairwise.  Results agree with the plaintext method up
to the fixed-point precision P (Theorem 4); the cost is the protocol
overhead of Figures 10-11.
"""

from __future__ import annotations

import logging

import numpy as np

from repro.compress.sparsify import scatter
from repro.compress.spec import CompressionSpec
from repro.core.methods.uldp_avg import UldpAvg
from repro.crypto.dh import DHGroup
from repro.crypto.encoding import MagnitudeBudgetError
from repro.crypto.secagg import MaskedAggregationProtocol
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
    """ULDP-AVG-w whose aggregation is a real secure-aggregation protocol.

    ``crypto_backend`` picks :attr:`protocol`:

    - ``"fast"`` (default) is Protocol 1 over Paillier
      (:class:`PrivateWeightingProtocol`, across-silo kernels on
      ``protocol_workers`` processes).  It multiplies each user's clipped
      delta by an *encrypted* weight, so it works on per-user rows:
      :meth:`_round_aggregate` builds ``{user: clipped delta}`` dicts from
      :meth:`silo_round_segment` inside one process (``[net]`` refuses this
      method: its silos would ship those rows in the clear).
    - ``"masked"`` is pairwise-mask secure aggregation
      (:class:`repro.crypto.secagg.MaskedAggregationProtocol`): each silo
      masks the float32 release every plaintext carrier forms
      (:meth:`_shard_payloads`) in Z_{2^64}, 8 B a coordinate.  Its
      aggregate is exactly ``P * sum_s rint(release_s / P)``: plaintext
      :class:`UldpAvg` to within ``|S| * P / 2``, under any participation.

    The protocols carry what differs between them: dropout support, uplink
    bytes per coordinate and checkpoint state.

    ``private_subsampling_slots = P`` (Paillier only) samples users at
    q = 1/P by OT so that *neither* side learns the outcome; with
    ``user_sample_rate`` instead, the server samples and knows.

    ``compression`` admits only ``sparsify="randk"`` (or the identity):
    every silo keeps the *same* data-independent random support, so masks
    still cancel and unsent coordinates release nothing.  Top-k would leak
    through its support, quantization saves nothing on fixed-width
    ciphertexts, and error feedback / downlink compression are out of
    scope.

    ``dh_group`` is a constructor argument only (no spec field reaches
    it); ``None`` means RFC 3526 group 14.
    """

    name = "ULDP-AVG-w (secure)"
    #: Not declared: the inherited per-silo step forms a *plaintext* payload,
    #: so a runtime driving it (buffered-async, ``[net]``) bypasses Protocol 1.
    has_silo_step = False
    #: The Paillier protocol ``prepare`` builds (the test oracle
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
        self.min_survivors = min_survivors
        self.dh_group = dh_group if dh_group is not None else DHGroup.rfc3526_2048()
        #: The backend's protocol driver, built and set up by ``prepare``.
        self.protocol: PrivateWeightingProtocol | MaskedAggregationProtocol | None = None

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
        if self.protocol is not None:
            self.protocol.close()
        keys = {"precision": self.precision, "seed": self.protocol_seed,
                "dh_group": self.dh_group}
        if self.crypto_backend == "masked":
            self.protocol = MaskedAggregationProtocol(
                fed.n_silos, min_survivors=self.min_survivors, **keys)
        else:
            self.protocol = self._paillier_protocol(fed, keys)
        self.protocol.run_setup()

    def _paillier_protocol(self, fed, keys: dict) -> PrivateWeightingProtocol:
        """Protocol 1 for ``fed``, at an ``n_max`` raised to the largest
        user's record count; a C_LCM that then overflows the key is refused
        naming that user, before any key is made."""
        n_max = max(self.n_max, int(fed.user_totals().max(initial=1)))
        try:
            return self.protocol_cls(
                fed.histogram(), n_max=n_max, paillier_bits=self.paillier_bits,
                workers=self.protocol_workers, ot_slots=self.private_subsampling_slots,
                **keys)
        except MagnitudeBudgetError as exc:
            if n_max == self.n_max:
                raise
            raise MagnitudeBudgetError(
                f"{exc}.  Here n_max cannot be lowered: it was raised from "
                f"the configured {self.n_max} because one user holds {n_max} "
                "records across silos -- raise crypto.paillier_bits, or spread the "
                "records over more users (dataset.users)"
            ) from exc

    def close(self) -> None:
        """Release the shard engine's pool and the protocol's (idempotent)."""
        super().close()
        if self.protocol is not None:
            self.protocol.close()

    def security_summary(self) -> str:
        """One line on what protects this run: the DH group and its
        strength, the Paillier modulus (or the masks' fixed 64-bit ring), and
        whether key material is seeded.  ``repro validate-config`` prints
        it; :meth:`prepare` logs it as a warning when any component is
        below :data:`MIN_STRENGTH_BITS` or seeded -- today every run a spec
        launches (``protocol_seed=0`` is the default)."""
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
            parts.append("masks in Z_2^64 (fixed 64-bit ring)")
        else:
            strengths.append(modulus_strength_bits(self.paillier_bits))
            parts.append(f"paillier_bits={self.paillier_bits} ({_rating(strengths[-1])})")
        seeded = self.protocol_seed is not None
        parts.append(
            "keys: seeded (reproducible, not secret)" if seeded else "keys: secrets"
        )
        return (
            "security: " + "; ".join(parts),
            seeded or min(strengths) < MIN_STRENGTH_BITS,
        )

    def round(self, t, params, participation=None):
        """A backend that needs the full roster refuses any participation
        before a silo trains; the masked one recovers a dropped silo's
        masks, so it runs any participation the plaintext method accepts."""
        refusal = self.protocol.dropout_refusal
        if participation is not None and refusal is not None:
            raise NotImplementedError(refusal)
        return super().round(t, params, participation)

    def _round_aggregate(self, params, round_weights):
        """The protocol replaces the plaintext sum of silo payloads.

        A masked silo masks its release, formed from the round weights as
        for any carrier.  A Paillier silo hands Protocol 1 its per-user
        rows and its noise, trained on the unsampled weight row: the
        protocol hides the sub-sampling outcome from the silos, and
        unsampled users cancel inside the encrypted domain -- Enc(0)
        weights from the server's zeroed columns, or, with OT, dummies no
        party can tell from real weights.

        With ``sparsify="randk"`` every vector a silo hands the protocol is
        first restricted to one shared random support (in deployment drawn
        from R, so indices never cross the wire); the protocol carries only
        the k coordinates, the uplink shrinks from d to k per silo, and the
        aggregate is scattered back with exact zeros elsewhere.
        """
        fed, _, _ = self._require_prepared()
        noise_std, active = self._noise_std(), self._active_silos()
        # One vector per silo -- its release or its noise -- and, for
        # Paillier, one {user: clipped delta} dict; a dropped silo has None.
        sent: list[np.ndarray | None] = [None for _ in fed.silos]
        contributions: list[dict[int, np.ndarray]] = [{} for _ in fed.silos]
        users_seen: set[int] = set()
        if self.crypto_backend == "masked":
            for s, users, release in self._shard_payloads(
                    params, round_weights, noise_std, active):
                sent[s] = release
                users_seen.update(users)
        else:
            for s in active:
                users, rows, sent[s] = self.silo_round_segment(
                    s, params, self.weights[s], noise_std)
                contributions[s] = dict(zip(users, rows))
                users_seen.update(users)

        dim = params.size
        support = None
        comp = self.compressor
        if comp is not None and comp.spec.sparsify == "randk":
            support = comp.draw_support(dim)
            contributions = [
                {user: delta[support] for user, delta in per_silo.items()}
                for per_silo in contributions
            ]
            sent = [None if vector is None else vector[support] for vector in sent]
        if self.crypto_backend == "masked":
            aggregate = self.protocol.run_round(sent)
        else:
            aggregate = self.protocol.run_round(contributions, sent, round_weights)
        uplink = sum(len(v) for v in sent if v is not None) * self.protocol.coordinate_bytes
        if support is not None:
            aggregate = scatter(support, aggregate, dim)
        return aggregate, users_seen, uplink

    def uplink_payload_bytes(self) -> int:
        """One silo's uplink in *wire* bytes: one ciphertext (Paillier) or
        one 8-byte element of Z_{2^64} (masked) per kept coordinate."""
        _, model, _ = self._require_prepared()
        dim = model.num_params
        comp = self.compressor
        if comp is not None and comp.spec.sparsify == "randk":
            dim = comp.spec.keep_count(dim)
        return dim * self.protocol.coordinate_bytes

    def timing_report(self) -> dict[str, float]:
        """Per-phase wall-clock totals (for the Fig. 10/11 benches)."""
        return self.protocol.report()

    # -- checkpoint serialisation -------------------------------------------

    def state_dict(self) -> dict:
        """The base state plus the protocol's (its round counter, which
        keys each round's masks; keys rebuild from ``protocol_seed``)."""
        return {**super().state_dict(), "protocol": self.protocol.state_dict()}

    def load_state(self, state: dict) -> None:
        state = dict(state)
        self.protocol.load_state(state.pop("protocol", None))
        super().load_state(state)

"""Pairwise-mask secure aggregation with dropout recovery (Bonawitz-style).

This is the ``crypto_backend="masked"`` alternative to Protocol 1's Paillier
path (``crypto_backend="fast"``; those are the two backends).  Instead of
encrypting every coordinate under an additively homomorphic cryptosystem,
each silo adds a *pairwise additive mask* to its fixed-point field vector:

- **Setup** (once): every pair of silos runs Diffie-Hellman and derives a
  long-term pair key (KDF context ``"masked-agg"``, independent of Protocol
  1's ``"secure-agg"`` keys).
- **Per round**: each pair derives a fresh *round key* from the pair key and
  the round number, expands it through :func:`~repro.crypto.masking.
  prg_field_elements`, and silo ``i`` adds the stream for every peer
  ``j > i`` and subtracts it for every ``j < i`` (via
  :class:`~repro.crypto.masking.PairwiseMasker`).  Summed over the full
  roster the masks cancel exactly in F_m, so the server learns only the sum.
- **Dropout recovery**: masks are laid over the *full* roster, so a dropped
  silo leaves unmatched streams in the survivors' sum.  Each survivor
  reveals its round keys shared with the dropped silos; the server re-expands
  those streams and subtracts them, recovering exactly the sum over
  survivors.  Because the revealed key is the per-round derivation -- not
  the long-term pair key -- the reveal exposes masks of this round only.

The field is ``F_{2^mask_bits}`` with the same fixed-point encoding as the
Paillier path (:mod:`repro.crypto.encoding`): silo ``s`` submits

    ``sum_u Encode(delta_su) * (n_su * C_LCM / N_u) + Encode(z_s) * C_LCM``

per coordinate, so the decoded aggregate ``(signed / C_LCM) * precision`` is
the *identical integer arithmetic* Protocol 1 decrypts -- the two backends
agree bit for bit under full participation (enforced by
``tests/protocol/test_backend_equivalence.py``).

Security model caveat (documented in ``docs/protocol_performance.md``): this
is the semi-honest single-mask scheme.  Real Bonawitz et al. adds per-silo
self-masks with Shamir-shared seeds so a server cannot learn a silo's vector
by falsely reporting it dropped; here the reveal is scoped to one round by
the per-round key derivation, but a lying server is out of the threat model.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

import numpy as np

from repro.crypto.dh import DHGroup, DHKeypair, derive_shared_key
from repro.crypto.encoding import (
    DEFAULT_PRECISION,
    MagnitudeBudgetError,
    check_magnitude_budget,
    decode_vector,
    encode_vector,
    lcm_up_to,
    require_magnitude_headroom,
)
from repro.crypto.masking import PairwiseMasker, prg_field_elements
from repro.obs.metrics import get_registry

#: KDF context for the long-term pair keys (distinct from Protocol 1's
#: ``"secure-agg"`` so the two backends never share key material).
PAIR_KEY_CONTEXT = "masked-agg"

#: PRG domain-separation label for the per-round delta masks.  The *key*
#: varies per round (see :func:`derive_round_key`), so the label itself can
#: stay constant -- what matters is that a revealed round key opens exactly
#: this one stream.
MASK_STREAM_CONTEXT = "masked-delta"


def derive_round_key(pair_key: bytes, round_no: int) -> bytes:
    """Per-round mask key for one silo pair.

    A one-way derivation from the long-term pair key and the round number:
    revealing it (dropout recovery) lets the server remove this round's
    unmatched masks but says nothing about any other round's masks or the
    pair key itself.
    """
    if round_no < 0:
        raise ValueError("round number must be non-negative")
    return hashlib.sha256(
        b"uldp-fl|masked-round|" + round_no.to_bytes(8, "big") + b"|" + pair_key
    ).digest()


def weight_numerators(
    round_weights: np.ndarray, histogram: np.ndarray, c_lcm: int
) -> np.ndarray:
    """Integer numerators ``round(w[s,u] * C_LCM)`` -- exact where possible.

    When ``round_weights[s, u]`` is the proportional weight
    ``n_su / N_u`` (bit-identical to the float
    :func:`~repro.core.weighting.proportional_weights` computes, which
    participation masking preserves by zeroing whole rows), the numerator
    is formed as the exact integer ``n_su * (C_LCM // N_u)`` -- the same
    integer Protocol 1 encrypts, which is what makes the masked and
    Paillier backends (and the Paillier test oracle,
    ``tests/protocol/oracle_reference.py``) agree bit for bit.  Renormalised weights
    (``renorm="survivors"``/``"carryover"`` gains) fall back to rounding,
    with error at most ``1/(2*C_LCM)`` per unit weight.
    """
    hist = np.asarray(histogram)
    weights = np.asarray(round_weights, dtype=np.float64)
    if weights.shape != hist.shape:
        raise ValueError("round_weights and histogram shapes differ")
    totals = hist.sum(axis=0)
    numerators = np.zeros(weights.shape, dtype=object)
    for s in range(weights.shape[0]):
        for u in range(weights.shape[1]):
            w = weights[s, u]
            if w == 0.0:
                continue
            n_u = int(totals[u])
            if n_u > 0 and w == float(hist[s, u]) / float(n_u):
                numerators[s, u] = int(hist[s, u]) * (c_lcm // n_u)
            else:
                numerators[s, u] = int(round(w * c_lcm))
    return numerators


def encode_weighted_payload(
    contributions: dict[int, np.ndarray],
    numerators: dict[int, int],
    noise: np.ndarray,
    precision: float,
    c_lcm: int,
    modulus: int,
) -> list[int]:
    """One silo's plaintext field vector (before masking).

    Per coordinate: ``sum_u Encode(delta_su) * num_u + Encode(z_s) * C_LCM``
    in F_modulus -- the same integer the Paillier path accumulates inside
    the ciphertext sum, so both backends decode to the identical float.
    """
    total = [e * c_lcm % modulus for e in encode_vector(noise, precision, modulus)]
    for user, delta in contributions.items():
        num = numerators.get(user, 0)
        if num == 0:
            continue
        encoded = encode_vector(delta, precision, modulus)
        for k in range(len(total)):
            total[k] = (total[k] + encoded[k] * num) % modulus
    return total


class MaskedSilo:
    """One silo's role: DH key agreement plus per-round mask application."""

    def __init__(self, silo_id: int, group: DHGroup, rng: random.Random | None = None):
        self.silo_id = silo_id
        self.group = group
        self.keypair: DHKeypair = group.keypair(rng=rng)
        self.pair_keys: dict[int, bytes] = {}

    def dh_public(self) -> int:
        return self.keypair.public

    def receive_dh_publics(self, publics: dict[int, int]) -> None:
        """Derive a long-term pair key with every peer (setup step)."""
        for peer, public in publics.items():
            if peer == self.silo_id:
                continue
            secret = self.keypair.shared_secret(public)
            self.pair_keys[peer] = derive_shared_key(secret, PAIR_KEY_CONTEXT)

    def round_keys(self, round_no: int) -> dict[int, bytes]:
        """Fresh per-round mask keys for every peer."""
        return {
            peer: derive_round_key(key, round_no)
            for peer, key in self.pair_keys.items()
        }

    def masked_payload(
        self, values: list[int], round_no: int, modulus: int
    ) -> list[int]:
        """Add the net pairwise mask for this round to a field vector."""
        masker = PairwiseMasker(self.silo_id, self.round_keys(round_no), modulus)
        mask = masker.mask_vector(len(values), context=MASK_STREAM_CONTEXT)
        return [(v + m) % modulus for v, m in zip(values, mask)]

    def reveal_round_keys(self, dropped: list[int], round_no: int) -> dict[int, bytes]:
        """Dropout recovery: hand the server this round's keys with ``dropped``.

        Only the one-way per-round derivation leaves the silo; the long-term
        pair keys (and with them every other round's masks) stay private.
        """
        return {
            peer: derive_round_key(self.pair_keys[peer], round_no)
            for peer in dropped
            if peer in self.pair_keys
        }


@dataclass
class MaskedServerView:
    """Everything the server observes -- the privacy tests read this."""

    dh_publics: dict[int, int] = field(default_factory=dict)
    #: Per round: silo id -> the masked field vector it uploaded.
    masked_vectors: list[dict[int, list[int]]] = field(default_factory=list)
    #: Per recovery event: (round_no, survivor, dropped silo ids revealed).
    reveals: list[tuple[int, int, tuple[int, ...]]] = field(default_factory=list)


class MaskedAggregationProtocol:
    """Orchestrates masked secure aggregation across a fixed silo roster.

    Unlike :class:`~repro.protocol.runner.PrivateWeightingProtocol`, rounds
    accept *partial participation*: pass ``None`` for a dropped silo's
    vector and the survivors' unmatched masks are reconstructed from
    revealed round keys and subtracted, so the round yields exactly the
    field sum over survivors.

    The instance is deterministic under a ``seed``: DH private keys come
    from a seeded ``random.Random``, so a checkpoint/resume rebuild derives
    identical pair keys and only :attr:`round_no` is dynamic state.

    ``group`` is the key-agreement group; None = RFC 3526 group 14 (tests
    pass the 512-bit ``DHGroup.test_group()`` explicitly).
    """

    def __init__(
        self,
        n_silos: int,
        mask_bits: int = 256,
        precision: float = DEFAULT_PRECISION,
        n_max: int = 64,
        seed: int | None = None,
        group: DHGroup | None = None,
    ):
        # Imported here, not at module level: the protocol package imports
        # the crypto package, so a top-level import would be circular.
        from repro.protocol.timing import PhaseTimer

        if n_silos < 1:
            raise ValueError("need at least one silo")
        if mask_bits < 64:
            raise ValueError("mask_bits must be at least 64")
        self.n_silos = n_silos
        self.mask_bits = mask_bits
        self.modulus = 1 << mask_bits
        self.precision = precision
        self.n_max = n_max
        self.c_lcm = lcm_up_to(n_max)
        # check_round_magnitude has no floor on max_abs, and its callers
        # count n_silos * (n_users + 1) terms with at least one user.
        require_magnitude_headroom(
            n_max, "mask_bits", mask_bits, precision, 0.0, 2 * n_silos
        )
        self.group = group if group is not None else DHGroup.rfc3526_2048()
        self.rng = random.Random(seed) if seed is not None else None
        self.timer = PhaseTimer()
        self.view = MaskedServerView()
        self.silos: list[MaskedSilo] = []
        self.round_no = 0

    @property
    def mask_bytes(self) -> int:
        """Uplink bytes per coordinate (one field element)."""
        return (self.mask_bits + 7) // 8

    def run_setup(self) -> None:
        """DH keygen and pairwise key agreement (once per training run)."""
        with self.timer.phase("keygen"):
            self.silos = [
                MaskedSilo(s, self.group, rng=self.rng) for s in range(self.n_silos)
            ]
        with self.timer.phase("key_exchange"):
            publics = {s.silo_id: s.dh_public() for s in self.silos}
            self.view.dh_publics = dict(publics)
            for silo in self.silos:
                silo.receive_dh_publics(publics)

    def check_round_magnitude(self, max_abs_value: float, num_terms: int) -> None:
        """Theorem 4 condition (2) for the mask field; raises on overflow."""
        if not check_magnitude_budget(
            self.modulus, self.c_lcm, self.precision, max_abs_value, num_terms
        ):
            raise MagnitudeBudgetError(
                "masked-aggregation magnitude budget exceeded: raise "
                f"mask_bits, lower n_max (= {self.n_max}), or coarsen precision"
            )

    def run_round(self, field_vectors: list[list[int] | None]) -> list[int]:
        """One aggregation round; ``None`` entries are dropped silos.

        Returns the per-coordinate field sum over the surviving silos'
        plaintext vectors (masks cancelled / recovered), ready for
        :meth:`decode_aggregate`.
        """
        if not self.silos:
            raise RuntimeError("run_setup() must be called before run_round()")
        if len(field_vectors) != self.n_silos:
            raise ValueError("need one (possibly None) vector per silo")
        survivors = [s for s, v in enumerate(field_vectors) if v is not None]
        dropped = [s for s, v in enumerate(field_vectors) if v is None]
        if not survivors:
            raise ValueError("cannot aggregate a round with zero survivors")
        d = len(field_vectors[survivors[0]])
        if any(len(field_vectors[s]) != d for s in survivors):
            raise ValueError("silo vector length mismatch")
        round_no = self.round_no
        m = self.modulus

        with self.timer.phase("mask_and_upload"):
            uploads = {
                s: self.silos[s].masked_payload(field_vectors[s], round_no, m)
                for s in survivors
            }
            self.view.masked_vectors.append(uploads)
        get_registry().counter(
            "secagg_masked_uploads_total",
            help="Masked silo vectors uploaded to the aggregator.",
        ).inc(len(uploads))

        with self.timer.phase("aggregate"):
            totals = [0] * d
            for vec in uploads.values():
                for k in range(d):
                    totals[k] = (totals[k] + vec[k]) % m

        if dropped:
            get_registry().counter(
                "secagg_dropout_recoveries_total",
                help="Dropped silos whose masks were recovered via reveals.",
            ).inc(len(dropped))
            with self.timer.phase("dropout_recovery"):
                for i in survivors:
                    revealed = self.silos[i].reveal_round_keys(dropped, round_no)
                    self.view.reveals.append((round_no, i, tuple(sorted(revealed))))
                    for j, key in revealed.items():
                        stream = prg_field_elements(
                            key, d, m, context=MASK_STREAM_CONTEXT
                        )
                        sign = 1 if j > i else -1
                        for k in range(d):
                            totals[k] = (totals[k] - sign * stream[k]) % m

        self.round_no += 1
        return totals

    def decode_aggregate(self, totals: list[int]) -> np.ndarray:
        """Field sum -> float aggregate (signed decode, /C_LCM, *precision)."""
        return decode_vector(totals, self.precision, self.c_lcm, self.modulus)

    # -- checkpoint serialisation -------------------------------------------

    def state_dict(self) -> dict:
        """Dynamic protocol state; key material is rebuilt from the seed."""
        return {"round_no": self.round_no}

    def load_state(self, state: dict) -> None:
        self.round_no = int(state["round_no"])

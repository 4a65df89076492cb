"""Pairwise-mask secure aggregation with dropout recovery (Bonawitz-style).

The ``crypto_backend="masked"`` alternative to Protocol 1's Paillier path
(``"fast"``): each silo adds a *pairwise additive mask* to its fixed-point
field vector instead of encrypting every coordinate.  Two message
schedules run by :class:`~repro.protocol.driver.Driver` between a
:class:`MaskedServer` and |S| :class:`MaskedSilo` parties:

- **Set-up** (once): every pair of silos runs Diffie-Hellman over the
  relayed publics and derives a long-term pair key (KDF context
  ``"masked-agg"``, independent of Protocol 1's ``"secure-agg"`` keys).
- **Round**: each pair derives a fresh *round key* from the pair key and the
  round number and expands it (:func:`~repro.crypto.masking.
  prg_field_elements`); silo ``i`` adds the stream for every peer ``j > i``
  and subtracts it for every ``j < i``.  Over the full roster the masks
  cancel in F_m, so the server learns only the sum.  A dropped silo leaves
  unmatched streams: each survivor reveals its round keys with the dropped
  silos and the server subtracts those streams -- per-round derivations,
  so the reveal exposes this round's masks only.

A round takes Protocol 1's inputs, and silo ``s`` forms its own upload:
``sum_u Encode(delta_su) * (n_su * C_LCM / N_u) + Encode(z_s) * C_LCM`` per
coordinate in ``F_{2^mask_bits}`` with Protocol 1's fixed-point encoding
(:mod:`repro.crypto.encoding`), so the decoded aggregate is the *identical
integer arithmetic* Protocol 1 decrypts: the two backends agree bit for bit
under full participation (``tests/protocol/test_backend_equivalence.py``).

Security caveat (``docs/protocol_performance.md``): this is the semi-honest
single-mask scheme.  Real Bonawitz et al. adds self-masks with
Shamir-shared seeds so a server cannot learn a silo's vector by falsely
reporting it dropped; a lying server is out of this threat model.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from repro.core.weighting import QuorumError, proportional_weights
from repro.crypto.dh import DHGroup, DHKeypair, derive_shared_key
from repro.crypto.encoding import (
    DEFAULT_PRECISION,
    MagnitudeBudgetError,
    check_magnitude_budget,
    decode_vector,
    encode_vector,
    lcm_up_to,
    require_magnitude_headroom,
    round_max_abs,
)
from repro.crypto.masking import PairwiseMasker, prg_field_elements
from repro.net.wire import Frame, blob_ints, int_blob
from repro.obs.metrics import get_registry
from repro.protocol.driver import HOST, KEY_EXCHANGE, SERVER, SILO, Driver, KeyHolder, KeyRelay

#: KDF context for the long-term pair keys (distinct from Protocol 1's
#: ``"secure-agg"`` so the two backends never share key material).
PAIR_KEY_CONTEXT = "masked-agg"

#: PRG label for the per-round delta masks (the *key* varies per round, so
#: a revealed round key opens exactly this one stream).
MASK_STREAM_CONTEXT = "masked-delta"

#: A round: masked vectors up; after a dropout, each survivor's key reveal.
ROUND = (
    ("mask_and_upload", HOST, SILO, "upload"),
    ("mask_and_upload", SILO, SERVER, "masked_vector"),
    ("aggregate", HOST, SERVER, "aggregate"),
    ("dropout_recovery", SERVER, SILO, "dropped"),
    ("dropout_recovery", SILO, SERVER, "reveal"),
)


def derive_round_key(pair_key: bytes, round_no: int) -> bytes:
    """Per-round mask key for one silo pair: one-way from the pair key, so
    revealing it (dropout recovery) opens this round's masks only."""
    if round_no < 0:
        raise ValueError("round number must be non-negative")
    return hashlib.sha256(
        b"uldp-fl|masked-round|" + round_no.to_bytes(8, "big") + b"|" + pair_key
    ).digest()


def weight_numerators(
    round_weights: np.ndarray, histogram: np.ndarray, c_lcm: int
) -> np.ndarray:
    """Integer numerators ``round(w[s,u] * C_LCM)`` -- exact where possible.

    Where ``round_weights[s, u]`` is the proportional float ``n_su / N_u``
    (participation masking zeroes whole rows, so it survives), the
    numerator is the exact ``n_su * (C_LCM // N_u)`` Protocol 1 encrypts:
    that makes the masked and Paillier backends agree bit for bit.
    Renormalised weights fall back to rounding (error <= ``1/(2*C_LCM)``).
    """
    hist = np.asarray(histogram)
    weights = np.asarray(round_weights, dtype=np.float64)
    if weights.shape != hist.shape:
        raise ValueError("round_weights and histogram shapes differ")
    totals = hist.sum(axis=0)
    numerators = np.zeros(weights.shape, dtype=object)
    for s, u in zip(*np.nonzero(weights)):
        w, n_u = weights[s, u], int(totals[u])
        exact = n_u > 0 and w == float(hist[s, u]) / float(n_u)
        numerators[s, u] = int(hist[s, u]) * (c_lcm // n_u) if exact else int(round(w * c_lcm))
    return numerators


def encode_weighted_payload(
    contributions: dict[int, np.ndarray],
    numerators: dict[int, int],
    noise: np.ndarray,
    precision: float,
    c_lcm: int,
    modulus: int,
) -> list[int]:
    """One silo's plaintext field vector (before masking): per coordinate
    ``sum_u Encode(delta_su) * num_u + Encode(z_s) * C_LCM`` in F_modulus,
    the integer the Paillier path accumulates inside its ciphertext sum."""
    total = [e * c_lcm % modulus for e in encode_vector(noise, precision, modulus)]
    for user, delta in contributions.items():
        num = numerators.get(user, 0)
        if num == 0:
            continue
        encoded = encode_vector(delta, precision, modulus)
        for k in range(len(total)):
            total[k] = (total[k] + encoded[k] * num) % modulus
    return total


class MaskedSilo(KeyHolder):
    """One silo: DH key agreement, then per round its own masked upload.
    ``encoding`` is ``(precision, C_LCM, modulus)``; before a round the
    protocol sets :attr:`inputs` -- ``(clipped deltas, {user: weight
    numerator}, noise, round_no)``."""

    def __init__(self, silo_id: int, group: DHGroup, encoding: tuple,
                 rng: random.Random | None = None):
        self.silo_id = silo_id
        self.encoding = encoding
        self.dh_keypair: DHKeypair = group.keypair(rng=rng)
        self.pair_keys: dict[int, bytes] = {}
        self.inputs: tuple | None = None

    def reveal_round_keys(self, dropped: list[int], round_no: int) -> dict[int, bytes]:
        """Dropout recovery: this round's keys with ``dropped``.  Only the
        one-way per-round derivation leaves the silo; the long-term pair
        keys (and with them every other round's masks) stay private."""
        keys = self.pair_keys
        return {peer: derive_round_key(keys[peer], round_no) for peer in dropped if peer in keys}

    def receive_dh_publics(self, publics: dict[int, int]) -> None:
        """Derive a long-term pair key with every peer."""
        for peer, public in publics.items():
            if peer != self.silo_id:
                secret = self.dh_keypair.shared_secret(public)
                self.pair_keys[peer] = derive_shared_key(secret, PAIR_KEY_CONTEXT)

    def on_upload(self, frame):
        """Encode the weighted payload, then add this round's net pairwise
        mask: the masked counterpart of Protocol 1's ``SiloParty.on_weigh``."""
        deltas, numerators, noise, round_no = self.inputs
        precision, c_lcm, m = self.encoding
        values = encode_weighted_payload(deltas, numerators, noise, precision, c_lcm, m)
        keys = {peer: derive_round_key(key, round_no) for peer, key in self.pair_keys.items()}
        mask = PairwiseMasker(self.silo_id, keys, m).mask_vector(len(values), MASK_STREAM_CONTEXT)
        vector = int_blob([(v + r) % m for v, r in zip(values, mask)], m)
        return [Frame("masked_vector", {"round": round_no}, {"vector": vector})]

    def on_dropped(self, frame):
        keys = self.reveal_round_keys(frame.payload["dropped"], frame.payload["round"])
        raw = np.frombuffer(b"".join(keys.values()), np.uint8).reshape(len(keys), -1)
        return [Frame("reveal", {"round": frame.payload["round"], "peers": list(keys)}, {"keys": raw})]


class MaskedServer(KeyRelay):
    """The aggregator: relays DH publics, sums the masked uploads and
    removes a dropped silo's unmatched masks using the revealed round keys;
    :attr:`totals` is the last round's field sum over the survivors."""

    def __init__(self, n_silos: int, modulus: int):
        self.n_silos, self.modulus = n_silos, modulus
        self.dh_publics: dict[int, np.ndarray] = {}
        self.uploads: dict[int, list[int]] = {}
        self.totals: list[int] = []

    def on_masked_vector(self, frame):
        self.round_no = frame.payload["round"]
        self.uploads[frame.payload["silo"]] = blob_ints(frame.arrays["vector"])

    def on_aggregate(self, frame):
        """Sum the uploads; ask each survivor for its keys with the silos
        that uploaded nothing."""
        uploads, self.uploads = self.uploads, {}
        get_registry().counter(
            "secagg_masked_uploads_total",
            help="Masked silo vectors uploaded to the aggregator.",
        ).inc(len(uploads))
        self.totals = [sum(column) % self.modulus for column in zip(*uploads.values())]
        dropped = [s for s in range(self.n_silos) if s not in uploads]
        if not dropped:
            return []
        get_registry().counter(
            "secagg_dropout_recoveries_total",
            help="Dropped silos whose masks were recovered via reveals.",
        ).inc(len(dropped))
        payload = {"round": self.round_no, "dropped": dropped}
        return [Frame("dropped", {"silo": s, **payload}) for s in uploads]

    def on_reveal(self, frame):
        """Subtract the unmatched streams one survivor's keys open."""
        i, m, d = frame.payload["silo"], self.modulus, len(self.totals)
        for j, key in zip(frame.payload["peers"], frame.arrays["keys"]):
            stream = prg_field_elements(key.tobytes(), d, m, context=MASK_STREAM_CONTEXT)
            sign = 1 if j > i else -1
            for k in range(d):
                self.totals[k] = (self.totals[k] - sign * stream[k]) % m


class MaskedAggregationProtocol(Driver):
    """Masked secure aggregation across a fixed silo roster.

    ``histogram`` is the true n[s, u] matrix (the weight numerators' exact
    form); ``n_max``, ``precision`` and ``dh_group`` (None = RFC 3526 group
    14) are Protocol 1's.  Unlike
    :class:`~repro.protocol.runner.PrivateWeightingProtocol`, rounds accept
    *partial participation*: a dropped silo has no noise, and the round
    yields the weighted sum over the survivors -- at least
    ``min_survivors`` of them, or :class:`~repro.core.weighting.QuorumError`
    (a server faking dropouts to shrink the survivor set,
    docs/protocol_performance.md).  Under a ``seed`` the DH keys come from a
    seeded ``random.Random``, so a checkpoint/resume rebuild derives
    identical pair keys and only :attr:`round_no` is dynamic state.
    """

    backend = "masked"
    key_knob, key_is_modulus = "mask_bits", False
    dropout_refusal = None
    silos_see_sampling = True

    def __init__(
        self,
        histogram: np.ndarray,
        mask_bits: int = 256,
        precision: float = DEFAULT_PRECISION,
        n_max: int = 64,
        seed: int | None = None,
        dh_group: DHGroup | None = None,
        min_survivors: int = 1,
    ):
        super().__init__()
        histogram = np.asarray(histogram, dtype=np.int64)
        if histogram.ndim != 2 or histogram.shape[0] < 1:
            raise ValueError("histogram must be (|S|, |U|) with at least one silo")
        if int(histogram.sum(axis=0).max(initial=0)) > n_max:
            raise ValueError("some user exceeds N_max across silos; raise n_max")
        if mask_bits < 64:
            raise ValueError("mask_bits must be at least 64")
        self.histogram = histogram
        self.n_silos, self.n_users = histogram.shape
        self.mask_bits, self.modulus = mask_bits, 1 << mask_bits
        self.n_max, self.c_lcm, self.precision = n_max, lcm_up_to(n_max), precision
        self.min_survivors = min_survivors
        self._num_terms = self.n_silos * (self.n_users + 1)
        # check_round_magnitude has no floor on max_abs.
        require_magnitude_headroom(n_max, self.key_knob, mask_bits, precision, 0.0, self._num_terms)
        self.group = dh_group if dh_group is not None else DHGroup.rfc3526_2048()
        self.rng = random.Random(seed) if seed is not None else None
        self.silos: list[MaskedSilo] = []
        self.server: MaskedServer | None = None

    @property
    def mask_bytes(self) -> int:
        """Uplink bytes per coordinate (one field element)."""
        return (self.mask_bits + 7) // 8

    coordinate_bytes = mask_bytes

    def run_setup(self) -> None:
        """DH keygen and pairwise key agreement (once per training run)."""
        with self.phase("keygen"):
            encoding = (self.precision, self.c_lcm, self.modulus)
            self.silos = [MaskedSilo(s, self.group, encoding, rng=self.rng)
                          for s in range(self.n_silos)]
            self.server = MaskedServer(self.n_silos, self.modulus)
        self.setup(KEY_EXCHANGE)

    def check_round_magnitude(self, max_abs_value: float, num_terms: int) -> None:
        """Theorem 4 condition (2) for the mask field; raises on overflow."""
        if not check_magnitude_budget(
            self.modulus, self.c_lcm, self.precision, max_abs_value, num_terms
        ):
            raise MagnitudeBudgetError(
                "masked-aggregation magnitude budget exceeded: raise "
                f"mask_bits, lower n_max (= {self.n_max}), or coarsen precision"
            )

    def run_round(
        self,
        clipped_deltas: list[dict[int, np.ndarray]],
        noises: list[np.ndarray | None],
        round_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Protocol 1's round inputs, a dropped silo's noise None (weights
        None = the histogram's ``n_su / N_u``).  Quorum, weight numerators
        and magnitude budget are settled before any party state changes;
        each survivor then encodes and masks its own payload.  Returns the
        decoded weighted sum over the survivors plus their noise."""
        self.require_setup()
        if len(clipped_deltas) != self.n_silos or len(noises) != self.n_silos:
            raise ValueError("need one delta dict and noise entry per silo")
        survivors = [s for s, noise in enumerate(noises) if noise is not None]
        if not survivors:
            raise ValueError("cannot aggregate a round with zero survivors")
        if len(survivors) < self.min_survivors:
            raise QuorumError(
                f"masked secure aggregation has {len(survivors)} surviving silo(s) this "
                f"round, below min_survivors={self.min_survivors}; refusing to aggregate "
                "over so few silos (see docs/protocol_performance.md)")
        if any(len(noises[s]) != len(noises[survivors[0]]) for s in survivors):
            raise ValueError("silo vector length mismatch")
        if round_weights is None:
            round_weights = proportional_weights(self.histogram)
        numerators = weight_numerators(round_weights, self.histogram, self.c_lcm)
        max_abs = round_max_abs(clipped_deltas, [noises[s] for s in survivors], survivors)
        self.check_round_magnitude(max_abs, self._num_terms)
        for s in survivors:
            deltas = clipped_deltas[s]
            nums = {user: numerators[s, user] for user in deltas}
            self.silos[s].inputs = (deltas, nums, noises[s], self.round_no)
        self.round(ROUND, silos=survivors)
        return self.decode_aggregate(self.server.totals)

    def decode_aggregate(self, totals: list[int]) -> np.ndarray:
        """Field sum -> float aggregate (signed decode, /C_LCM, *precision)."""
        return decode_vector(totals, self.precision, self.c_lcm, self.modulus)

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

Silo ``s`` submits ``sum_u Encode(delta_su) * (n_su * C_LCM / N_u) +
Encode(z_s) * C_LCM`` per coordinate in ``F_{2^mask_bits}`` with Protocol
1's fixed-point encoding (:mod:`repro.crypto.encoding`), so the decoded
aggregate is the *identical integer arithmetic* Protocol 1 decrypts: the
two backends agree bit for bit under full participation
(``tests/protocol/test_backend_equivalence.py``).

Security caveat (``docs/protocol_performance.md``): this is the semi-honest
single-mask scheme.  Real Bonawitz et al. adds self-masks with
Shamir-shared seeds so a server cannot learn a silo's vector by falsely
reporting it dropped; a lying server is out of this threat model.
"""

from __future__ import annotations

import hashlib
import random

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
    """One silo: DH key agreement plus per-round masking.  Before a round
    the protocol sets :attr:`inputs` -- ``(field vector, round_no, modulus)``."""

    def __init__(self, silo_id: int, group: DHGroup, rng: random.Random | None = None):
        self.silo_id = silo_id
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
        """Add this round's net pairwise mask to the field vector."""
        values, round_no, m = self.inputs
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

    Unlike :class:`~repro.protocol.runner.PrivateWeightingProtocol`, rounds
    accept *partial participation*: ``None`` marks a dropped silo, and the
    round yields exactly the field sum over the survivors.  Under a
    ``seed`` the DH keys come from a seeded ``random.Random``, so a
    checkpoint/resume rebuild derives identical pair keys and only
    :attr:`round_no` is dynamic state.  ``group`` is the key-agreement
    group; None = RFC 3526 group 14 (tests pass a 512-bit group).
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
        super().__init__()
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
        require_magnitude_headroom(n_max, "mask_bits", mask_bits, precision, 0.0, 2 * n_silos)
        self.group = group if group is not None else DHGroup.rfc3526_2048()
        self.rng = random.Random(seed) if seed is not None else None
        self.silos: list[MaskedSilo] = []
        self.server: MaskedServer | None = None
        self.round_no = 0

    @property
    def mask_bytes(self) -> int:
        """Uplink bytes per coordinate (one field element)."""
        return (self.mask_bits + 7) // 8

    def run_setup(self) -> None:
        """DH keygen and pairwise key agreement (once per training run)."""
        with self.phase("keygen"):
            self.silos = [MaskedSilo(s, self.group, rng=self.rng) for s in range(self.n_silos)]
            self.server = MaskedServer(self.n_silos, self.modulus)
        self.run(KEY_EXCHANGE)

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
        if not survivors:
            raise ValueError("cannot aggregate a round with zero survivors")
        d = len(field_vectors[survivors[0]])
        if any(len(field_vectors[s]) != d for s in survivors):
            raise ValueError("silo vector length mismatch")
        for s in survivors:
            self.silos[s].inputs = (field_vectors[s], self.round_no, self.modulus)
        self.run(ROUND, silos=survivors)
        self.round_no += 1
        return self.server.totals

    def decode_aggregate(self, totals: list[int]) -> np.ndarray:
        """Field sum -> float aggregate (signed decode, /C_LCM, *precision)."""
        return decode_vector(totals, self.precision, self.c_lcm, self.modulus)

    # -- checkpoint serialisation -------------------------------------------

    def state_dict(self) -> dict:
        """Dynamic protocol state; key material is rebuilt from the seed."""
        return {"round_no": self.round_no}

    def load_state(self, state: dict) -> None:
        self.round_no = int(state["round_no"])

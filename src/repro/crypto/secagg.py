"""Pairwise-mask secure aggregation with dropout recovery (Bonawitz-style).

The ``crypto_backend="masked"`` alternative to Protocol 1's Paillier path
(``"fast"``), after Bonawitz et al. (CCS 2017): each silo adds a *pairwise
additive mask* to its own release instead of encrypting every coordinate.
Two message schedules run by :class:`~repro.protocol.driver.Driver` between
a :class:`MaskedServer` and |S| :class:`MaskedSilo` parties:

- **Set-up** (once): every pair of silos runs Diffie-Hellman over the
  relayed publics and derives a long-term pair key (KDF context
  ``"masked-agg"``, independent of Protocol 1's ``"secure-agg"`` keys).
- **Round**: each pair derives a fresh *round key* from the pair key and the
  round number and expands it into one SHAKE-256 stream of 64-bit words
  (:func:`mask_stream`); silo ``i`` adds the stream for every peer ``j > i``
  and subtracts it for every ``j < i``.  Over the full roster the masks
  cancel in Z_{2^64}, so the server learns only the sum.  A dropped silo
  leaves unmatched streams: each survivor reveals its round keys with the
  dropped silos and the server subtracts those streams -- per-round
  derivations, so the reveal exposes this round's masks only.

What a silo masks is its release: the float32 noisy weighted sum
``z_s + sum_u w[s,u] * clip(delta_su)`` that every carrier of
:class:`~repro.core.UldpAvg` forms.  It goes up as fixed point in
Z_{2^64}, ``rint(release / P)`` as int64 viewed as uint64
(:func:`encode_release`), 8 B a coordinate.  uint64 sums wrap natively, so
the server's total read back as int64 and scaled by P is exactly
``P * sum_s rint(release_s / P)`` whenever that sum fits in int64: the
per-round headroom check, Theorem 4's condition (2) at modulus 2^64.

Security caveat (``docs/protocol_performance.md``): this is the semi-honest
single-mask scheme.  Real Bonawitz et al. adds self-masks with
Shamir-shared seeds so a server cannot learn a silo's vector by falsely
reporting it dropped; a lying server is out of this threat model.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from repro.core.weighting import QuorumError
from repro.crypto.dh import DHGroup, DHKeypair, derive_shared_key
from repro.crypto.encoding import (
    DEFAULT_PRECISION,
    MagnitudeBudgetError,
    check_magnitude_budget,
    round_max_abs,
)
from repro.net.wire import Frame
from repro.protocol.driver import HOST, KEY_EXCHANGE, SERVER, SILO, Driver, KeyHolder, KeyRelay

#: KDF context for the long-term pair keys (distinct from Protocol 1's
#: ``"secure-agg"`` so the two backends never share key material).
PAIR_KEY_CONTEXT = "masked-agg"

#: XOF label for the per-round release masks (the *key* varies per round,
#: so a revealed round key opens exactly this one stream).
MASK_STREAM_CONTEXT = "masked-delta"

#: Uplink bytes per coordinate: one element of Z_{2^64}.
MASK_BYTES = 8

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


def mask_stream(round_key: bytes, size: int) -> np.ndarray:
    """One pair's mask for one round: ``size`` words of Z_{2^64} from one
    SHAKE-256 call over the round key and :data:`MASK_STREAM_CONTEXT`."""
    raw = hashlib.shake_256(round_key + MASK_STREAM_CONTEXT.encode()).digest(MASK_BYTES * size)
    return np.frombuffer(raw, dtype="<u8")


def encode_release(release: np.ndarray, precision: float) -> np.ndarray:
    """A release as fixed point in Z_{2^64}: ``rint(release / P)``, taken
    in float64, as int64 (two's complement) viewed as uint64."""
    scaled = np.rint(np.asarray(release, dtype=np.float64) / precision)
    return scaled.astype(np.int64).view(np.uint64)


class MaskedSilo(KeyHolder):
    """One silo: DH key agreement, then per round its own masked upload.
    Before a round the protocol sets :attr:`inputs` -- ``(release,
    round_no)``."""

    def __init__(self, silo_id: int, group: DHGroup, precision: float,
                 rng: random.Random | None = None):
        self.silo_id = silo_id
        self.precision = precision
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
        """Encode the release, then add this round's net pairwise mask: the
        masked counterpart of Protocol 1's ``SiloParty.on_weigh``."""
        release, round_no = self.inputs
        vector = encode_release(release, self.precision)
        for peer, key in self.pair_keys.items():
            stream = mask_stream(derive_round_key(key, round_no), vector.size)
            if peer > self.silo_id:
                vector += stream
            else:
                vector -= stream
        return [Frame("masked_vector", {"round": round_no}, {"vector": vector})]

    def on_dropped(self, frame):
        keys = self.reveal_round_keys(frame.payload["dropped"], frame.payload["round"])
        raw = np.frombuffer(b"".join(keys.values()), np.uint8).reshape(len(keys), -1)
        return [Frame("reveal", {"round": frame.payload["round"], "peers": list(keys)}, {"keys": raw})]


class MaskedServer(KeyRelay):
    """The aggregator: relays DH publics, sums the masked uploads and
    removes a dropped silo's unmatched masks using the revealed round keys;
    :attr:`totals` is the last round's uint64 sum over the survivors."""

    def __init__(self, n_silos: int):
        self.n_silos = n_silos
        self.dh_publics: dict[int, np.ndarray] = {}
        self.uploads: dict[int, np.ndarray] = {}
        self.totals: np.ndarray | None = None

    def on_masked_vector(self, frame):
        self.round_no = frame.payload["round"]
        self.uploads[frame.payload["silo"]] = frame.arrays["vector"]

    def on_aggregate(self, frame):
        """Sum the uploads; ask each survivor for its keys with the silos
        that uploaded nothing."""
        uploads, self.uploads = self.uploads, {}
        self.totals = np.sum(list(uploads.values()), axis=0, dtype=np.uint64)
        dropped = [s for s in range(self.n_silos) if s not in uploads]
        if not dropped:
            return []
        payload = {"round": self.round_no, "dropped": dropped}
        return [Frame("dropped", {"silo": s, **payload}) for s in uploads]

    def on_reveal(self, frame):
        """Take out the unmatched streams one survivor's keys open."""
        i = frame.payload["silo"]
        for j, key in zip(frame.payload["peers"], frame.arrays["keys"]):
            stream = mask_stream(key.tobytes(), self.totals.size)
            if j > i:
                self.totals -= stream
            else:
                self.totals += stream


class MaskedAggregationProtocol(Driver):
    """Masked secure aggregation of one release per silo, across a fixed
    roster of ``n_silos``.

    ``precision`` is the fixed-point step P and ``dh_group`` (None = RFC
    3526 group 14) the pair keys' group.  Unlike
    :class:`~repro.protocol.runner.PrivateWeightingProtocol`, rounds accept
    *partial participation*: a dropped silo sends no release, and the round
    yields the sum over the survivors -- at least ``min_survivors`` of
    them, or :class:`~repro.core.weighting.QuorumError` (a server faking
    dropouts to shrink the survivor set, docs/protocol_performance.md).
    Under a ``seed`` the DH keys come from a seeded ``random.Random``, so a
    checkpoint/resume rebuild derives identical pair keys and only
    :attr:`round_no` is dynamic state.
    """

    backend = "masked"
    dropout_refusal = None
    coordinate_bytes = MASK_BYTES

    def __init__(
        self,
        n_silos: int,
        precision: float = DEFAULT_PRECISION,
        seed: int | None = None,
        dh_group: DHGroup | None = None,
        min_survivors: int = 1,
    ):
        super().__init__()
        if n_silos < 1:
            raise ValueError("masked secure aggregation needs at least one silo")
        self.n_silos, self.precision, self.min_survivors = n_silos, precision, min_survivors
        self.group = dh_group if dh_group is not None else DHGroup.rfc3526_2048()
        self.rng = random.Random(seed) if seed is not None else None
        self.silos: list[MaskedSilo] = []
        self.server: MaskedServer | None = None

    def run_setup(self) -> None:
        """DH keygen and pairwise key agreement (once per training run)."""
        with self.phase("keygen"):
            self.silos = [MaskedSilo(s, self.group, self.precision, rng=self.rng)
                          for s in range(self.n_silos)]
            self.server = MaskedServer(self.n_silos)
        self.setup(KEY_EXCHANGE)

    def run_round(self, releases: list[np.ndarray | None]) -> np.ndarray:
        """One release per silo, a dropped silo's None.  Quorum and the
        64-bit headroom are settled before any party state changes; each
        survivor then encodes and masks its own release.  Returns
        ``P * sum_s rint(release_s / P)`` over the survivors, in float64."""
        self.require_setup()
        if len(releases) != self.n_silos:
            raise ValueError("need one release entry per silo")
        survivors = [s for s, release in enumerate(releases) if release is not None]
        if not survivors:
            raise ValueError("cannot aggregate a round with zero survivors")
        if len(survivors) < self.min_survivors:
            raise QuorumError(
                f"masked secure aggregation has {len(survivors)} surviving silo(s) this "
                f"round, below min_survivors={self.min_survivors}; refusing to aggregate "
                "over so few silos (see docs/protocol_performance.md)")
        live = [releases[s] for s in survivors]
        if any(len(release) != len(live[0]) for release in live):
            raise ValueError("silo vector length mismatch")
        max_abs = round_max_abs([], live, survivors, label="release")
        if not check_magnitude_budget(1 << 64, 1, self.precision, max_abs, len(survivors)):
            raise MagnitudeBudgetError(
                f"masked-aggregation magnitude budget exceeded: {len(survivors)} releases "
                f"of |value| <= {max_abs:.3g} at precision {self.precision:g} overflow "
                "the 64-bit ring; coarsen precision")
        for s in survivors:
            self.silos[s].inputs = (releases[s], self.round_no)
        self.round(ROUND, silos=survivors)
        return self.server.totals.view(np.int64) * self.precision

"""Pairwise additive masking over F_n (secure aggregation).

This is the cancellation trick at the heart of Bonawitz-style secure
aggregation, used twice in Protocol 1:

- setup step (e): silos mask their blinded histograms so the server only
  learns the *sum* of blinded counts, and
- weighting step (c): silos mask their per-round encrypted model deltas
  (the mask enters the Paillier ciphertext as a homomorphic scalar addition).

For an ordered pair of silos (s, s') with a shared key, both expand the same
PRG stream; silo s adds the stream if s < s' and subtracts it if s > s', so
all mask contributions cancel exactly in the field sum over all silos.
"""

from __future__ import annotations

import hashlib


def prg_field_elements(seed: bytes, count: int, modulus: int, context: str = "") -> list[int]:
    """Expand ``seed`` into ``count`` pseudo-random elements of F_modulus.

    Uses SHA-256 in counter mode.  To keep the modular reduction bias
    negligible, 16 extra bytes beyond the modulus size are drawn per element
    (bias < 2^-128).

    Args:
        seed: PRG seed (typically a derived shared key).
        count: number of field elements to produce.
        modulus: field size n (must be >= 2).
        context: optional domain-separation label mixed into the stream, so
            different protocol steps sharing a seed get independent streams.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    byte_len = (modulus.bit_length() + 7) // 8 + 16
    base = seed + b"|" + context.encode()
    out: list[int] = []
    for i in range(count):
        raw = b""
        block = 0
        while len(raw) < byte_len:
            raw += hashlib.sha256(base + i.to_bytes(8, "big") + block.to_bytes(4, "big")).digest()
            block += 1
        out.append(int.from_bytes(raw[:byte_len], "big") % modulus)
    return out


class PairwiseMasker:
    """Generates the net additive mask for one party in a pairwise scheme.

    Each party is identified by an integer id; ``pair_keys`` maps peer id ->
    shared key bytes (both peers must hold identical bytes for the pair).
    The net mask vector of party i is::

        sum_{j > i} PRG(key_ij)  -  sum_{j < i} PRG(key_ij)    (mod n)

    so the component-wise sum of all parties' masks is zero in F_n.
    """

    def __init__(self, party_id: int, pair_keys: dict[int, bytes], modulus: int):
        self.party_id = party_id
        self.pair_keys = dict(pair_keys)
        self.modulus = modulus

    def mask_vector(self, length: int, context: str) -> list[int]:
        """Net mask vector of ``length`` elements for the given context.

        The context must be unique per protocol step (e.g. include the round
        number); reusing a context would reuse mask values, which is both a
        correctness hazard (non-cancelling) and a security hazard.
        """
        total = [0] * length
        for peer, key in sorted(self.pair_keys.items()):
            if peer == self.party_id:
                continue
            stream = prg_field_elements(key, length, self.modulus, context=context)
            if peer > self.party_id:
                for k in range(length):
                    total[k] = (total[k] + stream[k]) % self.modulus
            else:
                for k in range(length):
                    total[k] = (total[k] - stream[k]) % self.modulus
        return total

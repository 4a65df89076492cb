"""Multiplicative blinding over F_n.

Protocol 1 hides the per-user record counts N_u from the server by having
every silo multiply its count by the *same* secret random unit r_u (derived
from a shared seed R that the server never sees).  The server can sum the
blinded per-silo counts (the blind factors out: sum_s r_u * n_su =
r_u * N_u), invert the blinded total in F_n, and return Paillier-encrypted
inverses -- all without ever learning N_u, because r_u * N_u is uniformly
distributed over F_n* when r_u is uniform.

The silos later cancel the blind by multiplying their ciphertext scalars by
r_u again (r_u * (r_u * N_u)^-1 = N_u^-1 mod n).
"""

from __future__ import annotations

import hashlib
import math


class BlindingFactory:
    """Derives per-user multiplicative blinding units r_u from a shared seed.

    All silos construct a factory from the same seed R and modulus n, so they
    derive identical r_u values without any further communication.  Values
    are guaranteed coprime with n (retry on gcd != 1; for a Paillier modulus
    the failure probability is negligible, see Eq. (4) of the paper).
    """

    def __init__(self, seed: bytes, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        self.seed = seed
        self.modulus = modulus

    def blind_for_user(self, user_id: int) -> int:
        """The blinding unit r_u in F_n* for the given user id."""
        byte_len = (self.modulus.bit_length() + 7) // 8 + 16
        attempt = 0
        while True:
            raw = b""
            block = 0
            while len(raw) < byte_len:
                raw += hashlib.sha256(
                    self.seed
                    + b"|blind|"
                    + user_id.to_bytes(8, "big")
                    + attempt.to_bytes(4, "big")
                    + block.to_bytes(4, "big")
                ).digest()
                block += 1
            r = int.from_bytes(raw[:byte_len], "big") % self.modulus
            if r != 0 and math.gcd(r, self.modulus) == 1:
                return r
            attempt += 1

    def blind(self, user_id: int, value: int) -> int:
        """Blind ``value``: r_u * value mod n."""
        return self.blind_for_user(user_id) * value % self.modulus

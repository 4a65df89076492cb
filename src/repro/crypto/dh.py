"""Finite-field Diffie-Hellman key agreement.

Protocol 1 uses DH twice: (i) every pair of silos derives a shared key that
seeds the pairwise additive masks of secure aggregation, and (ii) silo 0
distributes the shared blinding seed R encrypted under each pairwise key.

We implement classic DH over a safe-prime group.  Groups are committed
constants, never searched for at run time: RFC 3526 group 14 (2048-bit
MODP) is the only group the runtime uses -- both protocol classes fall
back to it and no spec field selects another -- and a 512-bit safe prime
(:data:`TEST_PRIME_512`) lets protocol-level tests run fast.  Private
exponents follow one policy, :meth:`DHGroup.random_exponent` (256-bit
short exponents).  Shared secrets are passed through a SHA-256 KDF with a
context label so that independent purposes (mask PRG, seed transport) use
independent keys.
"""

from __future__ import annotations

import hashlib
import random
import secrets
from dataclasses import dataclass

# RFC 3526 group 14 (2048-bit MODP), generator 2.
RFC3526_PRIME_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
    "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C"
    "180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFF"
    "FFFFFFFF",
    16,
)

# 512-bit safe prime of :meth:`DHGroup.test_group`, generator 2.  Provenance:
# the first safe prime p = 2q + 1 found by drawing q = getrandbits(511) |
# 1 << 510 | 1 from random.Random(0xD1F5) -- q is draw 26 395.  The search
# that found it is tests/crypto/oracle_safe_prime.py (run as a script it
# re-derives the value, ~8 s); tests/crypto/test_dh_masking.py verifies the
# primality of p and q, the generator order and the draw index on every run.
TEST_PRIME_512 = int(
    "B4559AE6E40E742C02FF95795DF4A7FE9FF4E0E795FD3F843FA94C4D"
    "C9C5368FC61BA0ABDE71EEC7BE3A93B2291A149B66198478E9D29250"
    "73ADD825CEB8D453",
    16,
)

#: Private-exponent width in bits: the short-exponent practice of RFC 7919
#: section 5.2 / NIST SP 800-56A rev. 3 (at least twice the group's security
#: strength; group 14 is rated 112-bit).
EXPONENT_BITS = 256


@dataclass(frozen=True)
class DHGroup:
    """A multiplicative group mod a safe prime with a fixed generator."""

    prime: int
    generator: int = 2

    @classmethod
    def rfc3526_2048(cls) -> "DHGroup":
        """RFC 3526 group 14 -- the group every runtime key agreement uses.

        p = 7 (mod 8), so 2 is a quadratic residue and generates the
        prime-order subgroup of order q = (p - 1) / 2: a short exponent
        leaks nothing through small-subgroup structure.
        """
        return cls(RFC3526_PRIME_2048, 2)

    @classmethod
    def test_group(cls) -> "DHGroup":
        """Small (512-bit) group for fast tests; NOT for production.

        Nothing in the runtime falls back to it: tests and the legacy
        ``benchmarks/`` scripts pass it explicitly.  p = 3 (mod 8), so 2 is
        a non-residue and generates the whole group of order 2q rather
        than the prime-order subgroup -- acceptable for a toy group only.
        """
        return cls(TEST_PRIME_512, 2)

    @property
    def label(self) -> str:
        """Name for logs and ``security_summary`` lines."""
        known = {RFC3526_PRIME_2048: "rfc3526-2048", TEST_PRIME_512: "test-512"}
        return known.get(self.prime, f"custom-{self.prime.bit_length()}")

    @property
    def exponent_bits(self) -> int:
        """Private-exponent width: :data:`EXPONENT_BITS`, capped below the
        subgroup order for groups too small to hold that many."""
        return min(EXPONENT_BITS, self.prime.bit_length() - 2)

    def random_exponent(self, rng: random.Random | None = None) -> int:
        """The one private-exponent policy: :attr:`exponent_bits` random
        bits with the top bit set.

        By default the bits come from the ``secrets`` CSPRNG -- the default
        path never reads or advances the global ``random`` state (a
        regression test pins this).  Pass an explicit seeded
        ``random.Random`` only for reproducible tests and simulations.
        """
        bits = self.exponent_bits
        draw = rng.getrandbits(bits) if rng is not None else secrets.randbits(bits)
        return draw | 1 << (bits - 1)

    def keypair(self, rng: random.Random | None = None) -> "DHKeypair":
        """Sample a private exponent (:meth:`random_exponent`) and compute
        the public value."""
        private = self.random_exponent(rng)
        public = pow(self.generator, private, self.prime)
        return DHKeypair(group=self, private=private, public=public)


@dataclass(frozen=True)
class DHKeypair:
    group: DHGroup
    private: int
    public: int

    def shared_secret(self, peer_public: int) -> int:
        """Raw DH shared secret g^(ab) mod p."""
        if not 1 < peer_public < self.group.prime - 1:
            raise ValueError("peer public value out of range")
        return pow(peer_public, self.private, self.group.prime)


def derive_shared_key(secret: int, context: str) -> bytes:
    """KDF: hash the raw shared secret with a purpose label into 32 bytes.

    Using a context label gives independent keys for independent purposes
    (e.g. ``"secure-agg"`` vs ``"seed-transport"``) from one DH exchange.
    """
    secret_bytes = secret.to_bytes((secret.bit_length() + 7) // 8 or 1, "big")
    return hashlib.sha256(b"uldp-fl|" + context.encode() + b"|" + secret_bytes).digest()


def encrypt_with_key(key: bytes, plaintext: bytes) -> bytes:
    """One-time-pad style stream encryption with a SHA-256 counter keystream.

    Used to transport the shared blinding seed R from silo 0 to the other
    silos (Protocol 1, setup step (c)).  The key must be unique per message
    (here: derived per silo pair), making keystream reuse impossible.
    """
    keystream = _keystream(key, len(plaintext))
    return bytes(a ^ b for a, b in zip(plaintext, keystream))


def decrypt_with_key(key: bytes, ciphertext: bytes) -> bytes:
    """Inverse of :func:`encrypt_with_key` (XOR stream is an involution)."""
    return encrypt_with_key(key, ciphertext)


def _keystream(key: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out.extend(hashlib.sha256(key + counter.to_bytes(8, "big")).digest())
        counter += 1
    return bytes(out[:length])

"""The Paillier additively homomorphic cryptosystem.

The private weighting protocol (Protocol 1 of the paper) relies on three
homomorphic operations, all provided here:

- addition of two ciphertexts:      Enc(a) (+) Enc(b)      = Enc(a + b)
- addition of a plaintext scalar:   Enc(a) (+) b           = Enc(a + b)
- multiplication by a plaintext:    Enc(a) (*) k           = Enc(a * k)

Plaintexts live in the additive group F_n = Z/nZ; ciphertexts live in the
multiplicative group mod n^2.  We use the standard g = n + 1 optimisation so
encryption needs a single modular exponentiation (for the random blinding
term r^n) and decryption uses the CRT-free L-function form.

Reference: Paillier, "Public-key cryptosystems based on composite degree
residuosity classes", EUROCRYPT 1999.
"""

from __future__ import annotations

import math
import random
import secrets
from dataclasses import dataclass

from repro.crypto.primes import random_distinct_primes

#: Default modulus size (bits) used by tests and benchmarks.  The paper uses
#: 3072-bit security; we default far smaller so that the full protocol runs
#: quickly, and expose the size as a parameter everywhere.
DEFAULT_KEY_BITS = 512


@dataclass(frozen=True)
class PaillierCiphertext:
    """An element of Z*_{n^2} holding an encrypted value in F_n.

    Instances are immutable; arithmetic returns new ciphertexts.  The
    ciphertext remembers its public key so that homomorphic operations can
    validate operand compatibility.
    """

    value: int
    public_key: "PaillierPublicKey"

    def __add__(self, other: "PaillierCiphertext | int") -> "PaillierCiphertext":
        if isinstance(other, PaillierCiphertext):
            if other.public_key is not self.public_key and other.public_key != self.public_key:
                raise ValueError("cannot add ciphertexts under different keys")
            return self.public_key.add(self, other)
        return self.public_key.add_scalar(self, other)

    __radd__ = __add__

    def __mul__(self, scalar: int) -> "PaillierCiphertext":
        return self.public_key.mul_scalar(self, scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class PaillierPublicKey:
    """Paillier public key (n, g) with g = n + 1."""

    n: int

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    def encrypt(self, plaintext: int, rng: random.Random | None = None) -> PaillierCiphertext:
        """Encrypt ``plaintext`` (reduced into F_n).

        With g = n + 1, ``g^m = 1 + m*n (mod n^2)``, so the ciphertext is
        ``(1 + m*n) * r^n mod n^2`` for a random ``r`` coprime with ``n``.
        """
        m = plaintext % self.n
        n2 = self.n_squared
        r = self._random_unit(rng)
        c = ((1 + m * self.n) % n2) * pow(r, self.n, n2) % n2
        return PaillierCiphertext(c, self)

    def add(self, a: PaillierCiphertext, b: PaillierCiphertext) -> PaillierCiphertext:
        """Homomorphic addition: Dec(result) = Dec(a) + Dec(b) mod n."""
        return PaillierCiphertext(a.value * b.value % self.n_squared, self)

    def add_scalar(self, a: PaillierCiphertext, scalar: int) -> PaillierCiphertext:
        """Homomorphic plaintext addition: Dec(result) = Dec(a) + scalar mod n.

        Implemented as multiplication by ``g^scalar = 1 + scalar*n`` which is
        far cheaper than a full encryption (no random blinding term).  The
        result is therefore *deterministic* given ``a``; callers that need
        semantic security of the sum should add an encrypted zero instead.
        """
        m = scalar % self.n
        n2 = self.n_squared
        return PaillierCiphertext(a.value * ((1 + m * self.n) % n2) % n2, self)

    def mul_scalar(self, a: PaillierCiphertext, scalar: int) -> PaillierCiphertext:
        """Homomorphic scalar multiplication: Dec(result) = Dec(a) * scalar mod n."""
        k = scalar % self.n
        return PaillierCiphertext(pow(a.value, k, self.n_squared), self)

    def _random_unit(self, rng: random.Random | None) -> int:
        """Random element of Z*_n (coprime with n)."""
        while True:
            if rng is not None:
                r = rng.randrange(1, self.n)
            else:
                r = secrets.randbelow(self.n - 1) + 1
            if math.gcd(r, self.n) == 1:
                return r


@dataclass(frozen=True)
class PaillierCrt:
    """Precomputed CRT context for a key whose factorisation n = p*q is known.

    Decryption splits into the half-size groups mod p^2 and q^2 -- half-size
    exponents (p-1, q-1) *and* half-size moduli, ~3-4x faster than the
    single ``pow(c, lambda, n^2)`` -- and recombines by the Chinese remainder
    theorem.  The same split accelerates the blinding term ``r^n mod n^2``
    of encryption (~2x: the exponent n cannot shrink, but both moduli do).
    Only the key holder (the server in Protocol 1) can use this path; all
    results are bit-identical to the generic form.
    """

    p: int
    q: int
    p2: int
    q2: int
    #: hp = L_p(g^(p-1) mod p^2)^-1 mod p, the per-factor decryption helper.
    hp: int
    hq: int
    p_inv_q: int
    p2_inv_q2: int
    n: int
    n2: int

    @classmethod
    def from_factors(cls, p: int, q: int) -> "PaillierCrt":
        if p == q:
            raise ValueError("factors must be distinct primes")
        n = p * q
        n2 = n * n
        p2 = p * p
        q2 = q * q
        g = n + 1
        hp = pow((pow(g, p - 1, p2) - 1) // p, -1, p)
        hq = pow((pow(g, q - 1, q2) - 1) // q, -1, q)
        return cls(
            p=p, q=q, p2=p2, q2=q2, hp=hp, hq=hq,
            p_inv_q=pow(p, -1, q), p2_inv_q2=pow(p2, -1, q2), n=n, n2=n2,
        )

    def decrypt_value(self, c: int) -> int:
        """Decrypt a raw ciphertext value to an element of F_n."""
        mp = (pow(c % self.p2, self.p - 1, self.p2) - 1) // self.p * self.hp % self.p
        mq = (pow(c % self.q2, self.q - 1, self.q2) - 1) // self.q * self.hq % self.q
        return (mp + self.p * ((mq - mp) * self.p_inv_q % self.q)) % self.n

    def pow_to_n(self, r: int) -> int:
        """``r^n mod n^2`` via the CRT split (the encryption blinding term)."""
        xp = pow(r % self.p2, self.n, self.p2)
        xq = pow(r % self.q2, self.n, self.q2)
        return (xp + self.p2 * ((xq - xp) * self.p2_inv_q2 % self.q2)) % self.n2


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Paillier private key using the (lambda, mu) decryption form.

    When the key was generated with ``with_crt=True`` the factorisation is
    retained as a :class:`PaillierCrt` context and :meth:`decrypt` takes the
    CRT fast path; results are identical either way.
    """

    public_key: PaillierPublicKey
    lam: int
    mu: int
    crt: PaillierCrt | None = None

    def decrypt(self, ciphertext: PaillierCiphertext) -> int:
        """Decrypt to an element of F_n (non-negative, < n)."""
        if ciphertext.public_key != self.public_key:
            raise ValueError("ciphertext does not match this private key")
        if self.crt is not None:
            return self.crt.decrypt_value(ciphertext.value)
        n = self.public_key.n
        n2 = self.public_key.n_squared
        u = pow(ciphertext.value, self.lam, n2)
        l_value = (u - 1) // n
        return l_value * self.mu % n

    def decrypt_signed(self, ciphertext: PaillierCiphertext) -> int:
        """Decrypt and map F_n to the centered integer range (-n/2, n/2]."""
        m = self.decrypt(ciphertext)
        n = self.public_key.n
        return m - n if m > n // 2 else m


@dataclass(frozen=True)
class PaillierKeypair:
    public_key: PaillierPublicKey
    private_key: PaillierPrivateKey


def generate_paillier_keypair(
    bits: int = DEFAULT_KEY_BITS,
    rng: random.Random | None = None,
    with_crt: bool = False,
) -> PaillierKeypair:
    """Generate a Paillier keypair with an n of roughly ``bits`` bits.

    Args:
        bits: size of the modulus n = p*q; each prime gets bits//2 bits.
        rng: optional deterministic PRNG for reproducible tests.  Production
            use should leave it ``None`` (secrets-based randomness).
        with_crt: retain the factorisation on the private key so decryption
            (and the key holder's own encryptions) use the CRT fast path.
            The RNG stream and the resulting key are identical either way.
    """
    if bits < 64:
        raise ValueError(f"Paillier modulus too small: {bits} bits")
    p, q = random_distinct_primes(bits // 2, rng=rng)
    n = p * q
    public = PaillierPublicKey(n)
    lam = math.lcm(p - 1, q - 1)
    # mu = (L(g^lambda mod n^2))^-1 mod n; with g = n + 1 this reduces to
    # lambda^-1 mod n, but we compute the general form for clarity.
    n2 = n * n
    u = pow(n + 1, lam, n2)
    l_value = (u - 1) // n
    mu = pow(l_value, -1, n)
    crt = PaillierCrt.from_factors(p, q) if with_crt else None
    private = PaillierPrivateKey(public, lam, mu, crt=crt)
    return PaillierKeypair(public, private)

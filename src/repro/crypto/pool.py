"""Offline randomizer pools for Paillier encryption.

A Paillier ciphertext is ``(1 + m*n) * r^n mod n^2``: essentially all of its
cost is the blinding term ``r^n``, which is *independent of the message*.
Protocol 1 spends one fresh encryption per (coordinate, silo) per round --
the online overhead the paper's enhanced protocol proposes to pregenerate
during idle time.  :class:`RandomizerPool` implements that offline/online
split: :meth:`refill` computes blinding terms ahead of time (using the CRT
split when the key holder's factorisation is available), and online
encryption via :meth:`encrypt` is then just two modular multiplications.
A refill may also run in three steps -- :meth:`draw`, :func:`nth_powers`
anywhere (the protocol's worker pool), :meth:`add` -- as the silos' does.
A pooled ``r^n`` *is* an encryption of zero, so the same pool serves the
silos' ``Enc(0)`` accumulator seeds and the server's OT dummy slots.

Determinism contract: the pool draws its randomizers from the same RNG, in
the same order, as on-line encryption would, and :meth:`take` consumes them
FIFO (generating on demand when empty).  Under a seeded RNG a pooled
encryption is therefore bit-identical to a fresh ``public_key.encrypt``
-- the equivalence ``tests/crypto/test_fast_backend.py`` asserts against
the seed-implementation oracle (``tests/protocol/oracle_reference.py``).
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Iterable

from repro.crypto.paillier import PaillierCiphertext, PaillierCrt, PaillierPublicKey


def nth_powers(n: int, units: list[int]) -> list[int]:
    """The blinding terms ``r^n mod n^2`` of ``units``, in order (a
    top-level function, so a process pool can run it)."""
    n2 = n * n
    return [pow(r, n, n2) for r in units]


class RandomizerPool:
    """FIFO pool of precomputed Paillier blinding terms ``r^n mod n^2``.

    Args:
        public_key: key the randomizers blind under.
        crt: the key holder's CRT context, if the factorisation is known
            (server side); halves the cost of each ``r^n``.
        rng: deterministic PRNG for reproducible tests (None = secrets).
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        crt: PaillierCrt | None = None,
        rng: random.Random | None = None,
    ):
        if crt is not None and crt.n != public_key.n:
            raise ValueError("CRT context does not match the public key")
        self.public_key = public_key
        self.crt = crt
        self.rng = rng
        self._ready: deque[int] = deque()

    def __len__(self) -> int:
        return len(self._ready)

    def _generate(self) -> int:
        r = self.public_key._random_unit(self.rng)
        if self.crt is not None:
            return self.crt.pow_to_n(r)
        n2 = self.public_key.n_squared
        return pow(r, self.public_key.n, n2)

    def refill(self, count: int) -> None:
        """Pregenerate ``count`` blinding terms (the offline phase)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._ready.extend(self._generate() for _ in range(count))

    def draw(self, count: int) -> list[int]:
        """``count`` fresh units of Z*_n, drawn as :meth:`refill` would
        draw them; their :func:`nth_powers` go back through :meth:`add`."""
        return [self.public_key._random_unit(self.rng) for _ in range(count)]

    def add(self, terms: Iterable[int]) -> None:
        """Queue blinding terms computed elsewhere, in draw order."""
        self._ready.extend(terms)

    def take(self) -> int:
        """Next blinding term ``r^n mod n^2`` (== a fresh ``Enc(0)`` value).

        Falls back to on-demand generation when the pool is empty, so the
        RNG draw order never deviates from on-line encryption's.
        """
        if self._ready:
            return self._ready.popleft()
        return self._generate()

    def encrypt(self, plaintext: int) -> PaillierCiphertext:
        """Online encryption: two multiplications using a pooled randomizer."""
        pk = self.public_key
        n2 = pk.n_squared
        m = plaintext % pk.n
        value = ((1 + m * pk.n) % n2) * self.take() % n2
        return PaillierCiphertext(value, pk)

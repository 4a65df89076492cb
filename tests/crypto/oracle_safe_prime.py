"""The seeded safe-prime search that found ``TEST_PRIME_512``, kept as its
provenance oracle.

Until PR 17 this was ``repro.crypto.dh._test_prime``: every process that
built a secure method re-ran it (~8 s) to re-find the same 512-bit safe
prime.  The prime is now a committed constant in ``repro/crypto/dh.py``;
``tests/crypto/test_dh_masking.py`` verifies the constant in milliseconds
(primality of p and q, generator order, and that q is the draw this search
stops at), and running this file as a script re-runs the whole search::

    PYTHONPATH=src python tests/crypto/oracle_safe_prime.py

which exits non-zero unless the first safe prime found equals the constant
(CI runs it as its own step after tier-1).
"""

import random
import sys

from repro.crypto.primes import is_probable_prime

#: Seed of the search's ``random.Random``.
SEARCH_SEED = 0xD1F5

#: 1-based index of the draw whose q gives the first safe prime p = 2q + 1.
WINNING_DRAW = 26_395


def draw_candidate(rng: random.Random) -> int:
    """One candidate q: 511 random bits, top bit and low bit forced."""
    return rng.getrandbits(511) | (1 << 510) | 1


def search_safe_prime() -> int:
    """The first 512-bit safe prime of the seeded search (moved verbatim
    from ``_test_prime``, minus the process-lifetime cache)."""
    rng = random.Random(SEARCH_SEED)
    while True:
        q = draw_candidate(rng)
        if not is_probable_prime(q):
            continue
        p = 2 * q + 1
        if is_probable_prime(p):
            return p


if __name__ == "__main__":
    from repro.crypto.dh import TEST_PRIME_512

    found = search_safe_prime()
    if found != TEST_PRIME_512:
        sys.exit(
            f"TEST_PRIME_512 is not the search's first safe prime:\n"
            f"  constant {TEST_PRIME_512:#x}\n  search   {found:#x}"
        )
    print(f"TEST_PRIME_512 = first safe prime of random.Random({SEARCH_SEED:#x}): ok")

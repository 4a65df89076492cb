"""Cryptographic substrate for the Uldp-FL private weighting protocol.

Everything here is implemented from scratch on top of the Python standard
library (``secrets``, ``hashlib``, ``math``):

- :mod:`repro.crypto.primes` -- Miller-Rabin probabilistic primality testing
  and random prime generation.
- :mod:`repro.crypto.paillier` -- the Paillier additively homomorphic
  cryptosystem (keygen / encrypt / decrypt / ciphertext arithmetic, plus
  the key holder's CRT fast path); with :mod:`repro.crypto.pool` and
  :mod:`repro.crypto.fastexp` it is the one Paillier implementation
  Protocol 1 runs on -- the seed loop over the plain primitives is the
  test oracle ``tests/protocol/oracle_reference.py`` (identical
  plaintexts, aggregates and RNG draws).
- :mod:`repro.crypto.dh` -- finite-field Diffie-Hellman key agreement with a
  SHA-256 key-derivation function; groups are committed constants and
  private exponents follow one 256-bit policy.
- :mod:`repro.crypto.masking` -- PRG-expanded pairwise additive masks over a
  finite field, the core of secure aggregation (Bonawitz et al.).
- :mod:`repro.crypto.blinding` -- multiplicative blinding over F_n
  (Damgard et al.) used to hide user histograms from the server.
- :mod:`repro.crypto.encoding` -- fixed-point encoding of real vectors into
  F_n (Algorithm 5 of the paper).
- :mod:`repro.crypto.secagg` -- Bonawitz-style pairwise-mask secure
  aggregation with dropout recovery (the ``crypto_backend="masked"`` path).

The silos' key agreement always runs in RFC 3526 group 14 (2048-bit) unless
a caller passes another group explicitly; only tests and the legacy
``benchmarks/`` scripts pass the 512-bit ``DHGroup.test_group()``.  The
Paillier modulus still defaults to an intentionally small 512 bits so the
full protocol runs in seconds (``SecureUldpAvg.security_summary`` says so
on every run); it is a parameter and the paper's 3072-bit setting is
supported.
"""

from repro.crypto.primes import is_probable_prime, random_prime
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierCrt,
    PaillierKeypair,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_paillier_keypair,
)
from repro.crypto.dh import DHGroup, DHKeypair, derive_shared_key
from repro.crypto.masking import PairwiseMasker, prg_field_elements
from repro.crypto.blinding import BlindingFactory
from repro.crypto.encoding import decode_scalar, decode_vector, encode_scalar, encode_vector
from repro.crypto.fastexp import FixedBaseExp, choose_window
from repro.crypto.pool import RandomizerPool
from repro.crypto.secagg import (
    MaskedAggregationProtocol,
    MaskedServerView,
    MaskedSilo,
    derive_round_key,
)

__all__ = [
    "is_probable_prime",
    "random_prime",
    "PaillierCiphertext",
    "PaillierCrt",
    "PaillierKeypair",
    "PaillierPrivateKey",
    "PaillierPublicKey",
    "generate_paillier_keypair",
    "DHGroup",
    "DHKeypair",
    "derive_shared_key",
    "PairwiseMasker",
    "prg_field_elements",
    "BlindingFactory",
    "FixedBaseExp",
    "choose_window",
    "RandomizerPool",
    "MaskedAggregationProtocol",
    "MaskedServerView",
    "MaskedSilo",
    "derive_round_key",
    "encode_scalar",
    "encode_vector",
    "decode_scalar",
    "decode_vector",
]

"""The seed Paillier implementation of Protocol 1, kept as the runtime's oracle.

Until PR 15 this shipped as ``crypto_backend="reference"``: every
encryption a fresh full-width ``pk.encrypt`` (one ``r^n mod n^2`` each, no
offline phase), every per-user scalar power a plain square-and-multiply
``enc_inv * scalar``, decryption in the CRT-free ``(lambda, mu)`` form.
Each ``Reference*`` class is the runtime class with only those
cryptographic steps swapped back; set-up, blinding, masking, encoding, the
OT exchange, the frame log and the round bookkeeping are inherited.

The runtime draws its randomizers from the shared protocol RNG in exactly
this loop's order (server weights first, then each silo's ``d`` ``Enc(0)``
seeds), so from one ``seed`` both sides must agree on every aggregate and
every training history **bit for bit**, on the RNG state after every
round, and on the *plaintext* of every ciphertext in
``view.round_ciphertexts`` -- which is what
``tests/crypto/test_fast_backend.py`` and
``tests/protocol/test_backend_equivalence.py`` assert (``==`` /
``np.array_equal``, no tolerance).  The silo ciphertexts themselves are
not equal: this loop raises ``Enc(B_inv(N_u))`` to ``x * f mod n``, the
runtime to the unreduced product of ``f`` and the signed fixed-point
``x``, and ``c^e`` and ``c^(e mod n)`` differ by an n-th residue -- the
same kind of factor as the fresh ``Enc(0)`` each output is multiplied by,
so the two are identically distributed.
"""

import dataclasses

import numpy as np

from repro.crypto.paillier import PaillierKeypair
from repro.protocol import PrivateWeightingProtocol, SecureUldpAvg
from repro.protocol.parties import ServerParty, SiloParty


def encode_scalar(x: float, precision: float, modulus: int) -> int:
    """Encode one real number into F_n (Algorithm 5, Encode).

    ``x`` is scaled to fixed point by ``1/precision``, rounded, and reduced
    mod n; negative values wrap to the upper half of the field.  The
    scalar form of ``repro.crypto.encoding.encode_vector``.
    """
    if precision <= 0:
        raise ValueError("precision must be positive")
    scaled = int(round(x / precision))
    return scaled % modulus


def decode_scalar(x: int, precision: float, c_lcm: int, modulus: int) -> float:
    """Decode one field element back to a real number (Algorithm 5, Decode).

    Maps the field element to a signed integer (values above n//2 are
    negative), removes the C_LCM factor, and rescales by ``precision``.
    The scalar form of :func:`decode_vector`.
    """
    if x > modulus // 2:
        x = x - modulus
    return (x / c_lcm) * precision


def decode_vector(values, precision: float, c_lcm: int, modulus: int) -> np.ndarray:
    """:func:`decode_scalar` over a vector: the signed mapping and the
    C_LCM division in big ints (Python's correctly-rounded int/int true
    division), then one vectorised precision scaling -- what Protocol 1's
    server computes per coordinate."""
    half = modulus // 2
    signed = [v - modulus if v > half else v for v in map(int, values)]
    return np.array([s / c_lcm for s in signed], dtype=np.float64) * precision


def plaintext_reference(
    proto: PrivateWeightingProtocol,
    clipped_deltas: list[dict[int, np.ndarray]],
    noises: list[np.ndarray],
    sampled_users: np.ndarray | None = None,
) -> np.ndarray:
    """The non-secure computation Theorem 4 compares ``proto``'s round
    against: each silo's deltas weighted by ``n[s, u] / N_u`` over the
    (sampled) users, plus its noise."""
    totals = proto.histogram.sum(axis=0)
    include = np.ones(proto.n_users, dtype=bool)
    if sampled_users is not None:
        include[:] = False
        include[np.asarray(sampled_users, dtype=np.int64)] = True
    aggregate = np.zeros(len(noises[0]))
    for s in range(proto.n_silos):
        for user, delta in clipped_deltas[s].items():
            if not include[user] or totals[user] == 0:
                continue
            aggregate += (proto.histogram[s, user] / totals[user]) * delta
        aggregate += noises[s]
    return aggregate


class ReferenceSiloParty(SiloParty):
    """A silo that encrypts online and exponentiates with plain ``pow``."""

    def on_offline(self, frame):
        """No offline phase: randomizers are drawn when they are used."""

    def weighted_encrypted_delta(
        self, encrypted_inverses, clipped_deltas, noise, round_no, precision
    ):
        """Step 2(b)-(c), one homomorphic operation at a time."""
        pk = self._require_setup()
        n = pk.n
        d = len(noise)
        totals = [pk.encrypt(0, rng=self.rng) for _ in range(d)]

        for user, delta in clipped_deltas.items():
            n_su = int(self.user_counts[user])
            if n_su == 0:
                raise ValueError(f"silo {self.silo_id} has no records of user {user}")
            if len(delta) != d:
                raise ValueError("delta dimension mismatch")
            r_u = self.blinding.blind_for_user(user)
            factor = n_su * r_u % n * self.c_lcm % n
            enc_inv = encrypted_inverses[user]
            for j in range(d):
                scalar = encode_scalar(float(delta[j]), precision, n) * factor % n
                totals[j] = totals[j] + enc_inv * scalar

        masks = self.masker.mask_vector(d, context=f"delta-round-{round_no}")
        for j in range(d):
            z = encode_scalar(float(noise[j]), precision, n) * self.c_lcm % n
            totals[j] = pk.add_scalar(totals[j], (z + masks[j]) % n)
        return totals

    def on_weigh(self, frame):
        """Steps 2(b)-(c) in-process, silos strictly in turn."""
        vector = self.weighted_encrypted_delta(self.weights, *self.inputs)
        return self.send_delta([[c.value for c in vector]])


class ReferenceServerParty(ServerParty):
    """A server that forgets the factorisation: same key (the RNG draws are
    identical), ``(lambda, mu)`` decryption, fresh online encryptions."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        private = dataclasses.replace(self.keypair.private_key, crt=None)
        self.keypair = PaillierKeypair(self.public_key, private)

    def on_offline(self, frame):
        """No offline phase."""

    def encrypt_value(self, value):
        return self.public_key.encrypt(value, rng=self.rng)


class ReferencePrivateWeightingProtocol(PrivateWeightingProtocol):
    """Protocol 1 between the reference parties (``workers`` is accepted
    and unused: no reference step returns a kernel task)."""

    server_cls = ReferenceServerParty
    silo_cls = ReferenceSiloParty


class ReferenceSecureUldpAvg(SecureUldpAvg):
    """``SecureUldpAvg`` whose Paillier rounds run the reference protocol."""

    protocol_cls = ReferencePrivateWeightingProtocol

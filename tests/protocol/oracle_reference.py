"""The seed Paillier implementation of Protocol 1, kept as the runtime's oracle.

Until PR 15 this shipped as ``crypto_backend="reference"``: every
encryption a fresh full-width ``pk.encrypt`` (one ``r^n mod n^2`` each, no
offline phase), every per-user scalar power a plain square-and-multiply
``enc_inv * scalar``, decryption in the CRT-free ``(lambda, mu)`` form.
Each ``Reference*`` class is the runtime class with only those
cryptographic steps swapped back; set-up, blinding, masking, encoding, the
OT exchange, the server's view and the round bookkeeping are inherited.

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

from repro.crypto.encoding import encode_scalar
from repro.crypto.paillier import PaillierKeypair
from repro.protocol import PrivateWeightingProtocol, SecureUldpAvg
from repro.protocol.parties import ServerParty, SiloParty


class ReferenceSiloParty(SiloParty):
    """A silo that encrypts online and exponentiates with plain ``pow``."""

    def prepare_offline(self, count):
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


class ReferenceServerParty(ServerParty):
    """A server that forgets the factorisation: same key (the RNG draws are
    identical), ``(lambda, mu)`` decryption, fresh online encryptions."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        private = dataclasses.replace(self.keypair.private_key, crt=None)
        self.keypair = PaillierKeypair(self.public_key, private)

    def prepare_offline(self, count):
        """No offline phase."""

    def encrypt_value(self, value):
        return self.public_key.encrypt(value, rng=self.rng)


class ReferencePrivateWeightingProtocol(PrivateWeightingProtocol):
    """Protocol 1 between the reference parties, silos strictly in turn
    (``workers`` is accepted and ignored)."""

    server_cls = ReferenceServerParty
    silo_cls = ReferenceSiloParty

    def _silo_weighted_vectors(self, per_silo_inverses, clipped_deltas, noises):
        return [
            silo.weighted_encrypted_delta(
                per_silo_inverses[s],
                clipped_deltas[s],
                noises[s],
                round_no=self.round_no,
                precision=self.precision,
            )
            for s, silo in enumerate(self.silos)
        ]


class ReferenceSecureUldpAvg(SecureUldpAvg):
    """``SecureUldpAvg`` whose Paillier rounds run the reference protocol."""

    protocol_cls = ReferencePrivateWeightingProtocol

"""1-out-of-P oblivious transfer and private user-level sub-sampling.

Section 4.1 of the paper sketches how to hide the per-round sub-sampling
results from *both* sides: for each user the server prepares P slots -- one
holding Enc(B_inv(N_u)) and P-1 holding fresh Enc(0) -- and the silo
retrieves one slot by 1-out-of-P OT.  The server cannot tell which slot was
taken; the silo cannot tell whether it received the real weight or a dummy
(Paillier ciphertexts are semantically secure), so neither side learns the
sampling outcome.  Retrieving the real slot (probability 1/P) makes the
user participate; only probabilities of the form 1/P are representable (the
paper notes this coarseness).

The OT itself is the classic Naor-Pinkas 1-of-N construction over our DH
group with hashed-ElGamal encryption, secure against semi-honest parties:

- the sender publishes random group elements C_1..C_{P-1};
- the receiver with choice c picks a secret k and publishes
  PK_0 = g^k (if c = 0) or C_c * (g^k)^-1 (otherwise), so that the derived
  key PK_c equals g^k while the receiver knows the discrete log of no other
  PK_j (that would require dlog of C_j);
- the sender derives PK_j = C_j * PK_0^-1 for j >= 1, and sends each
  message encrypted as (g^{r_j}, H(PK_j^{r_j}) XOR m_j);
- the receiver decrypts slot c with k.

One deployment subtlety the paper leaves implicit: all silos must agree on
the *same* slot choice per user, otherwise a user would participate in some
silos only, breaking the Poisson-sampling semantics.  The silos already
share the secret seed R from the setup phase, so
:class:`PrivateSubsampler` derives the common slot choice from R (per user,
per round).  The server still learns nothing (it never sees R).
"""

from __future__ import annotations

import hashlib
import random

from repro.crypto.dh import DHGroup


def _hash_key(element: int, context: bytes) -> bytes:
    data = element.to_bytes((element.bit_length() + 7) // 8 or 1, "big")
    return hashlib.sha256(b"np-ot|" + context + b"|" + data).digest()


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _stream(key: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out.extend(hashlib.sha256(key + counter.to_bytes(8, "big")).digest())
        counter += 1
    return bytes(out[:length])


class OTSender:
    """Naor-Pinkas 1-of-P sender (holds the P messages)."""

    def __init__(self, group: DHGroup, n_slots: int, rng: random.Random | None = None):
        if n_slots < 2:
            raise ValueError("OT needs at least two slots")
        self.group = group
        self.n_slots = n_slots
        self.rng = rng
        # Random group elements with unknown discrete log (to the receiver).
        self.commitments = [self._random_element() for _ in range(n_slots - 1)]

    def _random_element(self) -> int:
        exp = self.group.random_exponent(self.rng)
        return pow(self.group.generator, exp, self.group.prime)

    def public_commitments(self) -> list[int]:
        return list(self.commitments)

    def encrypt_slots(self, receiver_pk0: int, messages: list[bytes]) -> list[tuple[int, bytes]]:
        """Encrypt each message under the derived per-slot public key."""
        if len(messages) != self.n_slots:
            raise ValueError(f"expected {self.n_slots} messages")
        if not 1 < receiver_pk0 < self.group.prime - 1:
            raise ValueError("receiver public key out of range")
        p, g = self.group.prime, self.group.generator
        pk0_inv = pow(receiver_pk0, -1, p)
        out = []
        for j, message in enumerate(messages):
            pk_j = receiver_pk0 if j == 0 else self.commitments[j - 1] * pk0_inv % p
            r = self.group.random_exponent(self.rng)
            c1 = pow(g, r, p)
            key = _hash_key(pow(pk_j, r, p), context=j.to_bytes(4, "big"))
            out.append((c1, _xor_bytes(message, _stream(key, len(message)))))
        return out


class OTReceiver:
    """Naor-Pinkas 1-of-P receiver (retrieves exactly one slot)."""

    def __init__(
        self,
        group: DHGroup,
        commitments: list[int],
        choice: int,
        rng: random.Random | None = None,
    ):
        n_slots = len(commitments) + 1
        if not 0 <= choice < n_slots:
            raise ValueError("choice out of range")
        self.group = group
        self.choice = choice
        p, g = group.prime, group.generator
        self.secret = group.random_exponent(rng)
        gk = pow(g, self.secret, p)
        if choice == 0:
            self.pk0 = gk
        else:
            self.pk0 = commitments[choice - 1] * pow(gk, -1, p) % p

    def public_key(self) -> int:
        return self.pk0

    def decrypt_choice(self, slots: list[tuple[int, bytes]]) -> bytes:
        """Decrypt the chosen slot; other slots are computationally opaque."""
        c1, payload = slots[self.choice]
        key = _hash_key(
            pow(c1, self.secret, self.group.prime),
            context=self.choice.to_bytes(4, "big"),
        )
        return _xor_bytes(payload, _stream(key, len(payload)))


def transfer(
    group: DHGroup,
    messages: list[bytes],
    choice: int,
    rng: random.Random | None = None,
) -> bytes:
    """Run one complete 1-of-P OT in process; returns the chosen message."""
    sender = OTSender(group, len(messages), rng=rng)
    receiver = OTReceiver(group, sender.public_commitments(), choice, rng=rng)
    slots = sender.encrypt_slots(receiver.public_key(), messages)
    return receiver.decrypt_choice(slots)


class PrivateSubsampler:
    """Derives the common OT slot choices for private user-level sampling.

    All silos hold the shared seed R; the slot for (user, round) is a PRG
    output mod P, identical across silos and unpredictable to the server.
    Participation probability is 1/P (slot 0 is the real-weight slot by
    convention -- the server shuffles ciphertexts per user with its own
    randomness before the OT, so the convention leaks nothing).
    """

    def __init__(self, shared_seed: bytes, n_slots: int):
        if n_slots < 2:
            raise ValueError("need at least two slots")
        self.shared_seed = shared_seed
        self.n_slots = n_slots

    @property
    def participation_rate(self) -> float:
        return 1.0 / self.n_slots

    def slot_for(self, user: int, round_no: int) -> int:
        digest = hashlib.sha256(
            self.shared_seed
            + b"|subsample|"
            + user.to_bytes(8, "big")
            + round_no.to_bytes(8, "big")
        ).digest()
        return int.from_bytes(digest[:8], "big") % self.n_slots

    def sampled_users(self, n_users: int, round_no: int) -> list[int]:
        """Users whose slot is the real-weight slot this round."""
        return [u for u in range(n_users) if self.slot_for(u, round_no) == 0]

"""The two party roles of Protocol 1: silos and the aggregation server.

Every method on these classes corresponds to a lettered step of Protocol 1
in the paper (noted in the docstrings).  The parties communicate only
through the values returned here; the orchestration (and hence the exact
set of values each party observes) lives in
:mod:`repro.protocol.runner`, which also records a transcript of the
server's view for the privacy tests (Theorem 5).

Conventions:

- all field elements are Python ints in F_n (n = Paillier modulus);
- model vectors are encoded coordinate-wise (length d lists of ints);
- pairwise mask contexts include the step label and round number so masks
  are never reused.

There is one Paillier implementation: CRT wherever the factorisation is
known (server decryption and server-side encryptions), one key-width
power per (silo, user) and fixed-point-width table look-ups per
coordinate for the weighted deltas, and offline randomizer pools so online
encryption is two multiplications.  The seed implementation (fresh
full-width encryptions, square-and-multiply scalar exponentiation,
(lambda, mu) decryption) is the test oracle
``tests/protocol/oracle_reference.py``; RNG draws happen in its order, so
under a seeded RNG the server's encryptions are bit-identical to it and
every silo ciphertext decrypts to the identical element of F_n (the silo
ciphertexts themselves differ from the oracle's by an n-th residue, which
the fresh ``Enc(0)`` factor makes immaterial).
"""

from __future__ import annotations

import random
import secrets

import numpy as np

from repro.crypto.blinding import BlindingFactory
from repro.crypto.dh import DHGroup, DHKeypair, decrypt_with_key, derive_shared_key, encrypt_with_key
from repro.crypto.encoding import encode_vector, lcm_up_to, quantize_vector
from repro.crypto.fastexp import FixedBaseExp, worthwhile
from repro.crypto.masking import PairwiseMasker
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierKeypair,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_paillier_keypair,
)
from repro.crypto.pool import RandomizerPool


def run_weighted_delta_kernel(task: dict) -> list[int]:
    """The pure big-int kernel of one silo's weighted encrypted delta.

    Everything RNG- or key-dependent (pool draws, masks, blinds, encoding)
    was already resolved into plain integers by
    :meth:`SiloParty.weighted_delta_task`, so this function is a top-level,
    picklable unit of work -- exactly what the runner ships to
    ``ProcessPoolExecutor`` workers for across-silo parallelism.

    Per user the exponent ``x_j * f`` is split: one key-width ``A = c^f``,
    then per coordinate ``A^(x_j + 2^B)`` for the *signed fixed-point*
    ``x_j`` (B = the task's largest ``|x|`` bit length, ~38) from a
    (B+1)-bit table or, for tiny d, ``pow``; ``(prod A)^(-2^B)`` cancels
    the bias.  Equal to the seed loop's output in plaintext, not in bits.
    """
    n = task["n"]
    n2 = n * n
    d = task["d"]
    terms = task["user_terms"]
    totals = list(task["zero_values"])
    bits = max((abs(x).bit_length() for _, _, xs in terms for x in xs), default=0)
    bias = 1 << bits
    tabled = worthwhile(bits + 1, d)
    unbias = 1
    for base, factor, quantized in terms:
        a = pow(base, factor, n2)
        unbias = unbias * a % n2
        fb = FixedBaseExp(a, n2, bits + 1, expected_exps=d) if tabled else None
        for j, x in enumerate(quantized):
            step = fb.pow(x + bias) if fb else pow(a, x + bias, n2)
            totals[j] = totals[j] * step % n2
    unbias = pow(unbias, -bias, n2)
    for j, a in enumerate(task["additive"]):
        totals[j] = totals[j] * unbias % n2 * ((1 + a * n) % n2) % n2
    return totals


class SiloParty:
    """One silo: holds per-user record counts and per-round model deltas."""

    def __init__(
        self,
        silo_id: int,
        user_counts: np.ndarray,
        n_max: int,
        dh_group: DHGroup,
        rng: random.Random | None = None,
    ):
        """
        Args:
            silo_id: index in 0..|S|-1.
            user_counts: n[s, u] for this silo, length |U|.
            n_max: public upper bound on records per user (defines C_LCM).
            dh_group: shared DH group parameters.
            rng: deterministic randomness for tests (None = secrets).
        """
        self.silo_id = silo_id
        self.user_counts = np.asarray(user_counts, dtype=np.int64)
        if np.any(self.user_counts < 0):
            raise ValueError("record counts must be non-negative")
        if int(self.user_counts.max(initial=0)) > n_max:
            raise ValueError("a user exceeds N_max; raise n_max")
        self.n_users = len(self.user_counts)
        self.n_max = n_max
        self.c_lcm = lcm_up_to(n_max)
        self.rng = rng
        # Setup state, populated by the steps below.
        self.dh_keypair: DHKeypair = dh_group.keypair(rng=rng)
        self.pair_keys: dict[int, bytes] = {}
        self.transport_keys: dict[int, bytes] = {}
        self.shared_seed: bytes | None = None
        self.paillier_pk: PaillierPublicKey | None = None
        self.blinding: BlindingFactory | None = None
        self.masker: PairwiseMasker | None = None
        self.pool: RandomizerPool | None = None

    # -- Setup steps --------------------------------------------------------

    def dh_public(self) -> int:
        """Step 1(a): publish this silo's DH public key."""
        return self.dh_keypair.public

    def receive_dh_publics(self, publics: dict[int, int]) -> None:
        """Step 1(b): derive pairwise shared keys with every other silo.

        One modular exponentiation per peer; the mask key and the key that
        transports the seed R (step 1(c)) are two KDF contexts of that one
        shared secret.
        """
        for peer, public in publics.items():
            if peer == self.silo_id:
                continue
            secret = self.dh_keypair.shared_secret(public)
            self.pair_keys[peer] = derive_shared_key(secret, "secure-agg")
            self.transport_keys[peer] = derive_shared_key(secret, "seed-transport")

    def receive_paillier_key(self, pk: PaillierPublicKey) -> None:
        """Step 1(a): store the server's Paillier public key."""
        self.paillier_pk = pk
        self.masker = PairwiseMasker(self.silo_id, self.pair_keys, pk.n)
        # Silos do not know the factorisation, so no CRT context here.
        self.pool = RandomizerPool(pk, rng=self.rng)

    def generate_seed_ciphertexts(self, peers: list[int]) -> dict[int, bytes]:
        """Step 1(c), silo 0 only: encrypt a fresh seed R for every peer."""
        if self.silo_id != 0:
            raise ValueError("only silo 0 distributes the shared seed")
        if self.rng is not None:
            seed = self.rng.randbytes(32)
        else:
            seed = secrets.token_bytes(32)
        self.shared_seed = seed
        return {
            peer: encrypt_with_key(self.transport_keys[peer], seed)
            for peer in peers
            if peer != 0
        }

    def receive_seed_ciphertext(self, ciphertext: bytes) -> None:
        """Step 1(c): decrypt the shared seed R from silo 0."""
        self.shared_seed = decrypt_with_key(self.transport_keys[0], ciphertext)

    def blinded_masked_histogram(self) -> list[int]:
        """Steps 1(d)-(e): doubly blinded histogram B'(n_su) for all users.

        Multiplicative blind r_u (shared seed) hides counts from the server;
        pairwise additive masks hide this silo's individual contribution so
        the server only learns the blinded *totals* B(N_u).
        """
        pk = self._require_setup()
        n = pk.n
        if self.blinding is None:
            self.blinding = BlindingFactory(self.shared_seed, n)
        assert self.masker is not None
        masks = self.masker.mask_vector(self.n_users, context="histogram")
        out = []
        for u in range(self.n_users):
            blinded = self.blinding.blind(u, int(self.user_counts[u]))
            out.append((blinded + masks[u]) % n)
        return out

    # -- Weighting round steps ----------------------------------------------

    def weighted_delta_task(
        self,
        encrypted_inverses: list[PaillierCiphertext],
        clipped_deltas: dict[int, np.ndarray],
        noise: np.ndarray,
        round_no: int,
        precision: float,
    ) -> dict:
        """Step 2(b)-(c): one round's silo computation as a picklable task.

        For each user u with records here and each coordinate j the silo
        owes the server::

            Enc(delta_s[j]) += Enc(B_inv(N_u)) * (Encode(delta_su[j]) * n_su * r_u * C_LCM)

        which decrypts to ``Encode(delta_su[j]) * n_su * C_LCM / N_u`` --
        the Eq. (3) weight times the delta, scaled by C_LCM -- plus the
        encoded noise (times C_LCM) and the per-round secure-aggregation
        masks as homomorphic scalars.

        This method resolves everything RNG- or key-dependent: it draws the
        d pooled ``Enc(0)`` accumulator seeds *first* (the seed loop's RNG
        order; they make per-silo ciphertexts semantically secure even
        before mask addition), quantises every delta in one vectorised pass
        and attaches the masks and encoded noise.  Per user it ships ``(c_u,
        f_u, [x_uj])`` -- ciphertext, the one key-width scalar ``n_su * r_u *
        C_LCM mod n``, signed fixed-point deltas -- to
        :func:`run_weighted_delta_kernel`, inline or in a worker process.
        """
        pk = self._require_setup()
        assert self.blinding is not None and self.masker is not None
        assert self.pool is not None
        n = pk.n
        d = len(noise)
        zero_values = [self.pool.take() for _ in range(d)]
        user_terms = []
        for user, delta in clipped_deltas.items():
            n_su = int(self.user_counts[user])
            if n_su == 0:
                raise ValueError(f"silo {self.silo_id} has no records of user {user}")
            if len(delta) != d:
                raise ValueError("delta dimension mismatch")
            r_u = self.blinding.blind_for_user(user)
            factor = n_su * r_u % n * self.c_lcm % n
            quantized = quantize_vector(delta, precision)
            user_terms.append((encrypted_inverses[user].value, factor, quantized))
        masks = self.masker.mask_vector(d, context=f"delta-round-{round_no}")
        encoded_noise = encode_vector(noise, precision, n)
        additive = [
            (z * self.c_lcm + mask) % n for z, mask in zip(encoded_noise, masks)
        ]
        return {
            "n": n,
            "d": d,
            "zero_values": zero_values,
            "user_terms": user_terms,
            "additive": additive,
        }

    def prepare_offline(self, count: int) -> None:
        """Pregenerate ``count`` randomizers (the enhanced protocol's
        offline phase); online encryption then costs two multiplications."""
        self._require_setup()
        assert self.pool is not None
        self.pool.refill(count)

    def _require_setup(self) -> PaillierPublicKey:
        if self.paillier_pk is None:
            raise RuntimeError("setup incomplete: no Paillier key")
        if self.shared_seed is None:
            raise RuntimeError("setup incomplete: no shared seed")
        return self.paillier_pk


class ServerParty:
    """The aggregation server: generates keys, inverts blinded histograms,
    distributes encrypted weights, and decrypts only aggregated sums."""

    def __init__(
        self,
        n_users: int,
        paillier_bits: int = 512,
        rng: random.Random | None = None,
    ):
        self.n_users = n_users
        self.rng = rng
        # The key holder retains the factorisation for CRT decryption and
        # CRT-split server-side encryptions.
        self.keypair: PaillierKeypair = generate_paillier_keypair(
            paillier_bits, rng=rng, with_crt=True
        )
        self.pool = RandomizerPool(
            self.public_key, crt=self.keypair.private_key.crt, rng=rng
        )
        self.blinded_totals: list[int] | None = None
        self.blinded_inverses: list[int] | None = None

    @property
    def public_key(self) -> PaillierPublicKey:
        return self.keypair.public_key

    @property
    def _private_key(self) -> PaillierPrivateKey:
        return self.keypair.private_key

    # -- Setup steps ----------------------------------------------------------

    def aggregate_histograms(self, masked_histograms: list[list[int]]) -> None:
        """Step 1(e): sum doubly blinded histograms; masks cancel, leaving
        B(N_u) = r_u * N_u mod n.

        The per-user sums run as one numpy object-array reduction over the
        (|S|, |U|) stack (big ints exceed any fixed-width dtype) with a
        single modular-reduction pass at the end.
        """
        n = self.public_key.n
        for hist in masked_histograms:
            if len(hist) != self.n_users:
                raise ValueError("histogram length mismatch")
        if not masked_histograms:
            self.blinded_totals = [0] * self.n_users
            return
        stacked = np.array(masked_histograms, dtype=object)
        self.blinded_totals = [int(total) % n for total in stacked.sum(axis=0)]

    def invert_blinded_totals(self) -> None:
        """Step 1(f): B_inv(N_u) = B(N_u)^-1 over F_n (ext. Euclid).

        Users with zero records everywhere have B(N_u) = 0 which has no
        inverse; their pseudo-inverse is set to 0 so they simply never
        contribute (their scalar multiplier is also 0).
        """
        if self.blinded_totals is None:
            raise RuntimeError("aggregate_histograms must run first")
        n = self.public_key.n
        inverses = []
        for value in self.blinded_totals:
            inverses.append(0 if value == 0 else pow(value, -1, n))
        self.blinded_inverses = inverses

    # -- Weighting round steps -------------------------------------------------

    def encrypted_inverses(
        self, sampled_users: np.ndarray | None = None
    ) -> list[PaillierCiphertext]:
        """Step 2(a): Paillier-encrypt B_inv(N_u) for broadcast.

        With user-level sub-sampling, non-sampled users get Enc(0): their
        weighted contributions vanish identically, exactly as if they had
        not participated (Theorem 4 discussion).
        """
        if self.blinded_inverses is None:
            raise RuntimeError("invert_blinded_totals must run first")
        include = np.ones(self.n_users, dtype=bool)
        if sampled_users is not None:
            include[:] = False
            include[np.asarray(sampled_users, dtype=np.int64)] = True
        out = []
        for u in range(self.n_users):
            value = self.blinded_inverses[u] if include[u] else 0
            out.append(self.encrypt_value(value))
        return out

    def encrypt_value(self, value: int) -> PaillierCiphertext:
        """One server-side Paillier encryption: pooled, CRT-split blinding
        term (the randomizer comes from the same RNG stream as a fresh
        ``public_key.encrypt`` would use, so the ciphertext is bit-identical
        to it under a seeded RNG).  Used for the encrypted inverses and for
        the OT slot messages (real and dummy).
        """
        return self.pool.encrypt(value)

    def prepare_offline(self, count: int) -> None:
        """Pregenerate ``count`` randomizers (the offline phase)."""
        self.pool.refill(count)

    def aggregate_and_decrypt(
        self,
        silo_ciphertexts: list[list[PaillierCiphertext]],
        precision: float,
        c_lcm: int,
    ) -> np.ndarray:
        """Step 2(c): homomorphically sum silo vectors, decrypt, decode.

        The pairwise masks cancel in the ciphertext sum; decryption yields
        ``sum_su Encode(delta_su) * n_su * C_LCM / N_u + sum_s Encode(z_s) * C_LCM``
        which decodes (signed, /C_LCM, *precision) to the weighted noisy
        aggregate of ULDP-AVG-w.
        """
        if not silo_ciphertexts:
            raise ValueError("need at least one silo contribution")
        d = len(silo_ciphertexts[0])
        pk = self.public_key
        totals = silo_ciphertexts[0]
        for vec in silo_ciphertexts[1:]:
            if len(vec) != d:
                raise ValueError("ciphertext vector length mismatch")
            totals = [pk.add(a, b) for a, b in zip(totals, vec)]
        out = np.empty(d)
        for j in range(d):
            signed = self._private_key.decrypt_signed(totals[j])
            out[j] = (signed / c_lcm) * precision
        return out

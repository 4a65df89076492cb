"""The two party roles of Protocol 1: silos and the aggregation server.

Each step method is a lettered step of Protocol 1 (see its docstring); the
``on_<type>`` handlers run them as :class:`repro.protocol.driver.Party`
handlers, and :mod:`repro.protocol.runner` holds the schedules that route
the frames.  Field elements are ints in F_n (n = Paillier modulus) and
travel as :func:`repro.net.wire.int_blob` rows; mask contexts include the
step and round so masks are never reused.

One Paillier implementation: CRT wherever the factorisation is known, one
key-width power per (silo, user) plus fixed-point-width table look-ups for
the weighted deltas, and offline randomizer pools.  The seed loop is the
test oracle ``tests/protocol/oracle_reference.py``; RNG draws happen in its
order, so under a seeded RNG the server's encryptions equal its bits and
every silo ciphertext decrypts to its element of F_n (the ciphertexts
differ by an n-th residue, which the fresh ``Enc(0)`` makes immaterial).
"""

from __future__ import annotations

import itertools
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
    PaillierPublicKey,
    generate_paillier_keypair,
)
from repro.crypto.pool import RandomizerPool, nth_powers
from repro.net.wire import Frame, blob_ints, int_blob
from repro.protocol.driver import KeyHolder, KeyRelay, Task
from repro.protocol.oblivious import OTReceiver, OTSender, PrivateSubsampler


def run_weighted_delta_kernel(task: dict) -> list[int]:
    """The pure big-int kernel of one silo's weighted encrypted delta: a
    picklable unit of work (:meth:`SiloParty.weighted_delta_task` resolved
    everything RNG- or key-dependent into plain integers).

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


def run_weighted_delta_kernels(tasks: list[dict]) -> list[list[int]]:
    return [run_weighted_delta_kernel(task) for task in tasks]


class SiloParty(KeyHolder):
    """Silo ``silo_id``: its record counts n[s, u] (at most the public
    ``n_max``), a DH key in ``dh_group`` and, from ``rng`` (None = secrets),
    its randomness.  Before a round the protocol sets :attr:`inputs` --
    ``(clipped deltas, noise, round_no, precision)``."""

    def __init__(
        self,
        silo_id: int,
        user_counts: np.ndarray,
        n_max: int,
        dh_group: DHGroup,
        rng: random.Random | None = None,
    ):
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
        self.dh_keypair: DHKeypair = dh_group.keypair(rng=rng)
        self.pair_keys: dict[int, bytes] = {}
        self.transport_keys: dict[int, bytes] = {}
        self.shared_seed: bytes | None = None
        self.paillier_pk: PaillierPublicKey | None = None
        self.blinding: BlindingFactory | None = None
        self.masker: PairwiseMasker | None = None
        self.pool: RandomizerPool | None = None
        self.weights: list | dict = {}  # Enc(B_inv(N_u)) per user, step 2(a)
        self.inputs: tuple | None = None

    # -- Setup steps --------------------------------------------------------

    def receive_dh_publics(self, publics: dict[int, int]) -> None:
        """Step 1(b): derive pairwise keys with every other silo -- one
        exponentiation per peer; the mask key and the key transporting R
        (step 1(c)) are two KDF contexts of that one shared secret."""
        for peer, public in publics.items():
            if peer == self.silo_id:
                continue
            secret = self.dh_keypair.shared_secret(public)
            self.pair_keys[peer] = derive_shared_key(secret, "secure-agg")
            self.transport_keys[peer] = derive_shared_key(secret, "seed-transport")

    def generate_seed_ciphertexts(self, peers: list[int]) -> dict[int, bytes]:
        """Step 1(c), silo 0 only: encrypt a fresh seed R for every peer."""
        if self.silo_id != 0:
            raise ValueError("only silo 0 distributes the shared seed")
        seed = self.rng.randbytes(32) if self.rng is not None else secrets.token_bytes(32)
        self.shared_seed = seed
        return {p: encrypt_with_key(self.transport_keys[p], seed) for p in peers if p != 0}

    def receive_seed_ciphertext(self, ciphertext: bytes) -> None:
        """Step 1(c): decrypt the shared seed R from silo 0."""
        self.shared_seed = decrypt_with_key(self.transport_keys[0], ciphertext)

    def blinded_masked_histogram(self) -> list[int]:
        """Steps 1(d)-(e): doubly blinded histogram B'(n_su): the blind r_u
        (from R) hides counts from the server, the pairwise masks this
        silo's share, so the server learns only blinded *totals* B(N_u)."""
        pk = self._require_setup()
        n = pk.n
        if self.blinding is None:
            self.blinding = BlindingFactory(self.shared_seed, n)
        assert self.masker is not None
        masks = self.masker.mask_vector(self.n_users, context="histogram")
        blind = self.blinding.blind
        return [(blind(u, int(self.user_counts[u])) + masks[u]) % n for u in range(self.n_users)]

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

        Per user u here and coordinate j the silo owes the server::

            Enc(delta_s[j]) += Enc(B_inv(N_u)) * (Encode(delta_su[j]) * n_su * r_u * C_LCM)

        which decrypts to the Eq. (3) weight times the delta, scaled by
        C_LCM; the encoded noise (times C_LCM) and this round's masks ride
        as homomorphic scalars.  The d pooled ``Enc(0)`` accumulator seeds
        are drawn *first* (the seed loop's RNG order); per user the task
        holds ``(c_u, n_su * r_u * C_LCM mod n, signed fixed-point deltas)``
        for :func:`run_weighted_delta_kernel`.
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
        additive = [(z * self.c_lcm + mask) % n for z, mask in zip(encoded_noise, masks)]
        return {"n": n, "d": d, "zero_values": zero_values, "user_terms": user_terms,
                "additive": additive}

    def _require_setup(self) -> PaillierPublicKey:
        if self.paillier_pk is None:
            raise RuntimeError("setup incomplete: no Paillier key")
        if self.shared_seed is None:
            raise RuntimeError("setup incomplete: no shared seed")
        return self.paillier_pk

    # -- Handlers -----------------------------------------------------------

    def on_keys(self, frame):
        """Steps 1(a)-(c) on the relayed DH publics and Paillier key; silo 0
        answers with R for each peer."""
        super().on_keys(frame)
        self.paillier_pk = pk = PaillierPublicKey(blob_ints(frame.arrays["n"])[0])
        self.masker = PairwiseMasker(self.silo_id, self.pair_keys, pk.n)
        # Silos do not know the factorisation, so no CRT context here.
        self.pool = RandomizerPool(pk, rng=self.rng)
        if self.silo_id != 0:
            return []
        seeds = self.generate_seed_ciphertexts(list(self.transport_keys)).items()
        return [Frame("seed", {"to": p}, {"seed": np.frombuffer(ct, np.uint8)}) for p, ct in seeds]

    def on_seed(self, frame):
        self.receive_seed_ciphertext(frame.arrays["seed"].tobytes())

    def on_histogram(self, frame):
        histogram = int_blob(self.blinded_masked_histogram(), self.paillier_pk.n)
        return [Frame("masked_histogram", {}, {"histogram": histogram})]

    def on_offline(self, frame):
        """The offline phase: d units r of Z*_n, which the driver's kernel
        map raises to ``r^n mod n^2`` for the pool (then online encryption
        costs two multiplications)."""
        units = self.pool.draw(len(self.inputs[1]))
        return Task(nth_powers, (self.paillier_pk.n,), units, self.pool.add)

    def on_weights(self, frame):
        pk = self.paillier_pk
        self.weights = [PaillierCiphertext(c, pk) for c in blob_ints(frame.arrays["weights"])]

    def on_ot_offer(self, frame):
        """Section 4.1: take user u's slot by OT -- the same in every silo,
        as it comes from R."""
        commitments = blob_ints(frame.arrays["commitments"])
        sampler = PrivateSubsampler(self.shared_seed, len(commitments) + 1)
        choice = sampler.slot_for(frame.payload["user"], self.inputs[2])
        group = self.dh_keypair.group
        self._ot = OTReceiver(group, commitments, choice, rng=self.rng)
        return [Frame("ot_choice", {}, {"key": int_blob([self._ot.public_key()], group.prime)})]

    def on_ot_slots(self, frame):
        """The chosen slot: a real weight or an Enc(0) dummy -- the silo cannot tell."""
        slots = list(zip(blob_ints(frame.arrays["c1"]), map(bytes, frame.arrays["slots"])))
        chosen = int.from_bytes(self._ot.decrypt_choice(slots), "big")
        self.weights[frame.payload["user"]] = PaillierCiphertext(chosen, self.paillier_pk)

    def on_weigh(self, frame):
        task = self.weighted_delta_task(self.weights, *self.inputs)
        return Task(run_weighted_delta_kernels, (), [task], self.send_delta)

    def send_delta(self, vectors: list[list[int]]):
        delta = int_blob(vectors[0], self.paillier_pk.n_squared)
        return [Frame("weighted_delta", {}, {"delta": delta})]


class ServerParty(KeyRelay):
    """The aggregation server: generates keys, inverts blinded histograms,
    distributes encrypted weights, and decrypts only aggregated sums.  The
    protocol sets :attr:`decoding` (``(precision, C_LCM)``) and per round
    :attr:`sampled` (None = all users) or :attr:`ot` (``(DH group, P)``)."""

    def __init__(
        self,
        n_users: int,
        paillier_bits: int = 512,
        rng: random.Random | None = None,
    ):
        self.n_users = n_users
        self.rng = rng
        # The key holder keeps the factorisation: CRT decryption/encryptions.
        self.keypair: PaillierKeypair = generate_paillier_keypair(paillier_bits, rng=rng, with_crt=True)
        self.pool = RandomizerPool(self.public_key, crt=self.keypair.private_key.crt, rng=rng)
        self.blinded_totals: list[int] | None = None
        self.blinded_inverses: list[int] | None = None
        self.decoding = self.sampled = self.ot = self.aggregate = None
        # What has arrived: DH publics, histograms, this round's vectors.
        self.dh_publics: dict[int, np.ndarray] = {}
        self.histograms: list[list[int]] = []
        self.deltas: list[list[int]] = []

    @property
    def public_key(self) -> PaillierPublicKey:
        return self.keypair.public_key

    # -- Setup steps ----------------------------------------------------------

    def aggregate_histograms(self, masked_histograms: list[list[int]]) -> None:
        """Step 1(e): sum doubly blinded histograms; masks cancel, leaving
        B(N_u) = r_u * N_u mod n (one object-array reduction over the
        (|S|, |U|) stack, then one modular pass)."""
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
        """Step 1(f): B_inv(N_u) = B(N_u)^-1 over F_n; a user with no
        records anywhere has B(N_u) = 0 and pseudo-inverse 0, so never
        contributes."""
        if self.blinded_totals is None:
            raise RuntimeError("aggregate_histograms must run first")
        n = self.public_key.n
        self.blinded_inverses = [0 if v == 0 else pow(v, -1, n) for v in self.blinded_totals]

    # -- Weighting round steps -------------------------------------------------

    def encrypted_inverses(
        self, sampled_users: np.ndarray | None = None
    ) -> list[PaillierCiphertext]:
        """Step 2(a): Paillier-encrypt B_inv(N_u) for broadcast; unsampled
        users get Enc(0), so their contributions vanish (Theorem 4)."""
        if self.blinded_inverses is None:
            raise RuntimeError("invert_blinded_totals must run first")
        include = np.ones(self.n_users, dtype=bool)
        if sampled_users is not None:
            include[:] = False
            include[np.asarray(sampled_users, dtype=np.int64)] = True
        return [
            self.encrypt_value(self.blinded_inverses[u] if include[u] else 0)
            for u in range(self.n_users)
        ]

    def encrypt_value(self, value: int) -> PaillierCiphertext:
        """One server-side encryption with a pooled, CRT-split randomizer
        (from the RNG stream a fresh ``public_key.encrypt`` would use, so
        bit-identical to it under a seeded RNG)."""
        return self.pool.encrypt(value)

    def aggregate_and_decrypt(
        self,
        silo_ciphertexts: list[list[PaillierCiphertext]],
        precision: float,
        c_lcm: int,
    ) -> np.ndarray:
        """Step 2(c): homomorphically sum silo vectors (the masks cancel),
        decrypt ``sum_su Encode(delta_su) * n_su * C_LCM / N_u + sum_s
        Encode(z_s) * C_LCM`` and decode (signed, /C_LCM, *precision)."""
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
            signed = self.keypair.private_key.decrypt_signed(totals[j])
            out[j] = (signed / c_lcm) * precision
        return out

    # -- Handlers -------------------------------------------------------------

    def key_arrays(self) -> dict:
        """Step 1(a): the Paillier key goes out with the relayed publics."""
        return {"n": int_blob([self.public_key.n], self.public_key.n + 1)}

    def on_seed(self, frame):
        """Step 1(c): relay silo 0's encrypted R to its peer."""
        return [Frame("seed", {"silo": frame.payload["to"]}, frame.arrays)]

    def on_masked_histogram(self, frame):
        self.histograms.append(blob_ints(frame.arrays["histogram"]))

    def on_invert(self, frame):
        self.aggregate_histograms(self.histograms)
        self.invert_blinded_totals()

    def on_offline(self, frame):
        self.pool.refill(self.n_users)

    def on_weights(self, frame):
        values = [c.value for c in self.encrypted_inverses(self.sampled)]
        return [Frame("weights", {}, {"weights": int_blob(values, self.public_key.n_squared)})]

    def on_ot(self, frame):
        """Section 4.1: run the OT exchanges one (silo, user) at a time."""
        self._ot_queue = itertools.product(range(len(self.dh_publics)), range(self.n_users))
        return self._ot_offer()

    def _ot_offer(self):
        """The next (silo, user)'s P slots: the real weight, then fresh
        Enc(0).  No offline prefill here: it would reorder these
        encryptions' draws against the OT exponents' on the shared RNG."""
        silo, user = next(self._ot_queue, (None, None))
        if silo is None:
            return []
        group, n_slots = self.ot
        values = [self.blinded_inverses[user]] + [0] * (n_slots - 1)
        messages = [self.encrypt_value(v) for v in values]
        width = (self.public_key.n_squared.bit_length() + 7) // 8
        sender = OTSender(group, n_slots, rng=self.rng)
        self._ot_exchange = (sender, [m.value.to_bytes(width, "big") for m in messages], user)
        commitments = int_blob(sender.public_commitments(), group.prime)
        return [Frame("ot_offer", {"silo": silo, "user": user}, {"commitments": commitments})]

    def on_ot_choice(self, frame):
        sender, messages, user = self._ot_exchange
        slots = sender.encrypt_slots(blob_ints(frame.arrays["key"])[0], messages)
        c1 = int_blob([c for c, _ in slots], sender.group.prime)
        bodies = np.frombuffer(b"".join(body for _, body in slots), np.uint8)
        arrays = {"c1": c1, "slots": bodies.reshape(len(slots), -1)}
        reply = Frame("ot_slots", {"silo": frame.payload["silo"], "user": user}, arrays)
        return [reply] + self._ot_offer()

    def on_weighted_delta(self, frame):
        pk = self.public_key
        self.deltas.append([PaillierCiphertext(v, pk) for v in blob_ints(frame.arrays["delta"])])

    def on_decrypt(self, frame):
        vectors, self.deltas = self.deltas, []
        self.aggregate = self.aggregate_and_decrypt(vectors, *self.decoding)

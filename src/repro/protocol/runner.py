"""Protocol 1 as message schedules between in-process parties.

:class:`PrivateWeightingProtocol` builds one :class:`ServerParty` and |S|
:class:`SiloParty` objects and, as a :class:`~repro.protocol.driver.Driver`,
runs :data:`SETUP` once, then :data:`ROUND` (or :data:`OT_ROUND`) per
training round.  Its phase clock feeds the Fig. 10-11 benchmarks and its
frame log is the server's view the privacy tests read (Theorem 5).
"""

from __future__ import annotations

import random

import numpy as np

from repro.crypto.dh import DHGroup
from repro.crypto.encoding import (
    MagnitudeBudgetError,
    check_magnitude_budget,
    lcm_up_to,
    require_magnitude_headroom,
    round_max_abs,
)
from repro.protocol.driver import HOST, KEY_EXCHANGE, SERVER, SILO, Driver
from repro.protocol.oblivious import PrivateSubsampler
from repro.protocol.parties import ServerParty, SiloParty

#: Steps 1(a)-(f): key exchange, seed transport, blinded histogram.
SETUP = KEY_EXCHANGE + (
    ("key_exchange", SILO, SERVER, "seed"),
    ("key_exchange", SERVER, SILO, "seed"),
    ("blinded_histogram", HOST, SILO, "histogram"),
    ("blinded_histogram", SILO, SERVER, "masked_histogram"),
    ("blinded_histogram", HOST, SERVER, "invert"),
)

#: Steps 2(b)-(c), shared by both rounds.
_WEIGHTING = (
    ("silo_weighted_encryption", HOST, SILO, "weigh"),
    ("aggregate_decrypt", SILO, SERVER, "weighted_delta"),
    ("aggregate_decrypt", HOST, SERVER, "decrypt"),
)

#: Steps 2(a)-(c) after the enhanced protocol's offline phase, whose draws
#: come in the seed loop's online order (server, then silos by id): that
#: keeps seeded runs in lockstep with tests/protocol/oracle_reference.py.
ROUND = (
    ("offline_randomizers", HOST, SERVER, "offline"),
    ("offline_randomizers", HOST, SILO, "offline"),
    ("encrypt_weights", HOST, SERVER, "weights"),
    ("encrypt_weights", SERVER, SILO, "weights"),
) + _WEIGHTING

#: A round whose step 2(a) is one 1-of-P OT per (silo, user), in turn.
OT_ROUND = (
    ("ot_private_sampling", HOST, SERVER, "ot"),
    ("ot_private_sampling", SERVER, SILO, "ot_offer"),
    ("ot_private_sampling", SILO, SERVER, "ot_choice"),
    ("ot_private_sampling", SERVER, SILO, "ot_slots"),
) + _WEIGHTING


class PrivateWeightingProtocol(Driver):
    """End-to-end Protocol 1: private ULDP-AVG-w aggregation.

    ``histogram`` is the true n[s, u] matrix; each silo gets *only its own
    row*.  ``n_max`` bounds records per user (C_LCM = lcm(1..n_max));
    ``precision`` is Algorithm 5's P; ``dh_group`` None = RFC 3526 group
    14; ``seed`` None = secrets-based randomness; ``workers`` sizes the
    kernel pool (None = min(|S|, cpus), 1 = in-process); ``ot_slots = P``
    runs every round as :meth:`run_round_ot_sampling` at q = 1/P.  The
    silos train on the unsampled weights: sampling is encrypted too.

    Under a seeded RNG every silo ciphertext decrypts to the same element
    of F_n as the seed implementation's, the RNG ends each round in the
    same state and every aggregate is bit-identical to it: the test oracle
    ``tests/protocol/oracle_reference.py`` swaps in its own party classes.
    """

    server_cls = ServerParty
    silo_cls = SiloParty
    backend = "fast"
    #: Why a round refuses silo dropout (None: it accepts it).
    dropout_refusal = (
        "the Paillier crypto backend ('fast') does not support partial participation: "
        "per-user weights are fixed inside the encrypted setup and silo dropout would "
        "desynchronise the blinding-mask cancellation; use crypto_backend='masked' "
        "(pairwise-mask secure aggregation with dropout recovery) for secure rounds under dropout"
    )

    def __init__(
        self,
        histogram: np.ndarray,
        n_max: int = 64,
        paillier_bits: int = 512,
        precision: float = 1e-10,
        dh_group: DHGroup | None = None,
        seed: int | None = None,
        workers: int | None = None,
        ot_slots: int | None = None,
    ):
        super().__init__(workers)
        histogram = np.asarray(histogram, dtype=np.int64)
        if histogram.ndim != 2:
            raise ValueError("histogram must be (|S|, |U|)")
        if histogram.shape[0] < 2:
            raise ValueError("the protocol needs at least two silos")
        if int(histogram.sum(axis=0).max(initial=0)) > n_max:
            raise ValueError("some user exceeds N_max across silos; raise n_max")
        self.histogram = histogram
        self.n_silos, self.n_users = histogram.shape
        self.n_max = n_max
        self.c_lcm = lcm_up_to(n_max)
        self.precision = precision
        self._num_terms = self.n_silos * (self.n_users + 1)
        # _check_round_inputs floors max_abs at 1.0 and sees n < 2**bits.
        require_magnitude_headroom(n_max, "paillier_bits", paillier_bits, precision, 1.0, self._num_terms)
        self.ot_slots = ot_slots
        self.subsampler: PrivateSubsampler | None = None
        self.rng = rng = random.Random(seed) if seed is not None else None

        group = dh_group if dh_group is not None else DHGroup.rfc3526_2048()
        with self.phase("keygen"):
            self.server = self.server_cls(self.n_users, paillier_bits=paillier_bits, rng=rng)
            self.silos = [self.silo_cls(s, histogram[s], n_max, group, rng=rng)
                          for s in range(self.n_silos)]
        self.server.decoding = (precision, self.c_lcm)

    @property
    def ciphertext_bytes(self) -> int:
        """Wire size of one Paillier ciphertext (an element of Z_{n^2}): a
        round ships one per coordinate per silo."""
        return (self.server.public_key.n_squared.bit_length() + 7) // 8

    coordinate_bytes = ciphertext_bytes

    def run_setup(self) -> None:
        """Steps 1(a)-(f): key exchange, seed transport, blinded histogram."""
        self.setup(SETUP)
        if self.ot_slots is not None:
            self.subsampler = PrivateSubsampler(self.silos[0].shared_seed, self.ot_slots)

    # -- Weighting phase -------------------------------------------------------

    def _check_round_inputs(
        self,
        clipped_deltas: list[dict[int, np.ndarray]],
        noises: list[np.ndarray],
    ) -> None:
        """Shape validation + Theorem 4's overflow guard: refuse inputs
        whose fixed-point sums could pass n/2 (signed decoding would wrap
        silently) and any non-finite value (named with its silo and user)."""
        if len(clipped_deltas) != self.n_silos or len(noises) != self.n_silos:
            raise ValueError("need one delta dict and noise vector per silo")
        max_abs = max(1.0, round_max_abs(clipped_deltas, noises))
        if not check_magnitude_budget(
            self.server.public_key.n, self.c_lcm, self.precision, max_abs,
            num_terms=self._num_terms,
        ):
            raise MagnitudeBudgetError(
                "fixed-point magnitude budget exceeded; increase paillier_bits "
                f"or precision, or decrease n_max (= {self.n_max})"
            )

    def run_round(
        self,
        clipped_deltas: list[dict[int, np.ndarray]],
        noises: list[np.ndarray],
        round_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Steps 2(a)-(c) for one round: per silo a {user: clipped delta}
        dict and a noise vector; the server zeroes the encrypted weights of
        users whose ``round_weights`` column is all zero (None = everyone
        sampled; the weights themselves are the set-up's ``n_su / N_u``).
        Returns the decoded sum of ``(n_su / N_u) * delta_su`` over the
        sampled users plus the summed noise.  With ``ot_slots``, the OT
        round of :meth:`run_round_ot_sampling` samples instead."""
        if self.subsampler is not None:
            return self.run_round_ot_sampling(clipped_deltas, noises, self.subsampler)
        self._start_round(clipped_deltas, noises)
        self.server.sampled = (None if round_weights is None
                               else np.flatnonzero(np.sum(round_weights, axis=0) > 0))
        self.round(ROUND)
        return self.server.aggregate

    def _start_round(self, clipped_deltas, noises) -> None:
        """Refuse a round before set-up or on bad inputs -- before any
        party state changes -- then hand each silo its local inputs."""
        self.require_setup()
        self._check_round_inputs(clipped_deltas, noises)
        for silo, deltas, noise in zip(self.silos, clipped_deltas, noises):
            silo.inputs = (deltas, noise, self.round_no, self.precision)

    # -- Private sub-sampling via 1-out-of-P OT (Section 4.1 extension) --------

    def run_round_ot_sampling(
        self,
        clipped_deltas: list[dict[int, np.ndarray]],
        noises: list[np.ndarray],
        subsampler: PrivateSubsampler,
    ) -> np.ndarray:
        """One round with OT-hidden user-level sub-sampling.

        Per user the server offers P slots -- slot 0 the real encrypted
        inverse, the rest fresh Enc(0) -- and each silo takes one by
        Naor-Pinkas 1-of-P OT: the server cannot tell which (OT receiver
        privacy), the silo cannot tell a real weight from a dummy (semantic
        security), and all silos take the *same* slot, derived from their
        shared seed R per user and round, so a user participates with
        probability 1/P.  Returns the aggregate over the sampled users.
        """
        self.require_setup()
        if self.silos[0].shared_seed != subsampler.shared_seed:
            raise ValueError("subsampler must be seeded with the silos' shared seed R")
        self._start_round(clipped_deltas, noises)
        self.server.ot = (self.silos[0].dh_keypair.group, subsampler.n_slots)
        self.round(OT_ROUND)
        return self.server.aggregate

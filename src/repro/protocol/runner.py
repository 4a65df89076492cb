"""Orchestration of Protocol 1 between in-process parties.

:class:`PrivateWeightingProtocol` wires one :class:`ServerParty` and |S|
:class:`SiloParty` objects through the setup phase (once) and the weighting
phase (every round), timing each phase for the Fig. 10-11 benchmarks and
recording the *server's view* -- every value that crosses the wire toward
the server -- so the privacy tests can assert the server never sees a raw
histogram (Theorem 5).

The orchestrator itself plays the network: values returned by one party are
handed to the other exactly as the protocol prescribes, and nothing else.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.crypto.dh import DHGroup
from repro.crypto.encoding import (
    MagnitudeBudgetError,
    check_magnitude_budget,
    lcm_up_to,
    require_magnitude_headroom,
    round_max_abs,
)
from repro.crypto.paillier import PaillierCiphertext
from repro.protocol.oblivious import OTReceiver, OTSender, PrivateSubsampler
from repro.protocol.parties import (
    ServerParty,
    SiloParty,
    run_weighted_delta_kernel,
)
from repro.obs.metrics import get_registry
from repro.protocol.timing import PhaseTimer


@dataclass
class ServerView:
    """Everything the server observes across the protocol run."""

    dh_publics: dict[int, int] = field(default_factory=dict)
    seed_ciphertexts: dict[int, bytes] = field(default_factory=dict)
    masked_histograms: list[list[int]] = field(default_factory=list)
    blinded_totals: list[int] = field(default_factory=list)
    round_ciphertexts: list[list[list[int]]] = field(default_factory=list)
    decrypted_aggregates: list[np.ndarray] = field(default_factory=list)


class PrivateWeightingProtocol:
    """End-to-end Protocol 1: private ULDP-AVG-w aggregation.

    Args:
        histogram: the true n[s, u] matrix -- each silo is constructed with
            *only its own row*; the full matrix never reaches the server.
        n_max: public bound on records per user (C_LCM = lcm(1..n_max)).
        paillier_bits: Paillier modulus size (paper: 3072; tests: smaller).
        precision: fixed-point precision P of Algorithm 5.
        dh_group: the silos' key-agreement group; None = RFC 3526 group 14
            (tests pass the 512-bit ``DHGroup.test_group()`` explicitly).
        seed: deterministic randomness for reproducible tests; None uses
            cryptographically secure randomness.
        workers: process count for the per-silo weighting step.
            None = min(|S|, cpu count); 1 = in-process.

    The parties compute with CRT decryption, a split-exponent weighting
    kernel and offline randomizer pools; under a seeded RNG every silo
    ciphertext decrypts to the same element of F_n, the RNG ends each round
    in the same state and every aggregate is bit-identical to the seed
    implementation, which lives on as the test oracle
    ``tests/protocol/oracle_reference.py`` (it swaps the party classes
    below for its own).
    """

    server_cls = ServerParty
    silo_cls = SiloParty

    def __init__(
        self,
        histogram: np.ndarray,
        n_max: int = 64,
        paillier_bits: int = 512,
        precision: float = 1e-10,
        dh_group: DHGroup | None = None,
        seed: int | None = None,
        workers: int | None = None,
    ):
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
        require_magnitude_headroom(
            n_max, "paillier_bits", paillier_bits, precision, 1.0, self._num_terms
        )
        self.timer = PhaseTimer()
        self.view = ServerView()
        self.round_no = 0
        self.workers = workers
        rng = random.Random(seed) if seed is not None else None
        self.rng = rng

        group = dh_group if dh_group is not None else DHGroup.rfc3526_2048()
        with self.timer.phase("keygen"):
            self.server = self.server_cls(
                self.n_users, paillier_bits=paillier_bits, rng=rng
            )
            self.silos = [
                self.silo_cls(s, histogram[s], n_max, group, rng=rng)
                for s in range(self.n_silos)
            ]
        self._setup_done = False
        self._executor: ProcessPoolExecutor | None = None

    def close(self) -> None:
        """Release the worker pool (safe to call repeatedly, and on
        partially constructed instances via ``__del__``)."""
        if getattr(self, "_executor", None) is not None:
            self._executor.shutdown()
            self._executor = None

    def __del__(self):
        self.close()

    @property
    def ciphertext_bytes(self) -> int:
        """Wire size of one Paillier ciphertext (an element of Z_{n^2}).

        The unit of Protocol 1's uplink byte accounting: a round ships one
        ciphertext per coordinate per silo, so sparsifying to k surviving
        coordinates shrinks the uplink by exactly d/k.
        """
        return (self.server.public_key.n_squared.bit_length() + 7) // 8

    def _effective_workers(self) -> int:
        if self.workers is not None:
            return max(1, min(self.workers, self.n_silos))
        return max(1, min(self.n_silos, os.cpu_count() or 1))

    def _get_executor(self, workers: int) -> ProcessPoolExecutor:
        """The protocol-lifetime worker pool, created lazily on first use
        (spawning processes every round would dwarf small kernels)."""
        if self._executor is None:
            # Prefer fork only where it is safe (Linux); macOS forks crash
            # intermittently with threaded parents, hence CPython's own
            # switch of the platform default to spawn.
            mp_context = None
            if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
                mp_context = multiprocessing.get_context("fork")
            self._executor = ProcessPoolExecutor(
                max_workers=workers, mp_context=mp_context
            )
        return self._executor

    def _silo_weighted_vectors(
        self,
        per_silo_inverses: list[list[PaillierCiphertext]],
        clipped_deltas: list[dict[int, np.ndarray]],
        noises: list[np.ndarray],
    ) -> list[list[PaillierCiphertext]]:
        """Step 2(b)-(c) for every silo, in parallel when it pays off.

        Each silo's weighted encryption is embarrassingly parallel.  The
        RNG/key-dependent task preparation always happens in-process, silo
        by silo, so the draw order does not depend on ``workers``; only the
        pure big-int kernels run inline or in the process pool, and the
        results are bit-identical either way.
        """
        tasks = (
            silo.weighted_delta_task(
                per_silo_inverses[s],
                clipped_deltas[s],
                noises[s],
                round_no=self.round_no,
                precision=self.precision,
            )
            for s, silo in enumerate(self.silos)
        )
        workers = self._effective_workers()
        run = self._get_executor(workers).map if workers > 1 else map
        pk = self.server.public_key
        return [
            [PaillierCiphertext(v, pk) for v in vec]
            for vec in run(run_weighted_delta_kernel, tasks)
        ]

    # -- Setup phase ---------------------------------------------------------

    def run_setup(self) -> None:
        """Steps 1(a)-(f): key exchange, seed transport, blinded histogram."""
        with self.timer.phase("key_exchange"):
            publics = {s.silo_id: s.dh_public() for s in self.silos}
            self.view.dh_publics = dict(publics)  # server relays these
            for silo in self.silos:
                silo.receive_dh_publics(publics)
                silo.receive_paillier_key(self.server.public_key)

            seed_cts = self.silos[0].generate_seed_ciphertexts(list(publics))
            self.view.seed_ciphertexts = dict(seed_cts)  # relayed via server
            for peer, ct in seed_cts.items():
                self.silos[peer].receive_seed_ciphertext(ct)

        with self.timer.phase("blinded_histogram"):
            masked = [silo.blinded_masked_histogram() for silo in self.silos]
            self.view.masked_histograms = [list(h) for h in masked]
            self.server.aggregate_histograms(masked)
            assert self.server.blinded_totals is not None
            self.view.blinded_totals = list(self.server.blinded_totals)
            self.server.invert_blinded_totals()
        self._setup_done = True

    # -- Weighting phase -------------------------------------------------------

    def _check_round_inputs(
        self,
        clipped_deltas: list[dict[int, np.ndarray]],
        noises: list[np.ndarray],
    ) -> int:
        """Shape validation + Theorem 4's overflow guard; returns d.

        Both round entry points (plain and OT-sampled) must refuse inputs
        whose accumulated fixed-point magnitudes could exceed n/2 -- past
        that, signed decoding silently wraps instead of failing loudly --
        and any non-finite value (named with its silo and user).
        """
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
        return len(noises[0])

    def run_round(
        self,
        clipped_deltas: list[dict[int, np.ndarray]],
        noises: list[np.ndarray],
        sampled_users: np.ndarray | None = None,
    ) -> np.ndarray:
        """Steps 2(a)-(c) for one training round.

        Args:
            clipped_deltas: per silo, user id -> clipped (unweighted) delta.
            noises: per silo Gaussian noise vector.
            sampled_users: user ids sampled this round (None = everyone);
                the server zeroes the encrypted weights of the others.

        Returns:
            The decoded aggregate: sum over silos and users of
            ``(n_su / N_u) * delta_su`` plus the summed noise.
        """
        if not self._setup_done:
            raise RuntimeError("run_setup must be called first")
        d = self._check_round_inputs(clipped_deltas, noises)

        with self.timer.phase("offline_randomizers"):
            # The enhanced protocol's offline phase: pregenerate every
            # blinding term this round will consume.  Refill order is the
            # seed loop's online draw order (server first, then silos by
            # id), which is what keeps seeded runs in lockstep with the
            # oracle in tests/protocol/oracle_reference.py.
            self.server.prepare_offline(self.n_users)
            for silo in self.silos:
                silo.prepare_offline(d)

        with self.timer.phase("encrypt_weights"):
            enc_inverses = self.server.encrypted_inverses(sampled_users)

        return self._weight_and_aggregate(
            [enc_inverses] * self.n_silos, clipped_deltas, noises
        )

    def _weight_and_aggregate(
        self,
        per_silo_inverses: list[list[PaillierCiphertext]],
        clipped_deltas: list[dict[int, np.ndarray]],
        noises: list[np.ndarray],
    ) -> np.ndarray:
        """Steps 2(b)-(c), shared by both round entry points: silo vectors,
        the server's view of them, aggregate decryption, round counter."""
        with self.timer.phase("silo_weighted_encryption"):
            silo_vectors = self._silo_weighted_vectors(
                per_silo_inverses, clipped_deltas, noises
            )
        self.view.round_ciphertexts.append(
            [[c.value for c in vec] for vec in silo_vectors]
        )
        get_registry().counter(
            "protocol_ciphertexts_total",
            help="Paillier ciphertexts produced by silo-weighted encryption.",
        ).inc(sum(len(vec) for vec in silo_vectors))

        with self.timer.phase("aggregate_decrypt"):
            aggregate = self.server.aggregate_and_decrypt(
                silo_vectors, self.precision, self.c_lcm
            )
        self.view.decrypted_aggregates.append(aggregate.copy())
        self.round_no += 1
        return aggregate

    # -- Private sub-sampling via 1-out-of-P OT (Section 4.1 extension) --------

    def run_round_ot_sampling(
        self,
        clipped_deltas: list[dict[int, np.ndarray]],
        noises: list[np.ndarray],
        subsampler: PrivateSubsampler,
    ) -> np.ndarray:
        """One round with OT-hidden user-level sub-sampling.

        Instead of broadcasting Enc(B_inv(N_u)) (which tells silos that
        everyone participates) or zeroed weights (which would tell silos who
        was dropped), the server prepares P slots per user -- slot 0 holds
        the real encrypted inverse, the rest hold fresh Enc(0) -- and each
        silo retrieves one slot by Naor-Pinkas 1-of-P OT:

        - the server cannot tell which slot a silo took (OT receiver
          privacy), so it does not learn the sampling outcome;
        - the silo cannot tell whether it holds the real weight or a dummy
          (Paillier semantic security), so neither does it;
        - all silos take the *same* slot, derived from their shared seed R
          (per user, per round), preserving the Poisson-per-user semantics;
          participation probability is 1/P.

        Returns the decoded aggregate over the implicitly sampled users.
        """
        if not self._setup_done:
            raise RuntimeError("run_setup must be called first")
        if self.silos[0].shared_seed != subsampler.shared_seed:
            raise ValueError("subsampler must be seeded with the silos' shared seed R")
        self._check_round_inputs(clipped_deltas, noises)

        pk = self.server.public_key
        byte_len = (pk.n_squared.bit_length() + 7) // 8
        # Per-round OT randomness comes from the protocol's RNG: seeded runs
        # stay reproducible, production runs (seed=None) fall through to the
        # OT classes' secrets-based randomness.  (Seeding from the public
        # round number, as the seed code did, would make the OT blinding
        # exponents predictable to anyone.)
        rng = self.rng
        group = self.silos[0].dh_keypair.group
        n_slots = subsampler.n_slots

        with self.timer.phase("ot_private_sampling"):
            assert self.server.blinded_inverses is not None
            per_silo_inverses: list[list[PaillierCiphertext]] = []
            for silo in self.silos:
                received: list[PaillierCiphertext] = []
                for u in range(self.n_users):
                    # Server-side slot preparation: real weight + dummies
                    # (by far the bulk of the server's per-round encryption
                    # work; encrypt_value CRT-splits each randomizer).
                    # Unlike run_round, this path deliberately has no
                    # offline pool prefill: the slot encryptions interleave
                    # with the OT exponent draws on the shared RNG, and
                    # prefilling would reorder those draws and break the
                    # seeded equivalence with the test oracle.
                    messages = [
                        self.server.encrypt_value(self.server.blinded_inverses[u])
                    ] + [self.server.encrypt_value(0) for _ in range(n_slots - 1)]
                    payloads = [
                        m.value.to_bytes(byte_len, "big") for m in messages
                    ]
                    choice = subsampler.slot_for(u, self.round_no)
                    sender = OTSender(group, n_slots, rng=rng)
                    receiver = OTReceiver(
                        group, sender.public_commitments(), choice, rng=rng
                    )
                    slots = sender.encrypt_slots(receiver.public_key(), payloads)
                    chosen = receiver.decrypt_choice(slots)
                    received.append(
                        PaillierCiphertext(int.from_bytes(chosen, "big"), pk)
                    )
                per_silo_inverses.append(received)

        return self._weight_and_aggregate(per_silo_inverses, clipped_deltas, noises)

    # -- Reference computation -------------------------------------------------

    def plaintext_reference(
        self,
        clipped_deltas: list[dict[int, np.ndarray]],
        noises: list[np.ndarray],
        sampled_users: np.ndarray | None = None,
    ) -> np.ndarray:
        """The non-secure computation Theorem 4 compares against."""
        totals = self.histogram.sum(axis=0)
        include = np.ones(self.n_users, dtype=bool)
        if sampled_users is not None:
            include[:] = False
            include[np.asarray(sampled_users, dtype=np.int64)] = True
        aggregate = np.zeros(len(noises[0]))
        for s in range(self.n_silos):
            for user, delta in clipped_deltas[s].items():
                if not include[user] or totals[user] == 0:
                    continue
                aggregate += (self.histogram[s, user] / totals[user]) * delta
            aggregate += noises[s]
        return aggregate

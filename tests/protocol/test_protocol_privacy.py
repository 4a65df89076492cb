"""Theorem 5: structural privacy checks on the server's view.

We cannot prove indistinguishability in a unit test, but we can verify the
mechanics the proof relies on: the server never receives a raw histogram,
its blinded view changes completely under a different shared seed while the
true histogram stays fixed, two histograms with equal blinds produce views
related only through the blind, and individual silo contributions are
masked (they do not equal the unmasked blinded values).
"""

import numpy as np
import pytest
from toy_crypto import TOY_DH_GROUP

from repro.protocol import PrivateWeightingProtocol

HIST = np.array([
    [3, 0, 2, 1],
    [1, 4, 0, 1],
    [2, 1, 1, 0],
])


def setup_protocol(hist=HIST, seed=0):
    proto = PrivateWeightingProtocol(
        hist, n_max=16, paillier_bits=256, seed=seed, dh_group=TOY_DH_GROUP
    )
    proto.run_setup()
    return proto


class TestServerView:
    def test_raw_counts_never_in_view(self):
        proto = setup_protocol()
        view = proto.view
        raw_counts = set(int(v) for v in HIST.ravel()) | set(
            int(v) for v in HIST.sum(axis=0)
        )
        seen = set()
        for hist in view.masked_histograms:
            seen.update(hist)
        seen.update(view.blinded_totals)
        # Blinded/masked values are ~256-bit field elements; raw counts are
        # tiny integers.  None may appear verbatim.
        assert not (seen & raw_counts)

    def test_masked_contributions_differ_from_blinded_values(self):
        """The additive masks must actually hide each silo's blinded row."""
        proto = setup_protocol()
        silo0 = proto.silos[0]
        assert silo0.blinding is not None
        n = proto.server.public_key.n
        unmasked = [
            silo0.blinding.blind(u, int(HIST[0, u])) % n for u in range(proto.n_users)
        ]
        masked = proto.view.masked_histograms[0]
        assert masked != unmasked

    def test_blinded_totals_factor_correctly(self):
        """B(N_u) = r_u * N_u: the server's view is the blinded total, and
        unblinding (which the server cannot do without R) recovers N_u."""
        proto = setup_protocol()
        n = proto.server.public_key.n
        blinding = proto.silos[0].blinding
        assert blinding is not None
        totals = HIST.sum(axis=0)
        for u in range(proto.n_users):
            expected = blinding.blind(u, int(totals[u]))
            assert proto.view.blinded_totals[u] == expected % n

    def test_view_changes_with_seed_same_histogram(self):
        """Same data, different protocol randomness => disjoint server view.

        This is the mechanical core of the uniformity argument: the blinded
        total is r_u * N_u with r_u fresh, so the view carries no stable
        function of N_u."""
        a = setup_protocol(seed=1)
        b = setup_protocol(seed=2)
        assert set(a.view.blinded_totals).isdisjoint(set(b.view.blinded_totals))

    def test_round_ciphertexts_recorded_but_opaque(self):
        proto = setup_protocol()
        rng = np.random.default_rng(0)
        deltas = []
        for s in range(proto.n_silos):
            deltas.append(
                {u: rng.standard_normal(3) for u in range(proto.n_users) if HIST[s, u] > 0}
            )
        noises = [rng.standard_normal(3) for _ in range(proto.n_silos)]
        proto.run_round(deltas, noises)
        cts = proto.view.round_ciphertexts[0]
        assert len(cts) == proto.n_silos
        # Ciphertexts live in Z_{n^2}: enormous integers, not model values.
        n2 = proto.server.public_key.n_squared
        for vec in cts:
            for value in vec:
                assert 0 < value < n2
                assert value > 2**200

    def test_seed_ciphertexts_hide_seed(self):
        proto = setup_protocol()
        seed = proto.silos[0].shared_seed
        assert seed is not None
        for ct in proto.view.seed_ciphertexts.values():
            assert ct != seed

    def test_all_silos_agree_on_seed(self):
        proto = setup_protocol()
        seeds = {s.shared_seed for s in proto.silos}
        assert len(seeds) == 1


class TestPairwiseMaskCancellation:
    def test_histogram_masks_cancel_in_totals(self):
        """Summing the masked histograms must equal summing unmasked blinded
        histograms: the masks add to zero."""
        proto = setup_protocol()
        n = proto.server.public_key.n
        blinding = proto.silos[0].blinding
        totals_from_masked = proto.view.blinded_totals
        expected = [
            blinding.blind(u, int(HIST.sum(axis=0)[u])) % n for u in range(proto.n_users)
        ]
        assert totals_from_masked == expected

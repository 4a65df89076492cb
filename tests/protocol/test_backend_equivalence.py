"""Differential harness: the secure backends against each other.

The masked backend's correctness contract, end to end through
:class:`SecureUldpAvg`:

- **exactly** equal to Paillier -- the runtime ``fast`` backend and its
  reference oracle (``oracle_reference.py``) -- under full participation
  (all decode the identical integer arithmetic), and
- equal to the plaintext :class:`UldpAvg` within fixed-point tolerance
  under *every* participation pattern, including exhaustively enumerated
  dropout subsets at |S| <= 4 (which Paillier rejects).
"""

import itertools

import numpy as np
import pytest
from oracle_reference import ReferenceSecureUldpAvg
from toy_crypto import TOY_DH_GROUP

from repro.core import Trainer, UldpAvg
from repro.core.weighting import RoundParticipation
from repro.data import build_creditcard_benchmark
from repro.nn.model import build_tiny_mlp
from repro.protocol import SecureUldpAvg


@pytest.fixture(scope="module")
def fed():
    return build_creditcard_benchmark(
        n_users=6, n_silos=3, n_records=120, n_test=40, seed=0
    )


@pytest.fixture(scope="module")
def fed4():
    """Four silos for the exhaustive |S| <= 4 dropout enumeration."""
    return build_creditcard_benchmark(
        n_users=8, n_silos=4, n_records=160, n_test=40, seed=1
    )


def make_model():
    return build_tiny_mlp(30, 2, 2, np.random.default_rng(42))


def run(method, fed, rounds=2, seed=0, participations=None):
    model = make_model()
    trainer = Trainer(fed, method, rounds=rounds, model=model, seed=seed)
    if participations is None:
        trainer.run()
    else:
        for part in participations:
            trainer.step(participation=part)
    return model.get_flat_params(), trainer.history


def masked(**kwargs):
    kwargs.setdefault("local_epochs", 1)
    kwargs.setdefault("noise_multiplier", 1.0)
    kwargs.setdefault("local_lr", 0.1)
    return SecureUldpAvg(crypto_backend="masked", dh_group=TOY_DH_GROUP, **kwargs)


def plain(**kwargs):
    kwargs.setdefault("local_epochs", 1)
    kwargs.setdefault("noise_multiplier", 1.0)
    kwargs.setdefault("local_lr", 0.1)
    return UldpAvg(weighting="proportional", **kwargs)


class TestFullParticipation:
    def test_masked_equals_paillier_exactly(self, fed):
        """Bit-for-bit: both backends decode the same integer arithmetic."""
        paillier_params, _ = run(
            SecureUldpAvg(local_epochs=1, noise_multiplier=1.0, local_lr=0.1,
                          paillier_bits=256, dh_group=TOY_DH_GROUP),
            fed, seed=7,
        )
        masked_params, _ = run(masked(), fed, seed=7)
        assert np.array_equal(masked_params, paillier_params)

    def test_masked_equals_reference_paillier_exactly(self, fed):
        reference_params, _ = run(
            ReferenceSecureUldpAvg(local_epochs=1, noise_multiplier=1.0,
                                   local_lr=0.1, paillier_bits=256,
                                   dh_group=TOY_DH_GROUP),
            fed, rounds=1, seed=3,
        )
        masked_params, _ = run(masked(), fed, rounds=1, seed=3)
        assert np.array_equal(masked_params, reference_params)

    def test_masked_matches_plaintext_within_encoding(self, fed):
        plain_params, _ = run(plain(), fed, seed=7)
        masked_params, _ = run(masked(), fed, seed=7)
        np.testing.assert_allclose(masked_params, plain_params, atol=1e-6)

    def test_subsampling_matches_plaintext(self, fed):
        # The masked path keeps the plaintext Algorithm 4 visibility model,
        # so server-side Poisson sampling aligns draw for draw.
        plain_params, _ = run(plain(user_sample_rate=0.5), fed, seed=11)
        masked_params, _ = run(masked(user_sample_rate=0.5), fed, seed=11)
        np.testing.assert_allclose(masked_params, plain_params, atol=1e-6)

    def test_epsilon_identical(self, fed):
        _, plain_hist = run(plain(noise_multiplier=5.0), fed, seed=3)
        _, masked_hist = run(masked(noise_multiplier=5.0), fed, seed=3)
        assert masked_hist.final.epsilon == pytest.approx(
            plain_hist.final.epsilon
        )


class TestDropoutEquivalence:
    def test_every_survivor_subset_matches_plaintext(self, fed4):
        """Exhaustive enumeration at |S| = 4: every non-empty survivor
        subset trains identically to the plaintext method under the same
        roster (the recovered masked sum equals the plaintext sum over
        survivors)."""
        for r in range(1, 5):
            for survivors in itertools.combinations(range(4), r):
                mask = np.zeros(4, dtype=bool)
                mask[list(survivors)] = True
                parts = [RoundParticipation(silo_mask=mask.copy())]
                plain_params, _ = run(
                    plain(), fed4, seed=5, participations=parts
                )
                masked_params, _ = run(
                    masked(), fed4, seed=5, participations=parts
                )
                np.testing.assert_allclose(
                    masked_params, plain_params, atol=1e-6,
                    err_msg=f"survivors={survivors}",
                )

    def test_multi_round_churn_matches_plaintext(self, fed):
        parts = [
            RoundParticipation(silo_mask=np.array([True, False, True])),
            None,
            RoundParticipation(silo_mask=np.array([False, True, True])),
        ]
        plain_params, plain_hist = run(
            plain(), fed, rounds=3, seed=13, participations=parts
        )
        masked_params, masked_hist = run(
            masked(), fed, rounds=3, seed=13, participations=parts
        )
        np.testing.assert_allclose(masked_params, plain_params, atol=1e-6)
        assert masked_hist.participation == plain_hist.participation

    def test_renormed_weights_match_plaintext(self, fed):
        # Survivor renormalisation breaks the exact n_su/N_u form, hitting
        # the rounded-numerator fallback; agreement degrades only to the
        # 1/(2*C_LCM) rounding bound, far inside the 1e-6 tolerance.
        parts = [RoundParticipation(
            silo_mask=np.array([True, False, True]), renorm="survivors"
        )]
        plain_params, _ = run(plain(), fed, seed=17, participations=parts)
        masked_params, _ = run(masked(), fed, seed=17, participations=parts)
        np.testing.assert_allclose(masked_params, plain_params, atol=1e-6)

    def test_uplink_bytes_charge_survivors_only(self, fed):
        method = masked()
        parts = [RoundParticipation(silo_mask=np.array([True, False, True]))]
        _, hist = run(method, fed, rounds=1, seed=2, participations=parts)
        per_coord = method.masked_protocol.mask_bytes
        dim = 68  # tiny MLP parameter count
        assert hist.comm[0].uplink_bytes == 2 * dim * per_coord


class TestMinSurvivorsQuorum:
    """``min_survivors`` bounds the false-dropout attack surface: a round
    whose survivor set is smaller aborts with QuorumError instead of
    aggregating (docs/protocol_performance.md)."""

    def test_round_below_quorum_aborts(self, fed):
        method = masked(min_survivors=2)
        trainer = Trainer(fed, method, rounds=1, model=make_model(), seed=0)
        from repro.core.weighting import QuorumError

        with pytest.raises(QuorumError, match="below min_survivors=2"):
            trainer.step(
                participation=RoundParticipation(
                    silo_mask=np.array([False, False, True])
                )
            )

    def test_round_at_quorum_still_aggregates(self, fed):
        parts = [RoundParticipation(silo_mask=np.array([True, False, True]))]
        plain_params, _ = run(plain(), fed, seed=5, participations=parts)
        quorum_params, _ = run(
            masked(min_survivors=2), fed, seed=5, participations=parts
        )
        np.testing.assert_allclose(quorum_params, plain_params, atol=1e-6)

    def test_min_survivors_validated(self):
        with pytest.raises(ValueError, match="min_survivors"):
            masked(min_survivors=0)


class TestPaillierStillRejectsDropout:
    """Satellite regression: Paillier must keep refusing partial
    participation, and the error must route users to ``masked``."""

    @pytest.mark.parametrize(
        "cls", [ReferenceSecureUldpAvg, SecureUldpAvg], ids=["reference", "fast"]
    )
    def test_rejects_with_pointer_to_masked(self, fed, cls):
        method = cls(local_epochs=1, noise_multiplier=1.0, paillier_bits=256,
                     dh_group=TOY_DH_GROUP)
        trainer = Trainer(fed, method, rounds=1, model=make_model(), seed=0)
        with pytest.raises(NotImplementedError) as err:
            trainer.step(
                participation=RoundParticipation(
                    silo_mask=np.array([True, False, True])
                )
            )
        assert "crypto_backend='masked'" in str(err.value)

    def test_masked_rejects_ot_subsampling(self):
        with pytest.raises(ValueError, match="Paillier-specific"):
            SecureUldpAvg(crypto_backend="masked", private_subsampling_slots=4)


class TestMaskedMethodSurface:
    def test_timing_report_has_masked_phases(self, fed):
        method = masked()
        run(method, fed, rounds=1, seed=0)
        report = method.timing_report()
        for phase in ("keygen", "key_exchange", "mask_and_upload", "aggregate"):
            assert phase in report

    def test_uplink_payload_bytes_uses_mask_width(self, fed):
        method = masked()
        run(method, fed, rounds=1, seed=0)
        assert method.uplink_payload_bytes() == 68 * method.masked_protocol.mask_bytes

"""Tests for the federation scheduler: oracle equivalence and policies."""

import numpy as np
import pytest

from repro.core import Trainer, RoundParticipation, participation_weights, realised_sensitivity
from repro.core.methods.uldp_avg import UldpAvg
from repro.data import build_creditcard_benchmark
from repro.sim import (
    BufferedAsyncPolicy,
    ChurnProcess,
    FederationSimulator,
    IidSiloDropout,
    LogNormalLatency,
    SemiSyncPolicy,
    SimConfig,
    SiloOutageWindows,
    SyncPolicy,
    staleness_weight,
)


def tiny_fed(seed=0, n_users=10, n_silos=3):
    return build_creditcard_benchmark(
        n_users=n_users, n_silos=n_silos, n_records=200, n_test=60, seed=seed
    )


def tiny_method(**kwargs):
    defaults = dict(noise_multiplier=1.0, local_epochs=1, weighting="proportional")
    defaults.update(kwargs)
    return UldpAvg(**defaults)


class TestOracleEquivalence:
    def test_sync_zero_dropout_matches_trainer_exactly(self):
        fed = tiny_fed()
        config = SimConfig(rounds=3, policy=SyncPolicy(), seed=11)
        sim = FederationSimulator(fed, tiny_method(), config)
        sim.run()

        oracle = Trainer(tiny_fed(), tiny_method(), rounds=3, seed=11)
        oracle_history = oracle.run()

        assert np.array_equal(sim.trainer.params, oracle.params)
        assert sim.history.records == oracle_history.records
        assert sim.history.participation == oracle_history.participation

    def test_oracle_holds_for_every_renorm(self):
        # Under full participation all renorm strategies are the identity.
        finals = []
        for renorm in ("none", "survivors", "carryover"):
            config = SimConfig(rounds=2, renorm=renorm, seed=4)
            sim = FederationSimulator(tiny_fed(), tiny_method(), config)
            sim.run()
            finals.append(sim.trainer.params)
        assert np.array_equal(finals[0], finals[1])
        assert np.array_equal(finals[0], finals[2])


class TestParticipationWeights:
    def test_full_participation_is_identity(self):
        w = np.full((3, 4), 0.25)
        p = RoundParticipation(silo_mask=np.ones(3, dtype=bool), renorm="survivors")
        assert np.array_equal(participation_weights(w, p), w)

    def test_survivors_restore_column_sums(self):
        w = np.full((4, 5), 0.25)
        p = RoundParticipation(
            silo_mask=np.array([True, True, False, False]), renorm="survivors"
        )
        realised = participation_weights(w, p)
        assert np.allclose(realised.sum(axis=0), 1.0)
        assert realised_sensitivity(realised) == pytest.approx(1.0)

    def test_none_shrinks_column_sums(self):
        w = np.full((4, 5), 0.25)
        p = RoundParticipation(
            silo_mask=np.array([True, True, True, False]), renorm="none"
        )
        assert realised_sensitivity(participation_weights(w, p)) == pytest.approx(0.75)

    def test_carryover_gain_raises_sensitivity(self):
        w = np.full((2, 3), 0.5)
        p = RoundParticipation(
            silo_mask=np.array([True, True]),
            silo_gain=np.array([2.0, 1.0]),
            renorm="carryover",
        )
        assert realised_sensitivity(participation_weights(w, p)) == pytest.approx(1.5)

    def test_user_mask_zeroes_departed(self):
        w = np.full((2, 3), 0.5)
        p = RoundParticipation(
            silo_mask=np.ones(2, dtype=bool),
            user_mask=np.array([True, False, True]),
        )
        realised = participation_weights(w, p)
        assert realised[:, 1].sum() == 0.0

    def test_rejects_unknown_renorm(self):
        with pytest.raises(ValueError):
            RoundParticipation(silo_mask=np.ones(2, dtype=bool), renorm="magic")


class TestDropoutPolicies:
    def test_outage_window_excludes_silo(self):
        fed = tiny_fed()
        config = SimConfig(
            rounds=4,
            renorm="survivors",
            dropout=SiloOutageWindows({0: (1, 3)}),
            seed=2,
        )
        sim = FederationSimulator(fed, tiny_method(), config)
        sim.run()
        silos = [p.silos_seen for p in sim.history.participation]
        assert silos == [3, 2, 2, 3]

    def test_all_silos_down_is_a_noop_release(self):
        fed = tiny_fed()
        config = SimConfig(
            rounds=1,
            dropout=SiloOutageWindows({s: (0, 1) for s in range(fed.n_silos)}),
            seed=0,
        )
        sim = FederationSimulator(fed, tiny_method(), config)
        p0 = sim.trainer.params.copy()
        sim.run()
        assert np.array_equal(sim.trainer.params, p0)
        releases = sim.method.accountant.releases
        assert len(releases) == 1 and releases[0].sensitivity == 0.0
        assert sim.history.participation[0].silos_seen == 0

    def test_epsilon_is_zero_until_the_first_real_release(self):
        """All silos down in round 0: nothing was released, so eps == 0.0
        exactly (the unfloored Lemma 2 bound read -9.9986e-06 here)."""
        fed = tiny_fed()
        config = SimConfig(
            rounds=2,
            dropout=SiloOutageWindows({s: (0, 1) for s in range(fed.n_silos)}),
            seed=0,
        )
        sim = FederationSimulator(fed, tiny_method(), config)
        sim.run()
        first, second = (record.epsilon for record in sim.history.records)
        assert first == 0.0
        assert second > 0.0

    def test_dropout_with_renorm_none_reduces_budget_honestly(self):
        # Uniform weights: every user loses exactly 1/3 of their weight
        # when one of three silos is down and nothing renormalises.
        fed = tiny_fed()
        config = SimConfig(
            rounds=3, renorm="none", dropout=SiloOutageWindows({0: (0, 3)}), seed=6
        )
        sim = FederationSimulator(fed, tiny_method(weighting="uniform"), config)
        sim.run()
        ideal = FederationSimulator(
            tiny_fed(), tiny_method(weighting="uniform"), SimConfig(rounds=3, seed=6)
        )
        ideal.run()
        # Missing weight means realised sensitivity < 1 -> smaller epsilon.
        assert sim.history.final.epsilon < ideal.history.final.epsilon
        for release in sim.method.accountant.releases:
            assert release.sensitivity == pytest.approx(2 / 3)

    def test_carryover_charges_higher_epsilon(self):
        fed = tiny_fed()
        dropout = SiloOutageWindows({0: (0, 2)})
        carry = FederationSimulator(
            fed,
            tiny_method(),
            SimConfig(rounds=4, renorm="carryover", dropout=dropout, seed=6),
        )
        carry.run()
        sensitivities = [r.sensitivity for r in carry.method.accountant.releases]
        # The silo returns at round 2 with gain 2: sensitivity above 1.
        assert max(sensitivities) > 1.0
        ideal = FederationSimulator(
            tiny_fed(), tiny_method(), SimConfig(rounds=4, seed=6)
        )
        ideal.run()
        assert carry.history.final.epsilon > ideal.history.final.epsilon

    def test_noise_rescale_off_charges_reduced_noise_scale(self):
        fed = tiny_fed()
        config = SimConfig(
            rounds=1,
            renorm="survivors",
            dropout=SiloOutageWindows({0: (0, 1)}),
            noise_rescale=False,
            seed=3,
        )
        sim = FederationSimulator(fed, tiny_method(), config)
        sim.run()
        (release,) = sim.method.accountant.releases
        assert release.noise_scale == pytest.approx(np.sqrt(2 / 3))
        assert release.effective_noise_multiplier < 1.0


class TestSemiSync:
    def test_slow_silo_misses_deadline(self):
        fed = tiny_fed()
        speed = (1.0, 1.0, 50.0)
        config = SimConfig(
            rounds=3,
            policy=SemiSyncPolicy(deadline=5.0),
            renorm="survivors",
            latency=LogNormalLatency(median=1.0, sigma=0.1, silo_speed=speed),
            seed=0,
        )
        sim = FederationSimulator(fed, tiny_method(), config)
        sim.run()
        assert all(p.silos_seen == 2 for p in sim.history.participation)
        assert sim.clock == pytest.approx(15.0)


class TestChurnScenario:
    def test_departed_users_leave_the_roster(self):
        fed = tiny_fed(n_users=20)
        config = SimConfig(
            rounds=4,
            renorm="survivors",
            churn=ChurnProcess(departure_rate=0.3),
            seed=1,
        )
        sim = FederationSimulator(fed, tiny_method(), config)
        sim.run()
        users = [p.users_seen for p in sim.history.participation]
        assert users[-1] < users[0]
        assert sim.population.total_departures > 0


class TestBufferedAsync:
    def asim(self, rounds=3, seed=0, **policy_kwargs):
        fed = tiny_fed()
        defaults = dict(buffer_size=2, staleness_exponent=0.5)
        defaults.update(policy_kwargs)
        config = SimConfig(
            rounds=rounds,
            policy=BufferedAsyncPolicy(**defaults),
            latency=LogNormalLatency(median=1.0, sigma=0.5),
            seed=seed,
        )
        return FederationSimulator(fed, tiny_method(), config)

    def test_releases_match_round_count(self):
        sim = self.asim(rounds=4)
        sim.run()
        assert len(sim.history.round_seconds) == 4
        assert len(sim.method.accountant.releases) == 4
        assert np.all(np.isfinite(sim.trainer.params))

    def test_staleness_weight_discounts(self):
        assert staleness_weight(0) == 1.0
        assert staleness_weight(3, 0.5) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            staleness_weight(-1)

    def test_sensitivity_bookkeeping_recorded(self):
        sim = self.asim(rounds=5, seed=2)
        sim.run()
        releases = sim.method.accountant.releases
        assert all(r.noise_scale <= 1.0 + 1e-12 for r in releases)
        assert all(r.sensitivity > 0 for r in releases)

    def test_subsampling_rejected(self):
        fed = tiny_fed()
        method = tiny_method(user_sample_rate=0.5)
        with pytest.raises(ValueError):
            FederationSimulator(
                fed, method, SimConfig(rounds=1, policy=BufferedAsyncPolicy())
            )

    def test_methods_without_silo_api_rejected(self):
        from repro.core import Default

        fed = tiny_fed()
        with pytest.raises(TypeError):
            FederationSimulator(
                fed, Default(), SimConfig(rounds=1, policy=BufferedAsyncPolicy())
            )


class TestSecureMethodGuard:
    def test_secure_method_refuses_participation(self):
        from repro.protocol import SecureUldpAvg

        method = SecureUldpAvg.__new__(SecureUldpAvg)
        # The guard is backend-conditional (crypto_backend="masked" accepts
        # dropout); pin a Paillier backend on the bare instance.
        method.crypto_backend = "fast"
        with pytest.raises(NotImplementedError):
            SecureUldpAvg.round(
                method,
                0,
                np.zeros(3),
                RoundParticipation(silo_mask=np.ones(2, dtype=bool)),
            )


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(rounds=0)
        with pytest.raises(ValueError):
            SimConfig(rounds=1, renorm="magic")
        with pytest.raises(ValueError):
            SimConfig(rounds=1, carryover_max_gain=0.5)
        with pytest.raises(ValueError):
            SemiSyncPolicy(deadline=0)
        with pytest.raises(ValueError):
            BufferedAsyncPolicy(buffer_size=0)
        with pytest.raises(ValueError):
            IidSiloDropout(prob=1.0)

"""Behavioural tests for each FL method (Algorithms 1-4 + DEFAULT)."""

import numpy as np
import pytest

from repro.core.methods import (
    Default,
    UldpAvg,
    UldpGroup,
    UldpNaive,
    UldpSgd,
    build_group_flags,
    resolve_group_size,
)
from repro.data import build_creditcard_benchmark
from repro.data.federated import FederatedDataset, SiloData
from repro.nn.model import build_tiny_mlp


@pytest.fixture()
def small_fed():
    return build_creditcard_benchmark(
        n_users=10, n_silos=3, n_records=300, n_test=60, seed=0
    )


def run_method(method, fed, rounds=2, seed=0, model=None):
    rng = np.random.default_rng(seed)
    if model is None:
        model = build_tiny_mlp(fed.test_x.shape[1], 8, 2, np.random.default_rng(1))
    method.prepare(fed, model, rng)
    params = model.get_flat_params()
    for t in range(rounds):
        params = method.round(t, params)
    return params


class TestDefault:
    def test_round_changes_params(self, small_fed):
        method = Default(local_epochs=1)
        before = build_tiny_mlp(30, 8, 2, np.random.default_rng(1)).get_flat_params()
        after = run_method(method, small_fed, rounds=1)
        assert not np.allclose(before, after)

    def test_not_private(self):
        method = Default()
        assert method.is_private is False
        assert method.epsilon(1e-5) is None

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            Default(global_lr=0.0)
        with pytest.raises(ValueError):
            Default(local_epochs=0)

    def test_round_before_prepare_raises(self):
        with pytest.raises(RuntimeError):
            Default().round(0, np.zeros(3))


class TestUldpNaive:
    def test_epsilon_matches_theorem1(self, small_fed):
        from repro.accounting.conversion import rdp_curve_to_dp
        from repro.accounting.rdp import gaussian_rdp_curve

        method = UldpNaive(noise_multiplier=5.0, local_epochs=1)
        run_method(method, small_fed, rounds=3)
        expected, _ = rdp_curve_to_dp(gaussian_rdp_curve(5.0, steps=3), 1e-5)
        assert method.epsilon(1e-5) == pytest.approx(expected)

    def test_zero_noise_deterministic_given_seed(self, small_fed):
        a = run_method(UldpNaive(noise_multiplier=0.0, local_epochs=1), small_fed, seed=5)
        b = run_method(UldpNaive(noise_multiplier=0.0, local_epochs=1), small_fed, seed=5)
        np.testing.assert_allclose(a, b)

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            UldpNaive(clip=0.0)
        with pytest.raises(ValueError):
            UldpNaive(noise_multiplier=-1.0)


class TestUldpGroup:
    def test_group_size_policies(self, small_fed):
        totals = small_fed.user_totals()
        assert resolve_group_size(small_fed, "max") == int(totals.max())
        assert resolve_group_size(small_fed, "median") == int(np.median(totals[totals > 0]))
        assert resolve_group_size(small_fed, 8) == 8
        with pytest.raises(ValueError):
            resolve_group_size(small_fed, "p99")
        with pytest.raises(ValueError):
            resolve_group_size(small_fed, 0)

    def test_flags_bound_user_contribution(self, small_fed):
        k = 4
        flags = build_group_flags(small_fed, k)
        filtered = small_fed.apply_flags(flags)
        assert filtered.user_totals().max() <= k

    def test_flags_max_keeps_everything(self, small_fed):
        k = int(small_fed.user_totals().max())
        flags = build_group_flags(small_fed, k)
        assert small_fed.apply_flags(flags).n_records == small_fed.n_records

    def test_flags_spread_across_silos(self):
        """Round-robin keeps records in multiple silos when possible."""
        silos = [
            SiloData(np.zeros((5, 2)), np.zeros(5), np.zeros(5, dtype=int)),
            SiloData(np.zeros((5, 2)), np.zeros(5), np.zeros(5, dtype=int)),
        ]
        fed = FederatedDataset(
            silos=silos, n_users=1, test_x=np.zeros((1, 2)), test_y=np.zeros(1),
            task="binary", name="t",
        )
        flags = build_group_flags(fed, 4)
        assert flags[0].sum() == 2 and flags[1].sum() == 2

    def test_group_epsilon_exceeds_record_level(self, small_fed):
        method = UldpGroup(
            group_size=4, noise_multiplier=5.0, local_steps=1, expected_batch_size=16
        )
        run_method(method, small_fed, rounds=2)
        assert method.epsilon(1e-5) > method.record_level_epsilon(1e-5)

    def test_display_name_resolves_policy(self, small_fed):
        method = UldpGroup(group_size="max", local_steps=1)
        rng = np.random.default_rng(0)
        model = build_tiny_mlp(30, 8, 2, rng)
        method.prepare(small_fed, model, rng)
        assert method.display_name == f"ULDP-GROUP-{int(small_fed.user_totals().max())}"

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            UldpGroup(clip=-1.0)
        with pytest.raises(ValueError):
            UldpGroup(local_steps=0)
        with pytest.raises(ValueError):
            UldpGroup(expected_batch_size=0)


class TestSiloLevelBaselinesOneRoundBody:
    """DEFAULT / ULDP-NAIVE / ULDP-GROUP: ``participation=None`` is the
    roster with everyone in it, not a second arm of the round."""

    @pytest.mark.parametrize("build", [
        lambda: Default(local_epochs=1),
        lambda: UldpNaive(local_epochs=1),
        lambda: UldpGroup(group_size=2, local_steps=2),
    ], ids=["default", "uldp-naive", "uldp-group"])
    def test_no_roster_is_the_full_roster(self, small_fed, build):
        from repro.core.weighting import RoundParticipation

        plain, rostered = build(), build()
        a = run_method(plain, small_fed, rounds=2)
        rng = np.random.default_rng(0)
        model = build_tiny_mlp(30, 8, 2, np.random.default_rng(1))
        rostered.prepare(small_fed, model, rng)
        b = model.get_flat_params()
        for t in range(2):
            b = rostered.round(t, b, RoundParticipation.full(small_fed.n_silos))
        assert np.array_equal(a, b)
        assert plain.last_participation == rostered.last_participation
        assert plain.last_participation.silos_seen == small_fed.n_silos
        assert plain.epsilon(1e-5) == rostered.epsilon(1e-5)

    def test_plain_naive_run_logs_every_release(self, small_fed):
        # The old None arm called the bare ``accountant.step``: same
        # epsilon (step_release's own contract), but no per-release log.
        from repro.accounting import PrivacyAccountant

        method = UldpNaive(noise_multiplier=5.0, local_epochs=1)
        run_method(method, small_fed, rounds=3)
        assert [(r.sensitivity, r.noise_scale)
                for r in method.accountant.releases] == [(1.0, 1.0)] * 3
        stepped = PrivacyAccountant()
        stepped.step(5.0, steps=3)
        assert method.epsilon(1e-5) == stepped.get_epsilon(1e-5)


class TestUldpAvg:
    def test_epsilon_matches_theorem3(self, small_fed):
        from repro.accounting.conversion import rdp_curve_to_dp
        from repro.accounting.rdp import gaussian_rdp_curve

        method = UldpAvg(noise_multiplier=5.0, local_epochs=1)
        run_method(method, small_fed, rounds=4)
        expected, _ = rdp_curve_to_dp(gaussian_rdp_curve(5.0, steps=4), 1e-5)
        assert method.epsilon(1e-5) == pytest.approx(expected)

    def test_subsampling_reduces_epsilon(self, small_fed):
        full = UldpAvg(noise_multiplier=5.0, local_epochs=1)
        run_method(full, small_fed, rounds=3)
        sub = UldpAvg(noise_multiplier=5.0, local_epochs=1, user_sample_rate=0.3)
        run_method(sub, small_fed, rounds=3)
        assert sub.epsilon(1e-5) < full.epsilon(1e-5)

    @pytest.mark.parametrize("weighting", ["uniform", "proportional"])
    def test_no_roster_is_the_full_roster(self, small_fed, weighting):
        # One round body: participation=None is RoundParticipation.full,
        # so both give the same params and the same per-release log -- and
        # the epsilon the bare ``accountant.step`` of the old None arm gave.
        from repro.accounting import PrivacyAccountant
        from repro.core.weighting import RoundParticipation

        kwargs = dict(weighting=weighting, local_epochs=1, user_sample_rate=0.5)
        plain, rostered = UldpAvg(**kwargs), UldpAvg(**kwargs)
        a = run_method(plain, small_fed, rounds=3)
        rng = np.random.default_rng(0)
        model = build_tiny_mlp(30, 8, 2, np.random.default_rng(1))
        rostered.prepare(small_fed, model, rng)
        b = model.get_flat_params()
        for t in range(3):
            b = rostered.round(t, b, RoundParticipation.full(small_fed.n_silos))
        assert np.array_equal(a, b)
        assert plain.accountant.releases == rostered.accountant.releases
        assert [(r.sensitivity, r.noise_scale)
                for r in plain.accountant.releases] == [(1.0, 1.0)] * 3
        stepped = PrivacyAccountant()
        stepped.step(plain.noise_multiplier, sample_rate=0.5, steps=3)
        assert plain.epsilon(1e-5) == stepped.get_epsilon(1e-5)

    def test_display_names(self):
        assert UldpAvg(weighting="uniform").display_name == "ULDP-AVG"
        assert UldpAvg(weighting="proportional").display_name == "ULDP-AVG-w"

    def test_proportional_weights_used(self, small_fed):
        method = UldpAvg(weighting="proportional", local_epochs=1)
        rng = np.random.default_rng(0)
        model = build_tiny_mlp(30, 8, 2, rng)
        method.prepare(small_fed, model, rng)
        hist = small_fed.histogram().astype(float)
        totals = hist.sum(axis=0)
        expected = np.where(totals > 0, hist / np.where(totals > 0, totals, 1), 0.0)
        np.testing.assert_allclose(method.weights, expected)

    def test_default_global_lr_scales_with_size(self, small_fed):
        # Remark 3: eta_g = |S| * sqrt(|U| * Q).
        method = UldpAvg(local_epochs=4)
        rng = np.random.default_rng(0)
        method.prepare(small_fed, build_tiny_mlp(30, 8, 2, rng), rng)
        expected = small_fed.n_silos * np.sqrt(small_fed.n_users * 4)
        assert method.global_lr == pytest.approx(expected)

    def test_clip_stats_recorded(self, small_fed):
        method = UldpAvg(local_epochs=1, record_clip_stats=True, noise_multiplier=0.0)
        run_method(method, small_fed, rounds=2)
        assert len(method.clip_factor_history) == 2
        factors = method.clip_factor_history[0]
        present = ~np.isnan(factors)
        assert present.any()
        assert np.all(factors[present] <= 1.0 + 1e-12)

    def test_one_payload_every_carrier(
        self, cls=UldpAvg, kwargs=dict(local_epochs=2, batch_size=2)
    ):
        # From one RNG state, silo s's noisy weighted sum (Algorithm 3 line
        # 17) is the same array -- and its user list the same list --
        # whichever carrier forms it: the in-process walk, the shard pool
        # (in process and behind two workers, several shards per silo),
        # ``silo_payload`` silo by silo (what ``repro silo`` ships), and
        # the buffered-async scheduler's call -- for both local kernels.
        # The delta kernel runs minibatches, so its job schedules draw from
        # the RNG ahead of the noise; full-batch gradients draw nothing.
        from repro.core.engine import EngineConfig
        from repro.sim import BufferedAsyncPolicy, SimConfig
        from repro.sim.scheduler import FederationSimulator

        fed = build_creditcard_benchmark(
            n_users=300, n_silos=2, n_records=1500, n_test=60, seed=0,
            distribution="zipf",
        )
        kwargs = dict(weighting="proportional", **kwargs)

        def model():
            return build_tiny_mlp(30, 8, 2, np.random.default_rng(1))

        sim = FederationSimulator(
            fed, cls(**kwargs),
            SimConfig(rounds=1, seed=5,
                      policy=BufferedAsyncPolicy(buffer_size=fed.n_silos)),
            model=model(),
        )
        method, params, rng = sim.method, sim.trainer.params, sim.method.rng
        weights, noise_std = method.weights, method._noise_std()
        active = list(range(fed.n_silos))
        start = rng.bit_generator.state
        _, jobs, _ = method._draw_silo(0, weights[0], noise_std, params.size)
        assert len(jobs) > 128
        assert any(job.schedule for job in jobs) == (cls is UldpAvg)

        rng.bit_generator.state = start
        walk = method._walk_payloads(params, weights, noise_std, active)
        end = rng.bit_generator.state

        def assert_same(payloads):
            assert [(s, users) for s, users, _ in payloads] == [
                (s, users) for s, users, _ in walk]
            for (_, _, got), (_, _, want) in zip(payloads, walk):
                assert np.array_equal(got, want)

        for workers in (0, 2):
            sharded = cls(**kwargs)
            sharded.prepare(fed, model(), rng,
                            engine=EngineConfig(workers=workers, shard_size=128))
            rng.bit_generator.state = start
            try:
                assert_same(
                    sharded._shard_payloads(params, weights, noise_std, active))
            finally:
                sharded.close()
            assert rng.bit_generator.state == end

        rng.bit_generator.state = start
        assert_same([
            (s, *method.silo_payload(s, params, weights[s], noise_std))
            for s in active])
        assert rng.bit_generator.state == end

        rng.bit_generator.state = start
        for s in active:
            sim._start_job(s)
        assert sim._async_noise_std() == noise_std
        assert_same([(u.silo, u.users.tolist(), u.payload) for u in sim._pending])
        for (s, users, _), update in zip(walk, sim._pending):
            assert np.array_equal(update.weights, weights[s, users])

    def test_one_payload_every_carrier_gradient_kernel(self):
        self.test_one_payload_every_carrier(UldpSgd, {})

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            UldpAvg(weighting="learned")
        with pytest.raises(ValueError):
            UldpAvg(user_sample_rate=0.0)
        with pytest.raises(ValueError):
            UldpAvg(user_sample_rate=1.5)
        with pytest.raises(ValueError):
            UldpAvg(local_epochs=0)


class TestUldpSgd:
    def test_round_descends_loss_without_noise(self, small_fed):
        from repro.core.metrics import evaluate_model

        rng = np.random.default_rng(2)
        model = build_tiny_mlp(30, 8, 2, np.random.default_rng(3))
        method = UldpSgd(noise_multiplier=0.0, clip=10.0)
        method.prepare(small_fed, model, rng)
        params = model.get_flat_params()
        model.set_flat_params(params)
        before = evaluate_model(small_fed, model)["loss"]
        for t in range(10):
            params = method.round(t, params)
        model.set_flat_params(params)
        after = evaluate_model(small_fed, model)["loss"]
        assert after < before

    def test_is_algorithm_3_with_one_line_changed(self, small_fed):
        # One round body: the subclass sets the local kernel and its own
        # defaults, and defines no round of its own; the constructor is
        # the one it always had.
        import inspect

        assert issubclass(UldpSgd, UldpAvg)
        assert UldpSgd.local_kernel == "gradient" != UldpAvg.local_kernel
        assert not {"round", "_round_aggregate", "_silo_step"} & set(vars(UldpSgd))
        assert list(inspect.signature(UldpSgd).parameters) == [
            "clip", "noise_multiplier", "global_lr", "weighting",
            "user_sample_rate"]
        method = UldpSgd(weighting="proportional")
        assert method.local_epochs == 1 and method.batch_size is None
        assert method.display_name == "ULDP-SGD-w"
        assert UldpSgd().display_name == "ULDP-SGD"
        rng = np.random.default_rng(0)
        method.prepare(small_fed, build_tiny_mlp(30, 8, 2, rng), rng)
        assert method.global_lr == 0.5 * small_fed.n_silos * np.sqrt(
            small_fed.n_users)

    def test_compressed_uplink_is_the_analytic_payload_size(self, small_fed):
        # Inherited, not re-implemented: top-k + 8-bit on the noisy
        # per-silo payload, the ledger charged what the spec predicts.
        from repro.compress import CompressionSpec
        from repro.core import Trainer

        spec = CompressionSpec(sparsify="topk", fraction=0.1, quantize_bits=8)
        model = build_tiny_mlp(30, 8, 2, np.random.default_rng(3))
        trainer = Trainer(small_fed, UldpSgd(), rounds=2, model=model,
                          compression=spec)
        history = trainer.run()
        expected = spec.payload_bytes(model.num_params) * small_fed.n_silos
        assert expected < model.num_params * 8 * small_fed.n_silos
        assert [c.uplink_bytes for c in history.comm] == [expected] * 2
        assert trainer.method.uplink_payload_bytes() * small_fed.n_silos == expected
        assert len(trainer.method.accountant.releases) == 2

    def test_epsilon_same_formula_as_avg(self, small_fed):
        sgd = UldpSgd(noise_multiplier=5.0)
        avg = UldpAvg(noise_multiplier=5.0, local_epochs=1)
        run_method(sgd, small_fed, rounds=2, seed=1)
        run_method(avg, small_fed, rounds=2, seed=2)
        assert sgd.epsilon(1e-5) == pytest.approx(avg.epsilon(1e-5))

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            UldpSgd(weighting="magic")
        with pytest.raises(ValueError):
            UldpSgd(user_sample_rate=2.0)

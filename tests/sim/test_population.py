"""Tests for user churn over the simulator's per-user activity mask."""

import numpy as np
import pytest

from repro.api.runner import build_simulator
from repro.api.spec import RunSpec
from repro.sim import ChurnProcess


def _one_shard_churn(active, rng, departure_rate, arrival_rate):
    """The one-shard step of the memory-mapped population this mask
    replaced, kept as the reference the mask must match draw for draw."""
    n_active = int(active.sum())
    n_inactive = active.size - n_active
    arrivals = departures = 0
    if departure_rate > 0 and n_active > 0:
        departures = int(rng.binomial(n_active, departure_rate))
        if departures:
            idx = np.flatnonzero(active)
            active[idx[rng.choice(len(idx), size=departures, replace=False)]] = False
    if arrival_rate > 0 and n_inactive > 0:
        arrivals = int(rng.binomial(n_inactive, arrival_rate))
        if arrivals:
            idx = np.flatnonzero(~active)
            active[idx[rng.choice(len(idx), size=arrivals, replace=False)]] = True
    return arrivals, departures


def _start(n_users, start, seed):
    if start == "active":
        return np.ones(n_users, dtype=np.bool_)
    if start == "inactive":
        return np.zeros(n_users, dtype=np.bool_)
    return np.random.default_rng([seed, n_users]).random(n_users) < 0.5


class TestChurnMatchesOneShard:
    @pytest.mark.parametrize("n_users, departure, arrival, start", [
        (1, 0.5, 0.5, "active"),
        (2, 1.0, 1.0, "random"),
        (20, 0.5, 0.5, "active"),
        (97, 0.3, 0.0, "random"),
        (97, 0.0, 0.3, "random"),
        (300, 0.05, 0.2, "inactive"),
        (1_000, 1.0, 0.0, "random"),
        (1_000, 0.0, 1.0, "random"),
        (3_000, 0.1, 0.1, "random"),
        (3_000, 0.9, 0.9, "random"),
    ])
    def test_flags_counts_and_generator_state(self, n_users, departure, arrival,
                                              start):
        churn = ChurnProcess(departure_rate=departure, arrival_rate=arrival)
        mask, reference = _start(n_users, start, 7), _start(n_users, start, 7)
        rng, reference_rng = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(6):
            flips = churn.step(mask, rng)
            assert flips == _one_shard_churn(reference, reference_rng,
                                             departure, arrival)
            assert np.array_equal(mask, reference)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestChurn:
    def test_rates_shift_active_count(self):
        active = np.ones(10_000, dtype=np.bool_)
        arrivals, departures = ChurnProcess(departure_rate=0.2).step(
            active, np.random.default_rng(0))
        assert arrivals == 0 and departures > 0
        assert active.sum() == 10_000 - departures

    def test_arrivals_reactivate(self):
        active = np.ones(5_000, dtype=np.bool_)
        rng = np.random.default_rng(0)
        ChurnProcess(departure_rate=0.5).step(active, rng)
        low = active.sum()
        arrivals, _ = ChurnProcess(arrival_rate=0.5).step(active, rng)
        assert active.sum() == low + arrivals > low

    def test_deterministic_in_rng(self):
        def run():
            active = np.ones(20_000, dtype=np.bool_)
            rng = np.random.default_rng(42)
            churn = ChurnProcess(departure_rate=0.1, arrival_rate=0.05)
            for _ in range(5):
                churn.step(active, rng)
            return active

        assert np.array_equal(run(), run())

    def test_zero_rates_draw_nothing(self):
        active = np.ones(100, dtype=np.bool_)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert ChurnProcess().step(active, rng) == (0, 0)
        assert rng.bit_generator.state == before and active.all()

    @pytest.mark.parametrize("rates", [(1.5, 0.0), (0.0, -0.1)])
    def test_rejects_bad_rates(self, rates):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ChurnProcess(*rates)

    def test_flips_in_place(self):
        active = np.ones(50, dtype=np.bool_)
        ChurnProcess(departure_rate=0.5).step(active, np.random.default_rng(0))
        assert active.dtype == np.bool_ and not active.all()

    def test_full_departure_empties_the_mask(self):
        active = np.ones(64, dtype=np.bool_)
        assert ChurnProcess(departure_rate=1.0).step(
            active, np.random.default_rng(0)) == (0, 64)
        assert not active.any()

    def test_full_arrival_fills_the_mask(self):
        active = np.zeros(64, dtype=np.bool_)
        assert ChurnProcess(arrival_rate=1.0).step(
            active, np.random.default_rng(0)) == (64, 0)
        assert active.all()

    def test_arrivals_are_counted_before_the_departures(self):
        # Every active user departs, and as many users arrive as were
        # inactive *before* the step, chosen among everyone inactive after.
        active = _start(200, "random", 3)
        n_active = int(active.sum())
        arrivals, departures = ChurnProcess(1.0, 1.0).step(
            active, np.random.default_rng(0))
        assert departures == n_active and arrivals == 200 - n_active
        assert active.sum() == 200 - n_active

    def test_a_user_can_depart_and_arrive_in_one_step(self):
        active = np.ones(20, dtype=np.bool_)
        rng = np.random.default_rng(0)
        rejoined = 0
        for _ in range(6):
            before = active.copy()
            arrivals, departures = ChurnProcess(0.5, 0.5).step(active, rng)
            rejoined += arrivals + departures - int((before != active).sum())
        assert rejoined > 0

    @pytest.mark.parametrize("rates, frozen", [((0.4, 0.0), False),
                                               ((0.0, 0.4), True)],
                             ids=["departures-only", "arrivals-only"])
    def test_one_sided_churn_leaves_the_other_side_alone(self, rates, frozen):
        active = _start(500, "random", 5)
        untouched = active == frozen
        ChurnProcess(*rates).step(active, np.random.default_rng(0))
        assert (active[untouched] == frozen).all()

    def test_empty_population_draws_nothing(self):
        active = np.ones(0, dtype=np.bool_)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert ChurnProcess(0.5, 0.5).step(active, rng) == (0, 0)
        assert rng.bit_generator.state == before


class TestStateRoundtrip:
    SPEC = {"name": "churn", "seed": 3, "rounds": 4,
            "sim": {"scenario": "user-churn", "scale": "smoke"}}

    def _sim(self):
        return build_simulator(RunSpec.from_dict(self.SPEC))

    def test_churned_state_restores_exactly(self):
        sim = self._sim()
        sim.run(stop_after=2)
        state = sim.state_dict()
        fresh = self._sim()
        fresh.load_state(state)
        assert fresh.user_active.dtype == np.bool_
        assert np.array_equal(fresh.user_active, sim.user_active)
        assert fresh.user_active is not state["user_active"]

    def test_snapshot_does_not_alias_the_live_mask(self):
        sim = self._sim()
        state = sim.state_dict()
        state["user_active"][:] = False
        assert sim.user_active.all()

    def test_mask_stays_full_without_churn(self):
        spec = dict(self.SPEC, sim={"scenario": "silo-outage", "scale": "smoke"})
        sim = build_simulator(RunSpec.from_dict(spec))
        sim.run(stop_after=2)
        assert sim.user_active.all() and sim._user_mask() is None

    @pytest.mark.parametrize("length, dtype", [(-1, np.bool_), (0, np.int64)],
                             ids=["wrong-length", "wrong-dtype"])
    def test_malformed_mask_rejected(self, length, dtype):
        sim = self._sim()
        mask = np.ones(sim.fed.n_users + length, dtype=dtype)
        state = dict(sim.state_dict(), user_active=mask)
        with pytest.raises(ValueError, match="user_active is .*expected bool"):
            self._sim().load_state(state)

    def test_two_dimensional_mask_rejected(self):
        sim = self._sim()
        mask = np.ones((1, sim.fed.n_users), dtype=np.bool_)
        state = dict(sim.state_dict(), user_active=mask)
        with pytest.raises(ValueError, match=r"user_active is bool\[1, "):
            self._sim().load_state(state)

    @pytest.mark.parametrize("schema", ["uldp-fl-sim/v9", None],
                             ids=["unknown", "missing"])
    def test_unknown_schema_rejected(self, schema):
        state = dict(self._sim().state_dict(), schema=schema)
        with pytest.raises(ValueError, match="unknown layout"):
            self._sim().load_state(state)

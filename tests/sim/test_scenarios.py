"""Tests for the scenario registry and its experiment-registry wiring."""

import pytest

from repro.api import RunSpec, run
from repro.api.runner import build_simulator
from repro.experiments import available_experiments, run_experiment
from repro.sim import available_scenarios, describe_scenario


def sim_spec(scenario, scale="smoke", **tree):
    return RunSpec.from_dict(
        {"seed": 0, "sim": {"scenario": scenario, "scale": scale}, **tree})


class TestRegistry:
    def test_expected_scenarios_present(self):
        names = available_scenarios()
        for expected in (
            "ideal-sync",
            "silo-outage",
            "flaky-silos",
            "carryover-makeup",
            "stragglers-deadline",
            "async-fedbuff",
            "user-churn",
        ):
            assert expected in names

    def test_descriptions_nonempty(self):
        for name in available_scenarios():
            assert len(describe_scenario(name)) > 10

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            build_simulator(sim_spec("no-such-scenario"))
        with pytest.raises(KeyError):
            describe_scenario("no-such-scenario")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            build_simulator(sim_spec("ideal-sync", scale="huge"))

    def test_rounds_override(self):
        sim = run(sim_spec("ideal-sync", rounds=2)).simulator
        assert len(sim.history.round_seconds) == 2


class TestExperimentWiring:
    def test_sim01_registered(self):
        assert "sim01" in available_experiments()

    def test_sim01_rows_cover_all_scenarios(self):
        result = run_experiment("sim01", scale="smoke")
        scenarios = {row["scenario"] for row in result.rows}
        assert scenarios == set(available_scenarios())
        ideal = next(r for r in result.rows if r["scenario"] == "ideal-sync")
        carry = next(r for r in result.rows if r["scenario"] == "carryover-makeup")
        # The honest accounting charges carryover make-up rounds extra.
        assert carry["max_sensitivity"] > 1.0
        assert carry["epsilon"] > ideal["epsilon"]
        assert ideal["max_sensitivity"] == pytest.approx(1.0)
        assert "scenario" in result.table()

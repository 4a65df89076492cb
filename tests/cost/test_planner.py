"""The numeric planner: predictions, rendering, capacity inversion."""

import pytest

from repro.api.spec import RunSpec
from repro.cost.planner import CostError, predict, solve_max_users
from repro.cost.workload import resolve_dim

TRAIN_TREE = {
    "name": "planner-train",
    "rounds": 3,
    "dataset": {"users": 100, "silos": 5, "records": 4000},
    "method": {"name": "uldp-avg-w", "local_epochs": 2},
}


def _spec(**extra) -> RunSpec:
    return RunSpec.from_dict({**TRAIN_TREE, **extra})


class TestPredict:
    def test_train_report_totals(self):
        report = predict(_spec())
        assert report.family == "dense"
        assert report.rounds == 3
        assert report.round_totals["seconds"] > 0
        dim = resolve_dim(_spec())
        # Dense uncompressed wire: the 4-byte/param float32 release from
        # every silo, the 4-byte/param float32 broadcast to every silo.
        assert report.round_totals["uplink_bytes"] == 5 * 4 * dim
        assert report.round_totals["downlink_bytes"] == 5 * 4 * dim
        assert report.run_totals["uplink_bytes"] == 3 * 5 * 4 * dim
        # Memory is resident, not cumulative: run total == round total.
        assert report.run_totals["memory_bytes"] == report.round_totals[
            "memory_bytes"
        ]

    def test_secure_fast_report_has_crypto_phases(self):
        report = predict(
            _spec(
                method={"name": "secure-uldp-avg"},
                crypto={"backend": "fast", "paillier_bits": 512},
            )
        )
        names = [ph.name for ph in report.phases]
        assert "keygen" in names and "silo_weighted_encryption" in names
        assert report.setup_totals["seconds"] > 0
        dim = resolve_dim(_spec())
        assert report.round_totals["cipher_elements"] == 5 * dim
        assert report.round_totals["uplink_bytes"] == 5 * dim * 128

    def test_simulation_spec_priced(self):
        report = predict(
            RunSpec.from_dict(
                {
                    "name": "sim",
                    "sim": {"scenario": "ideal-sync", "scale": "smoke"},
                }
            )
        )
        assert report.family == "sim"
        assert report.round_totals["seconds"] > 0

    def test_render_mentions_each_phase(self):
        report = predict(_spec())
        text = report.render()
        for ph in report.phases:
            assert ph.name in text
        assert "total (run, T=3)" in text

    def test_unknown_dataset_raises_cost_error(self):
        spec = _spec(dataset={"name": "synthetic", "users": 8, "silos": 2})
        with pytest.raises(CostError, match="synthetic"):
            predict(spec)


class TestSolveMaxUsers:
    def test_budget_is_respected_and_tight(self):
        """max_users is the largest count within budget, holding
        records-per-user (here 4000/100 = 40) fixed as users scale."""
        budget = 5.0
        answer = solve_max_users(_spec(), budget_seconds=budget)
        u = answer.max_users
        assert u >= 1

        def round_seconds(users: int) -> float:
            spec = _spec(
                dataset={**TRAIN_TREE["dataset"], "users": users,
                         "records": 40 * users}
            )
            return predict(spec).round_totals["seconds"]

        assert round_seconds(u) <= budget
        assert round_seconds(u + 1) > budget

    def test_monotone_in_budget(self):
        small = solve_max_users(_spec(), budget_seconds=1.0).max_users
        large = solve_max_users(_spec(), budget_seconds=10.0).max_users
        assert small < large

    def test_binding_budget_is_the_minimum(self):
        answer = solve_max_users(
            _spec(), budget_seconds=10.0, budget_memory_bytes=1e6
        )
        assert answer.max_users == min(answer.per_budget.values())
        assert set(answer.per_budget) == {"round_seconds", "memory_bytes"}

    def test_budgets_fall_back_to_cost_section(self):
        spec = _spec(cost={"budget_seconds": 5.0})
        explicit = solve_max_users(_spec(), budget_seconds=5.0)
        from_spec = solve_max_users(spec)
        assert from_spec.max_users == explicit.max_users

    def test_no_budget_raises(self):
        with pytest.raises(CostError, match="no budget"):
            solve_max_users(_spec())

    def test_render_marks_binding_budget(self):
        answer = solve_max_users(
            _spec(), budget_seconds=10.0, budget_memory_bytes=1e6
        )
        assert "<- binding" in answer.render()

"""CLI surface of the cost model: `repro cost` and sweep cost pruning."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api.spec import RunSpec, SpecError
from repro.api.sweep import run_sweep
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
FIG05 = str(REPO_ROOT / "examples" / "specs" / "fig05.toml")
SRC = str(Path(repro.__file__).resolve().parents[1])

SMALL = """
name = "cost-cli"
rounds = 2

[dataset]
users = 8
silos = 2
records = 120

[method]
name = "uldp-avg-w"
local_epochs = 1
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "run.toml"
    path.write_text(SMALL)
    return str(path)


class TestCostCommand:
    def test_fig05_prediction(self, capsys):
        """The acceptance-criteria invocation prints the per-phase table."""
        assert main(["cost", "--config", FIG05]) == 0
        out = capsys.readouterr().out
        assert "family=cnn" in out
        assert "local_train" in out
        assert "total (run, T=3)" in out
        for column in ("seconds", "uplink", "downlink", "ciphertexts", "memory"):
            assert column in out

    def test_set_overrides_reach_the_model(self, config, capsys):
        assert main(["cost", "--config", config]) == 0
        base = capsys.readouterr().out
        assert main([
            "cost", "--config", config, "--set", "dataset.records=240",
        ]) == 0
        doubled = capsys.readouterr().out
        assert base != doubled

    def test_solve_for_users(self, config, capsys):
        assert main([
            "cost", "--config", config,
            "--solve-for", "users", "--budget-seconds", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "max users per round within budget" in out
        assert "round_seconds" in out

    def test_solve_without_budget_fails_cleanly(self, config, capsys):
        assert main(["cost", "--config", config, "--solve-for", "users"]) == 2
        assert "no budget" in capsys.readouterr().err

    def test_unknown_set_path_suggests(self, config, capsys):
        assert main([
            "cost", "--config", config, "--set", "dataset.user=9",
        ]) == 2
        assert "dataset.users" in capsys.readouterr().err

    def test_unpriceable_dataset_fails_cleanly(self, config, capsys):
        assert main([
            "cost", "--config", config, "--set", "dataset.name=synthetic",
        ]) == 2
        assert "synthetic" in capsys.readouterr().err

    @pytest.mark.parametrize("stem", ["sim01", "net_sim", "bandwidth_sim"])
    def test_simulation_specs_price_in_a_fresh_process(self, stem):
        """Nothing else has imported repro.sim.scenarios in a fresh
        interpreter, so the scenario lookup must register the builtins."""
        spec = REPO_ROOT / "examples" / "specs" / f"{stem}.toml"
        out = subprocess.run(
            [sys.executable, "-m", "repro", "cost", "--config", str(spec)],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert "family=sim" in out.stdout

    def test_unknown_scenario_is_a_cost_error(self):
        from repro.cost.planner import CostError, predict

        spec = RunSpec.from_dict({"sim": {"scenario": "no-such-scenario"}})
        with pytest.raises(CostError, match="no-such-scenario"):
            predict(spec)


SWEEP_TREE = {
    "name": "prune-sweep",
    "rounds": 1,
    "eval_every": 1,
    "dataset": {"users": 8, "silos": 2, "records": 120},
    "method": {"name": "uldp-avg-w", "local_epochs": 1},
    "sweep": {"dataset.records": [60, 120, 2400]},
}


class TestSweepPruning:
    def test_over_budget_points_skipped(self):
        sweep = run_sweep(
            RunSpec.from_dict(SWEEP_TREE), prune_cost_seconds=0.5
        )
        assert [p.point.spec.dataset.records for p in sweep.pruned] == [2400]
        assert [p.spec.dataset.records for p in sweep.points] == [60, 120]
        assert sweep.pruned[0].metric == "run_seconds"
        assert sweep.pruned[0].predicted > 0.5

    def test_surviving_points_identical_to_unpruned(self):
        """Pruning only removes points; survivors are bit-identical."""
        pruned = run_sweep(
            RunSpec.from_dict(SWEEP_TREE), prune_cost_seconds=0.5
        )
        unpruned = run_sweep(
            RunSpec.from_dict(
                {**SWEEP_TREE, "sweep": {"dataset.records": [60, 120]}}
            )
        )
        assert [r.spec_hash for r in pruned.results] == [
            r.spec_hash for r in unpruned.results
        ]
        for a, b in zip(pruned.results, unpruned.results):
            assert a.history.final.metric == b.history.final.metric
            assert a.history.final.loss == b.history.final.loss

    def test_all_points_pruned_is_an_error(self):
        with pytest.raises(SpecError, match="removed all"):
            run_sweep(RunSpec.from_dict(SWEEP_TREE), prune_cost_bytes=1.0)

    def test_cli_logs_pruned_points(self, tmp_path, capsys):
        path = tmp_path / "sweep.toml"
        path.write_text(
            SMALL
            + '\n[sweep]\n"dataset.records" = [60, 120, 2400]\n'
        )
        assert main([
            "sweep", "--config", str(path),
            "--set", "rounds=1",
            "--prune-cost-seconds", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "cost pruning skipped 1 grid point(s)" in out
        assert "dataset.records=2400" in out
        assert "run_seconds" in out

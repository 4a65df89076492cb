"""Tests for grid sweeps: expansion, aggregation, parallel execution."""

import pytest

from repro.api.spec import RunSpec
from repro.api.sweep import run_sweep
from repro.report import history_to_dict

#: A small 3-point sigma grid (the acceptance-criteria case).
SIGMA_SWEEP = {
    "name": "sigma-sweep",
    "rounds": 2,
    "dataset": {"users": 8, "silos": 2, "records": 120},
    "method": {"name": "uldp-avg-w", "local_epochs": 1},
    "sweep": {"method.sigma": [0.5, 1.0, 2.0]},
}


class TestSweepExecution:
    def test_three_point_sigma_grid(self):
        sweep = run_sweep(RunSpec.from_dict(SIGMA_SWEEP))
        assert len(sweep.results) == 3
        # Larger sigma => smaller epsilon, monotone across the grid.
        eps = [r.history.final.epsilon for r in sweep.results]
        assert eps[0] > eps[1] > eps[2]

    def test_one_aggregated_table(self):
        sweep = run_sweep(RunSpec.from_dict(SIGMA_SWEEP))
        table = sweep.table()
        for sigma in ("0.5", "1.0", "2.0"):
            assert f"method.sigma={sigma}" in table
        # One header plus one row per grid point.
        assert len(table.splitlines()) == 4

    def test_per_run_spec_hashed_histories(self):
        sweep = run_sweep(RunSpec.from_dict(SIGMA_SWEEP))
        hashes = {r.spec_hash for r in sweep.results}
        assert len(hashes) == 3
        for point, result in zip(sweep.points, sweep.results):
            assert result.history.spec_hash == point.spec.hash()
            assert result.history.spec == point.spec.to_dict()

    def test_identical_training_noise_across_grid(self):
        """Sweep children share the trainer seed: same data, same draws."""
        sweep = run_sweep(RunSpec.from_dict(SIGMA_SWEEP))
        datasets = {r.history.dataset for r in sweep.results}
        assert len(datasets) == 1

    def test_sequential_grid_builds_each_dataset_once(self):
        """Grid points with one dataset section share the built federation."""
        sweep = run_sweep(RunSpec.from_dict(SIGMA_SWEEP))
        assert len({id(r.dataset) for r in sweep.results}) == 1

    def test_dataset_axis_gets_distinct_federations(self):
        tree = dict(SIGMA_SWEEP, sweep={"dataset.users": [8, 12]})
        sweep = run_sweep(RunSpec.from_dict(tree))
        assert len({id(r.dataset) for r in sweep.results}) == 2
        assert [r.dataset.n_users for r in sweep.results] == [8, 12]

    def test_bad_axis_name_fails_before_any_run(self):
        from repro.api.registries import UnknownNameError

        tree = dict(SIGMA_SWEEP, sweep={"method.name": ["uldp-avg-w", "nope"]})
        with pytest.raises(UnknownNameError, match="unknown method"):
            run_sweep(RunSpec.from_dict(tree))

    def test_sweep_without_axes_is_single_run(self):
        tree = dict(SIGMA_SWEEP)
        tree.pop("sweep")
        sweep = run_sweep(RunSpec.from_dict(tree))
        assert len(sweep.results) == 1
        assert sweep.points[0].label == ""

    def test_bad_workers_rejected(self):
        from repro.api.spec import SpecError

        with pytest.raises(SpecError, match="workers"):
            run_sweep(RunSpec.from_dict(SIGMA_SWEEP), workers=0)


class TestParallelSweep:
    def test_parallel_matches_sequential(self):
        spec = RunSpec.from_dict(SIGMA_SWEEP)
        sequential = run_sweep(spec)
        parallel = run_sweep(spec, workers=2)
        assert len(parallel.results) == 3
        for seq, par in zip(sequential.results, parallel.results):
            assert par.spec_hash == seq.spec_hash
            seq_hist = history_to_dict(seq.history)
            par_hist = history_to_dict(par.history)
            assert par_hist == seq_hist


class TestSimulationSweep:
    def test_scenario_axis_keeps_simulators(self):
        spec = RunSpec.from_dict({
            "name": "scenario-grid",
            "sim": {"scenario": "ideal-sync", "scale": "smoke"},
            "sweep": {"sim.scenario": ["ideal-sync", "flaky-silos"]},
        })
        sweep = run_sweep(spec)
        assert len(sweep.results) == 2
        for result in sweep.results:
            assert result.simulator is not None
            assert result.simulator.done

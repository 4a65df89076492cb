"""Tests for the experiments (spec files + row shapers + analytic tables)
and the CLI figure subcommand."""

import pytest

from repro.cli import main
from repro.experiments import (
    available_experiments,
    describe_experiment,
    run_experiment,
)


class TestRegistry:
    def test_lists_figures(self):
        names = available_experiments()
        assert "fig02" in names and "fig04" in names and "fig09" in names

    def test_descriptions(self):
        for name in available_experiments():
            assert len(describe_experiment(name)) > 10

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")
        with pytest.raises(KeyError):
            describe_experiment("fig99")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("fig04", scale="huge")

    def test_missing_spec_dir_is_named_not_an_unknown_experiment(
        self, monkeypatch, tmp_path
    ):
        # A non-editable install has no examples/specs/: a spec-file
        # experiment must say so, not "unknown experiment 'fig04'" -- and
        # a row shaper (registered, but needing its file) must not be
        # called analytic.  The analytic experiments still run.
        from repro.experiments import registry, spec_for_experiment

        monkeypatch.setattr(registry, "SPEC_DIR", tmp_path / "absent")
        for name in ("fig04", "fig09", "fig10"):
            with pytest.raises(FileNotFoundError, match="examples/specs"):
                run_experiment(name, scale="smoke")
            with pytest.raises(FileNotFoundError, match="examples/specs"):
                spec_for_experiment(name, scale="smoke")
        assert available_experiments() == [
            "fig02", "fig09", "fig10", "fig11", "fig12", "sim01",
        ]
        assert run_experiment("fig02", scale="smoke").rows
        assert main(["figure", "fig04", "--scale", "smoke"]) == 2


class TestSmokeScaleRuns:
    def test_fig02(self):
        result = run_experiment("fig02", scale="smoke")
        ks = [r["k"] for r in result.rows]
        assert ks == [1, 2, 4, 8, 16, 32, 64]
        eps = [r["eps_rdp_route"] for r in result.rows]
        assert all(b > a for a, b in zip(eps, eps[1:]))
        assert "k" in result.table()

    def test_fig04(self):
        result = run_experiment("fig04", scale="smoke")
        methods = [h.method for h in result.histories]
        assert "DEFAULT" in methods and "ULDP-AVG-w" in methods
        assert "DEFAULT" in result.table()

    def test_fig06(self):
        result = run_experiment("fig06", scale="smoke")
        assert len(result.histories) == 5

    def test_fig08(self):
        result = run_experiment("fig08", scale="smoke")
        assert [h.method for h in result.histories] == ["ULDP-AVG", "ULDP-AVG-w"]

    def test_fig09(self):
        result = run_experiment("fig09", scale="smoke")
        eps = [r["epsilon"] for r in result.rows]
        assert all(b > a for a, b in zip(eps, eps[1:]))

    def test_fig12(self):
        result = run_experiment("fig12", scale="smoke")
        by_dist = {r["distribution"]: r for r in result.rows}
        assert by_dist["zipf"]["top_silo_fraction"] > by_dist["uniform"]["top_silo_fraction"]


class TestFigureCli:
    def test_list(self, capsys):
        assert main(["figure", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig02" in out

    def test_run_fig02(self, capsys):
        assert main(["figure", "fig02", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "group-privacy" in out

    def test_missing_name_errors(self, capsys):
        assert main(["figure"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--list" in err

    def test_output_file(self, capsys, tmp_path):
        out_file = tmp_path / "fig08.json"
        assert main([
            "figure", "fig08", "--scale", "smoke", "--output", str(out_file)
        ]) == 0
        assert out_file.exists()

    def test_row_experiment_saves_its_histories(self, capsys, tmp_path):
        """fig09 prints rows, but its sweep trained five models: --output
        used to exit 0 having written nothing."""
        from repro.report import load_histories

        out_file = tmp_path / "fig09.json"
        assert main([
            "figure", "fig09", "--scale", "smoke", "--output", str(out_file)
        ]) == 0
        out = capsys.readouterr().out
        assert "epsilon" in out.splitlines()[2]  # the row table is printed
        assert "5 histories saved" in out
        histories = load_histories(out_file)
        assert len(histories) == 5
        assert len({h.spec_hash for h in histories}) == 5

    def test_output_on_analytic_experiment_refused(self, capsys, tmp_path):
        out_file = tmp_path / "fig02.json"
        assert main([
            "figure", "fig02", "--scale", "smoke", "--output", str(out_file)
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "analytic" in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out_file.exists()

"""Tests for the declarative CLI surface: run / sweep / validate-config,
the clean unknown-name errors, and the one error boundary in ``main``."""

import json

import pytest

from repro.cli import main

SMALL_RUN = """
name = "cli-test"
seed = 0
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
    path.write_text(SMALL_RUN)
    return str(path)


class TestRunCommand:
    def test_config_file(self, config, capsys):
        assert main(["run", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "cli-test (spec " in out
        assert "ULDP-AVG-w" in out
        assert "wire traffic" in out

    def test_set_overrides(self, config, capsys):
        assert main([
            "run", "--config", config,
            "--set", "method.name=uldp-avg", "--set", "method.sigma=1.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "ULDP-AVG " in out or "ULDP-AVG\n" in out.replace("  ", " ")

    def test_defaults_without_config(self, capsys):
        assert main([
            "run", "--set", "rounds=1", "--set", "dataset.users=6",
            "--set", "dataset.silos=2", "--set", "dataset.records=80",
            "--set", "method.local_epochs=1",
        ]) == 0
        assert "ULDP-AVG-w" in capsys.readouterr().out

    def test_output_contains_spec_stamp(self, config, capsys, tmp_path):
        out_file = tmp_path / "history.json"
        assert main(["run", "--config", config, "--output", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())[0]
        assert payload["spec"]["name"] == "cli-test"
        assert len(payload["spec_hash"]) == 16

    def test_unknown_override_path(self, config, capsys):
        assert main(["run", "--config", config, "--set", "method.sigm=1"]) == 2
        err = capsys.readouterr().err
        assert "unknown config path" in err and "did you mean" in err

    def test_unknown_method_name(self, config, capsys):
        assert main([
            "run", "--config", config, "--set", "method.name=uldp-avgw",
        ]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'uldp-avg-w'" in err

    def test_unknown_scenario_name(self, capsys):
        assert main(["run", "--set", "sim.scenario=flaky-silo"]) == 2
        assert "did you mean 'flaky-silos'" in capsys.readouterr().err

    def test_sweep_spec_redirected(self, config, capsys):
        code = main([
            "run", "--config", config, "--set", "sweep.method.sigma=[1.0,2.0]",
        ])
        assert code == 2
        assert "sweep" in capsys.readouterr().err

    def test_sim_spec_runs(self, capsys):
        assert main([
            "run", "--set", "sim.scenario=ideal-sync", "--set", "sim.scale=smoke",
        ]) == 0
        out = capsys.readouterr().out
        assert "ULDP-AVG-w" in out


class TestSweepCommand:
    def test_three_sigma_grid_aggregates_one_table(self, config, capsys, tmp_path):
        out_file = tmp_path / "sweep.json"
        assert main([
            "sweep", "--config", config,
            "--set", "sweep.method.sigma=[0.5,1.0,2.0]",
            "--output", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "3 runs" in out
        for sigma in ("0.5", "1.0", "2.0"):
            assert f"method.sigma={sigma}" in out
        payload = json.loads(out_file.read_text())
        assert len(payload) == 3
        hashes = {h["spec_hash"] for h in payload}
        assert len(hashes) == 3  # per-run spec-hashed histories

    def test_spec_without_axes_rejected(self, config, capsys):
        assert main(["sweep", "--config", config]) == 2
        assert "no [sweep] axes" in capsys.readouterr().err


class TestValidateConfigCommand:
    def test_valid_files_ok(self, config, capsys):
        assert main(["validate-config", config]) == 0
        assert "OK (train" in capsys.readouterr().out

    def test_all_committed_examples_validate(self, capsys):
        import glob

        files = sorted(glob.glob("examples/specs/*.toml"))
        assert files, "committed example specs missing"
        assert main(["validate-config", *files]) == 0
        out = capsys.readouterr().out
        assert out.count(": OK") == len(files)

    def test_secure_spec_prints_its_security_line(self, config, tmp_path, capsys):
        secure = tmp_path / "secure.toml"
        secure.write_text('[method]\nname = "secure-uldp-avg"\n')
        assert main(["validate-config", str(secure), config]) == 0
        lines = capsys.readouterr().out.splitlines()
        # After the spec hash, and only for the secure spec.
        assert "OK (train" in lines[0] and lines[0].startswith(str(secure))
        assert lines[1].startswith(f"{secure}: security: dh=rfc3526-2048")
        assert "paillier_bits=512" in lines[1] and "seeded" in lines[1]
        assert [line for line in lines if "security:" in line] == [lines[1]]

    def test_invalid_value_fails_with_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text('[method]\nsigma = -1.0\n')
        assert main(["validate-config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "FAIL" in err and "sigma" in err

    @pytest.mark.parametrize("backend", ["torch", "cupy"])
    def test_non_numpy_engine_backend_fails(self, tmp_path, capsys, backend):
        bad = tmp_path / "bad.toml"
        bad.write_text(f'[engine]\nbackend = "{backend}"\n')
        assert main(["validate-config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "FAIL" in err and "backend" in err and "numpy" in err

    def test_unknown_name_fails_with_suggestion(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text('[dataset]\nname = "creditcrd"\n')
        assert main(["validate-config", str(bad)]) == 1
        assert "did you mean 'creditcard'" in capsys.readouterr().err

    def test_paillier_under_sim_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text(
            '[sim]\nscenario = "ideal-sync"\nscale = "smoke"\n'
            '[method]\nname = "secure-uldp-avg"\n'
        )
        assert main(["validate-config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "FAIL" in err and "crypto.backend" in err and "masked" in err

    def test_sweep_children_validated(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text('[sweep]\n"method.name" = ["uldp-avg", "nope"]\n')
        assert main(["validate-config", str(bad)]) == 1
        assert "unknown method" in capsys.readouterr().err

    def test_mixed_files_reports_each(self, config, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("[methodd]\n")
        assert main(["validate-config", config, str(bad)]) == 1
        captured = capsys.readouterr()
        assert "OK" in captured.out and "FAIL" in captured.err


class TestListingCommands:
    def test_methods_command_lists_registry(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "uldp-avg-w" in out and "secure-uldp-avg" in out


BAD_SPEC_FILES = {
    "missing file": ("gone.toml", None),
    "malformed TOML": ("bad.toml", "x = [1, 2"),
    "malformed JSON": ("bad.json", '{"rounds": '),
}


class TestErrorBoundary:
    """Every typed failure: exit 2, one ``error:`` line, no traceback."""

    @pytest.mark.parametrize("case", BAD_SPEC_FILES)
    @pytest.mark.parametrize("command", [
        ["run"], ["sweep"], ["serve"], ["silo", "--silo-id", "0"], ["cost"],
    ], ids=lambda argv: argv[0])
    def test_unusable_spec_file_names_the_file(
        self, command, case, tmp_path, capsys
    ):
        name, text = BAD_SPEC_FILES[case]
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        assert main([*command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_analytic_commands_fail_cleanly(self, capsys):
        assert main(["calibrate", "--target-epsilon", "-1", "--steps", "10"]) == 2
        assert "target epsilon" in capsys.readouterr().err
        assert main([
            "epsilon", "--sigma", "5", "--steps", "10", "--sample-rate", "2",
        ]) == 2
        assert "sampling rate" in capsys.readouterr().err

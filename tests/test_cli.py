"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestEpsilonCommand:
    def test_basic_query(self, capsys):
        assert main(["epsilon", "--sigma", "5.0", "--steps", "10"]) == 0
        out = capsys.readouterr().out
        assert "eps=" in out and "alpha=" in out

    def test_group_conversion_reported(self, capsys):
        main([
            "epsilon", "--sigma", "5.0", "--steps", "1000",
            "--sample-rate", "0.01", "--group-size", "8",
        ])
        out = capsys.readouterr().out
        assert "group-privacy conversion (k=8" in out

    def test_matches_accountant(self, capsys):
        from repro.accounting import PrivacyAccountant

        main(["epsilon", "--sigma", "5.0", "--steps", "100"])
        out = capsys.readouterr().out
        acct = PrivacyAccountant()
        acct.step(5.0, steps=100)
        expected = acct.get_epsilon(1e-5)
        reported = float(out.split("=> eps=")[1].split()[0])
        assert reported == pytest.approx(expected, abs=1e-3)


class TestCalibrateCommand:
    def test_solve_sigma(self, capsys):
        assert main(["calibrate", "--target-epsilon", "2.0", "--steps", "100"]) == 0
        out = capsys.readouterr().out
        assert "sigma=" in out

    def test_solve_q(self, capsys):
        main([
            "calibrate", "--target-epsilon", "0.5", "--steps", "100",
            "--solve-for", "q", "--sigma", "5.0",
        ])
        out = capsys.readouterr().out
        assert "q=" in out


class TestDatasetsCommand:
    def test_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("creditcard", "mnist", "heartdisease", "tcgabrca"):
            assert name in out


def _tiny(*sets: str, users: int = 8, records: int = 120) -> list[str]:
    """``repro run`` on a seconds-sized federation plus ``--set`` extras."""
    base = [
        "rounds=2", f"dataset.users={users}", "dataset.silos=2",
        f"dataset.records={records}", "method.local_epochs=1",
    ]
    argv = ["run"]
    for item in (*base, *sets):
        argv += ["--set", item]
    return argv


class TestTrainCommand:
    """Train-mode runs (no ``[sim]`` table) launched by ``repro run --set``."""

    def test_small_run_with_output(self, capsys, tmp_path):
        out_file = tmp_path / "history.json"
        code = main([*_tiny("method.name=uldp-avg"), "--output", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ULDP-AVG" in out
        payload = json.loads(out_file.read_text())
        assert payload[0]["schema"] == "uldp-fl-history/v1"
        assert len(payload[0]["records"]) == 2

    def test_output_parent_directories_created(self, capsys, tmp_path):
        """A finished run must not lose its history to a missing directory."""
        out_file = tmp_path / "missing_dir" / "nested" / "h.json"
        assert main([*_tiny(), "--output", str(out_file)]) == 0
        assert len(json.loads(out_file.read_text())[0]["records"]) == 2

    def test_default_method(self, capsys):
        assert main(_tiny("method.name=default", "rounds=1")) == 0
        assert "(none)" in capsys.readouterr().out

    def test_compressed_run_reports_wire_traffic(self, capsys):
        code = main(_tiny(
            "compression.sparsify=topk", "compression.fraction=0.05",
            "compression.quantize_bits=8", "compression.error_feedback=true",
        ))
        assert code == 0
        out = capsys.readouterr().out
        assert "wire traffic" in out

    def test_modifier_flags_without_lossy_pipeline_rejected(self, capsys):
        assert main(_tiny("compression.error_feedback=true")) == 2
        assert "add a sparsifier" in capsys.readouterr().err

    def test_lossy_compression_on_unsupported_method_rejected(self, capsys):
        code = main(_tiny("method.name=default", "compression.sparsify=topk"))
        assert code == 2
        assert "compression" in capsys.readouterr().err

    def test_heartdisease_run(self, capsys):
        code = main([
            "run", "--set", "dataset.name=heartdisease",
            "--set", "method.name=uldp-naive", "--set", "rounds=1",
            "--set", "dataset.users=10", "--set", "method.local_epochs=1",
        ])
        assert code == 0
        assert "heartdisease" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])

    @pytest.mark.parametrize("gone", ["train", "simulate"])
    def test_flag_surfaces_are_gone(self, gone, capsys):
        with pytest.raises(SystemExit) as exc:
            main([gone])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def _comparable(path) -> str:
    """A history file's bytes minus the wall-clock column."""
    payload = json.loads(path.read_text())
    for history in payload:
        history.pop("round_seconds", None)
    return json.dumps(payload, indent=2)


class TestSimulateCommand:
    """Simulate-mode runs: ``repro scenarios`` and ``repro run --resume``."""

    SETS = ["--set", "sim.scenario=silo-outage", "--set", "sim.scale=smoke",
            "--set", "sim.checkpoint_every=1"]

    def test_list_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "ideal-sync" in out and "async-fedbuff" in out

    def test_run_checkpoint_and_resume(self, capsys, tmp_path):
        """Stopped half-way and resumed == never stopped, byte for byte."""
        from repro.api.runner import build_simulator, checkpoint_extra
        from repro.api.spec import RunSpec
        from repro.sim import save_checkpoint

        full_out = tmp_path / "full.json"
        full_dir = ["--set", f"sim.checkpoint_dir={tmp_path / 'full'}"]
        assert main(["run", *self.SETS, *full_dir, "--output", str(full_out)]) == 0
        out = capsys.readouterr().out
        assert "ULDP-AVG-w" in out and "releases" in out
        payload = json.loads(full_out.read_text())
        assert payload[0]["participation"]

        # The same spec, killed after round 1 of 3 (what a crash leaves).
        spec = RunSpec.from_dict(payload[0]["spec"])
        sim = build_simulator(spec)
        sim.run(stop_after=1)
        ckpt = tmp_path / "half"
        save_checkpoint(ckpt, sim, extra=checkpoint_extra(spec))

        resumed_out = tmp_path / "resumed.json"
        code = main(["run", "--resume", str(ckpt), "--output", str(resumed_out)])
        assert code == 0
        assert f"resumed from {ckpt} at round 1" in capsys.readouterr().out
        assert _comparable(resumed_out) == _comparable(full_out)
        # The resumed run kept snapshotting into the directory it came from.
        assert json.loads((ckpt / "state.json").read_text())["state"]["round"] == 3

    @pytest.mark.parametrize("extra", [
        ["--config", "examples/specs/quickstart.toml"],
        ["--set", "method.sigma=1.0"],
    ])
    def test_resume_refuses_config_and_set(self, extra, capsys, tmp_path):
        ckpt = ["--set", f"sim.checkpoint_dir={tmp_path}"]
        assert main(["run", *self.SETS, *ckpt]) == 0
        capsys.readouterr()
        assert main(["run", "--resume", str(tmp_path), *extra]) == 2
        assert "drop --config/--set" in capsys.readouterr().err

    def test_resume_refuses_tampered_spec(self, capsys, tmp_path):
        ckpt = ["--set", f"sim.checkpoint_dir={tmp_path}"]
        assert main(["run", *self.SETS, *ckpt]) == 0
        state = tmp_path / "state.json"
        meta = json.loads(state.read_text())
        meta["extra"]["spec"]["method"]["sigma"] = 0.001
        state.write_text(json.dumps(meta))
        assert main(["run", "--resume", str(tmp_path)]) == 2
        assert "hash mismatch" in capsys.readouterr().err

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
        assert resumed_out.read_bytes() == full_out.read_bytes()
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

    @staticmethod
    def _as_v2(state):
        state["population"] = state.pop("user_active")

    @staticmethod
    def _as_v3(state):
        # v3 held the history's logs as tuple rows.
        logs = state["history"]
        state["history"] = {
            key: [list(row.values()) for row in logs[key]]
            for key in ("records", "participation", "comm")
        } | {"round_seconds": logs["round_seconds"]}

    @pytest.mark.parametrize("command", ["run", "serve"])
    @pytest.mark.parametrize("schema, rewrite, why", [
        ("uldp-fl-sim/v2", _as_v2, "v2 holds a sharded user population"),
        ("uldp-fl-sim/v3", _as_v3, "v3 stores the history as tuple rows"),
    ], ids=["v2", "v3"])
    def test_resume_refuses_an_old_snapshot_in_one_line(
            self, command, schema, rewrite, why, capsys, tmp_path):
        ckpt = ["--set", f"sim.checkpoint_dir={tmp_path}"]
        assert main(["run", *self.SETS, *ckpt]) == 0
        capsys.readouterr()
        state = tmp_path / "state.json"
        meta = json.loads(state.read_text())
        meta["state"]["schema"] = schema
        rewrite(meta["state"])
        state.write_text(json.dumps(meta))
        assert main([command, "--resume", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert why in err[0]

    @pytest.mark.parametrize("command", ["run", "serve"])
    @pytest.mark.parametrize("edit, why", [
        # Quieter than the run was composed for: the snapshot no longer
        # hashes to the recorded value.
        (lambda extra: extra["spec"]["method"].update(sigma=0.001),
         "hash mismatch"),
        # What the pre-spec library path wrote: names and sizes, no spec.
        (lambda extra: extra.pop("spec"), "no spec snapshot"),
    ], ids=["tampered", "spec-less"])
    def test_resume_refuses_an_unverified_checkpoint(
            self, command, edit, why, capsys, tmp_path):
        ckpt = ["--set", f"sim.checkpoint_dir={tmp_path}"]
        assert main(["run", *self.SETS, *ckpt]) == 0
        capsys.readouterr()
        state = tmp_path / "state.json"
        meta = json.loads(state.read_text())
        edit(meta["extra"])
        state.write_text(json.dumps(meta))
        assert main([command, "--resume", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert why in err[0]


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestOneResumeRule:
    """``run --resume`` and ``serve --resume`` share one resume function
    and one snapshot cadence: every ``checkpoint_every``-th round of the
    run and the last, written into the directory resumed from."""

    @staticmethod
    def _killed_at_round_3(tmp_path, traced=False):
        """A 6-round ``[net]`` spec snapshotting every 2 rounds into
        ``orig``, killed after round 3 (what a crash leaves there; with
        ``traced``, ``[obs]`` is on and ``orig`` holds its trace too)."""
        from repro.api import RunSpec
        from repro.api.runner import build_simulator, checkpoint_extra, obs_session
        from repro.sim import save_checkpoint

        orig = tmp_path / "orig"
        tree = {
            "name": "resume-rule", "seed": 3, "rounds": 6,
            "sim": {"scenario": "ideal-sync", "scale": "smoke",
                    "checkpoint_dir": str(orig), "checkpoint_every": 2},
            "net": {"port": _free_port(), "join_timeout": 30.0,
                    "round_timeout": 60.0, "ping_timeout": 10.0},
        }
        if traced:
            tree["obs"] = {"enabled": True}
        spec = RunSpec.from_dict(tree)
        sim = build_simulator(spec)
        with obs_session(spec):
            sim.run(stop_after=3)
        save_checkpoint(orig, sim, extra=checkpoint_extra(spec))
        return spec, orig

    @staticmethod
    def _record_saves(monkeypatch) -> list:
        """(directory, round) of every snapshot taken from now on."""
        import repro.sim.checkpoint as checkpoint

        saves, save = [], checkpoint.save_checkpoint

        def recording(path, simulator, extra=None):
            saves.append((str(path), simulator.rounds_completed))
            return save(path, simulator, extra=extra)

        monkeypatch.setattr(checkpoint, "save_checkpoint", recording)
        return saves

    @staticmethod
    def _serve_resume(spec, ckpt) -> int:
        """``repro serve --resume ckpt`` with the spec's silos as threads
        (they connect with retry, so they may start before the server)."""
        import threading

        from repro.net.silo_client import SiloClient

        codes = {}

        def run_silo(s):
            codes[s] = SiloClient(spec, s, port=spec.net.port).run()

        threads = [threading.Thread(target=run_silo, args=(s,), daemon=True)
                   for s in range(3)]
        for th in threads:
            th.start()
        code = main(["serve", "--resume", str(ckpt)])
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
        assert codes == {0: 0, 1: 0, 2: 0}
        return code

    @staticmethod
    def _round(ckpt) -> int:
        return json.loads((ckpt / "state.json").read_text())["state"]["round"]

    def test_serve_resume_of_a_copy_writes_into_the_copy(
            self, capsys, monkeypatch, tmp_path):
        import shutil

        spec, orig = self._killed_at_round_3(tmp_path)
        copy = tmp_path / "copy"
        shutil.copytree(orig, copy)
        assert self._serve_resume(spec, copy) == 0
        assert f"resumed from {copy} at round 3" in capsys.readouterr().out
        assert self._round(copy) == 6
        # The spec's own sim.checkpoint_dir is left where the crash left it.
        assert self._round(orig) == 3

    @pytest.mark.parametrize("command", ["run", "serve"])
    def test_resume_of_a_copy_traces_into_the_copy(self, command, capsys, tmp_path):
        import shutil

        def lines(path):
            return len(path.read_text().splitlines())

        spec, orig = self._killed_at_round_3(tmp_path, traced=True)
        before = lines(orig / "trace.jsonl")
        assert before > 0
        copy = tmp_path / "copy"
        shutil.copytree(orig, copy, ignore=shutil.ignore_patterns("trace.jsonl"))
        if command == "run":
            assert main(["run", "--resume", str(copy)]) == 0
        else:
            assert self._serve_resume(spec, copy) == 0
        assert lines(copy / "trace.jsonl") > 0
        # The stored spec's checkpoint_dir is not written to.
        assert lines(orig / "trace.jsonl") == before

    def test_run_and_serve_snapshot_at_the_same_rounds(
            self, capsys, monkeypatch, tmp_path):
        import shutil

        spec, orig = self._killed_at_round_3(tmp_path)
        ran, served = tmp_path / "ran", tmp_path / "served"
        shutil.copytree(orig, ran)
        shutil.copytree(orig, served)
        saves = self._record_saves(monkeypatch)
        assert main(["run", "--resume", str(ran)]) == 0
        assert self._serve_resume(spec, served) == 0
        # The rounds an uninterrupted run snapshots at (2, 4, 6), from 3 on.
        assert saves == [(str(ran), 4), (str(ran), 6),
                         (str(served), 4), (str(served), 6)]


class TestServeSpawnFailure:
    def test_failed_spawn_reaps_the_started_silos_and_cleans_up(
            self, capsys, monkeypatch, tmp_path):
        import socket
        import subprocess
        import tempfile

        from repro.cli import build_parser

        class Stub:
            waited = killed = False

            def wait(self, timeout=None):
                Stub.waited = True
                return 0

            def kill(self):
                Stub.killed = True

        calls = []

        def popen(argv, **kwargs):
            calls.append(argv)
            if len(calls) == 2:
                raise OSError("fork failed")
            return Stub()

        monkeypatch.setattr(subprocess, "Popen", popen)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "seed": 3, "sim": {"scenario": "ideal-sync", "scale": "smoke"},
            "net": {"port": 0, "join_timeout": 5.0}}))
        args = build_parser().parse_args(
            ["serve", "--config", str(spec), "--spawn-silos"])
        with pytest.raises(OSError, match="fork failed"):
            args.func(args)
        assert len(calls) == 2 and (Stub.waited or Stub.killed)
        assert not list(tmp_path.glob("repro-net-*.json"))
        # The listener went with them: nothing accepts on its port.
        port = int(capsys.readouterr().out.split(":")[1].split()[0])
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5).close()

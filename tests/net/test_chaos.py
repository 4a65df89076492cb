"""Multi-process chaos tests: real ``kill -9``, real crashed silos.

These drive the installed CLI (``repro serve --spawn-silos``) in
subprocesses -- the same invocation the CI net-smoke job and a real
deployment use -- so they cover process boundaries the threaded oracle
tests in ``test_networked_run.py`` cannot: a SIGKILLed server resuming
from its checkpoint, and a silo process dying mid-run via ``os._exit``.

They are the slowest tests in the suite (each ``serve`` spawns four
Python processes); everything is bounded by explicit timeouts so a hang
fails rather than wedges.
"""

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time

REPO_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def write_spec(path, port, extra=""):
    path.write_text(f"""
name = "net-chaos"
seed = 11

[sim]
scenario = "ideal-sync"
scale = "smoke"
checkpoint_dir = "{path.parent / 'ckpt'}"
checkpoint_every = 1

[net]
port = {port}
join_timeout = 30.0
round_timeout = 60.0
ping_timeout = 10.0
{extra}""")


def env(tmpdir):
    """The child's environment: this checkout's ``src`` on the path and
    ``tmpdir`` as its temp directory, so a leaked temp file shows."""
    return dict(os.environ, PYTHONPATH=REPO_SRC, TMPDIR=str(tmpdir))


def serve(tmpdir, *args, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "repro", "serve", *args],
        env=env(tmpdir), capture_output=True, text=True, timeout=timeout,
    )


class TestKillMinusNine:
    def test_sigkilled_server_resumes_bit_identically(self, tmp_path):
        """The tentpole acceptance test: SIGKILL the whole process group
        mid-run, resume from the checkpoint, and the final history JSON
        equals an uninterrupted run's byte for byte."""
        spec = tmp_path / "spec.toml"
        # Silo 0 straggles 0.5 s on each reply of round index 1 (ping and
        # update, both far inside their deadlines): the bits do not move,
        # and the server is held in that round, right after the round-1
        # checkpoint the kill waits for, so the kill lands mid-run.
        write_spec(spec, free_port(), extra="""
[net.faults]
events = [{ silo = 0, action = "delay", round = 1, value = 0.5 }]
""")
        ckpt = tmp_path / "ckpt"

        ref = serve(tmp_path, "--config", str(spec), "--spawn-silos",
                    "--output", str(tmp_path / "ref.json"))
        assert ref.returncode == 0, ref.stderr[-2000:]
        # --spawn-silos removes the spec file it handed the silos.
        assert not list(tmp_path.glob("repro-net-*.json"))

        # Same spec (and port -- the listener sets SO_REUSEADDR, and the
        # output embeds the spec, so it must not change between runs);
        # kill server + spawned silos the moment the first round's
        # checkpoint lands.
        import shutil

        shutil.rmtree(ckpt)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--config", str(spec),
             "--spawn-silos", "--output", str(tmp_path / "never.json")],
            env=env(tmp_path), start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        state = ckpt / "state.json"
        deadline = time.time() + 180
        killed = False
        try:
            while time.time() < deadline:
                if state.exists():
                    try:
                        meta = json.loads(state.read_text())
                    except json.JSONDecodeError:
                        continue  # mid-write; the atomic rename is coming
                    if meta["state"]["round"] >= 1:
                        os.killpg(proc.pid, signal.SIGKILL)
                        killed = True
                        break
                time.sleep(0.02)
        finally:
            if not killed:
                os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        assert killed, "never saw a round-1 checkpoint to kill"
        assert not (tmp_path / "never.json").exists()
        time.sleep(1.0)

        res = serve(tmp_path, "--resume", str(ckpt), "--spawn-silos",
                    "--output", str(tmp_path / "resumed.json"))
        assert res.returncode == 0, res.stderr[-2000:]
        assert "resumed from" in res.stdout

        ref_hist = json.loads((tmp_path / "ref.json").read_text())
        resumed = json.loads((tmp_path / "resumed.json").read_text())
        assert resumed == ref_hist


class TestCrashFault:
    def test_crashed_silo_becomes_a_dropout(self, tmp_path):
        """A silo process that dies with ``os._exit`` mid-run (the crash
        fault) is observed as a dropout; the run completes on the
        survivors without operator intervention."""
        spec = tmp_path / "spec.toml"
        write_spec(spec, free_port(), extra="""
[net.faults]
events = [{ silo = 2, action = "crash", round = 1 }]
""")
        res = serve(tmp_path, "--config", str(spec), "--spawn-silos",
                    "--output", str(tmp_path / "out.json"))
        assert res.returncode == 0, res.stderr[-2000:]

        (hist,) = json.loads((tmp_path / "out.json").read_text())
        part = [(p["round"], p["silos_seen"]) for p in hist["participation"]]
        # Silo 2 crashes when round index 1's frame arrives and never
        # comes back; rounds 2 and 3 run with the two survivors.
        assert part == [(1, 3), (2, 2), (3, 2)]
        assert len(hist["records"]) == 3

"""Peers that speak the frame layout but not the protocol.

Two directions of one rule -- a frame a party cannot use ends that
session with a typed outcome, never a traceback:

- a ``compute`` frame a silo cannot use (the server's side of this is
  ``TestMalformedUpdate`` in ``test_networked_run.py``): the silo drops
  the session, the server sees a transport failure, and once
  ``connect_retries`` is spent the silo exits 3;
- a ``hello`` from another build: the server answers with a ``refuse``
  frame naming both protocol versions, and a refused silo exits 2;
- a ``hello`` answered with neither ``welcome`` nor ``refuse``: a failed
  session like any other, so the silo gives up after ``connect_retries``.
"""

import gc
import json
import os
import pathlib
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest
from test_networked_run import base_tree

from repro.api import RunSpec, SpecError, build_simulator
from repro.net import wire
from repro.net.server import FederationServer
from repro.net.silo_client import SiloClient

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

# connect_retries = 0: the first failed session is the last, so run()
# returns instead of rejoining a server that would welcome it for ever.
TREE = base_tree(connect_retries=0, join_timeout=5.0)


@pytest.fixture(scope="module")
def silo():
    frozen = gc.get_freeze_count()
    client = SiloClient(RunSpec.from_dict(TREE), 0, port=1)
    # The class freezes nothing: only the `repro silo` process does.
    assert gc.get_freeze_count() == frozen
    return client


class ScriptedServer:
    """A listener that answers each of up to ``sessions`` sessions'
    ``hello`` with scripted frames and records the first thing the silo
    says back in each (nothing, if it hangs up instead)."""

    def __init__(self, *frames, sessions=1):
        self.script = b"".join(wire.pack_frame(*frame) for frame in frames)
        self.sessions = sessions
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(10.0)
        self.port = self.listener.getsockname()[1]
        self.hellos, self.replies = [], []
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        with self.listener:
            for _ in range(self.sessions):
                try:
                    sock, _ = self.listener.accept()
                except OSError:
                    return  # the silo stopped reconnecting
                self.listener.settimeout(1.0)  # a rejoin is immediate
                with sock:
                    self._session(sock)

    def _session(self, sock):
        sock.settimeout(10.0)
        try:
            self.hellos.append(wire.recv_frame(sock))
            sock.sendall(self.script)
            self.replies.append(wire.recv_frame(sock))
        except (wire.WireError, OSError):
            pass  # the silo hung up without a reply

    def run(self, silo, caplog):
        """``silo.run()`` against this server, its ERROR lines captured."""
        silo.port = self.port
        try:
            with caplog.at_level("ERROR", logger="repro.net.silo_client"):
                return silo.run()
        finally:
            self.thread.join(timeout=15)
            assert not self.thread.is_alive()


@pytest.fixture(scope="module")
def good_compute():
    """The payload and arrays of a ``compute`` the silo would answer,
    taken from the server's simulator for the same spec: the params as
    the method broadcasts them."""
    sim = build_simulator(RunSpec.from_dict(TREE))
    return (
        {"round": 0, "attempt": 0, "noise_std": 1.0},
        {"params": sim.method.broadcast(sim.trainer.params),
         "weights": np.ascontiguousarray(sim.method.weights[0])},
    )


def without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


MALFORMED = {
    "missing params": lambda p, a: (p, without(a, "params")),
    "wrong params shape": lambda p, a: (p, {**a, "params": a["params"][:-1]}),
    # Protocol 3's float64 params: not what this method broadcasts.
    "float64 params": lambda p, a: (
        p, {**a, "params": a["params"].astype(np.float64)}),
    "NaN in params": lambda p, a: (
        p, {**a, "params": np.where(np.arange(a["params"].size) == 3,
                                    np.nan, a["params"])}),
    "wrong weights shape": lambda p, a: (
        p, {**a, "weights": a["weights"][:-1]}),
    "noise_std = NaN": lambda p, a: ({**p, "noise_std": float("nan")}, a),
    "negative noise_std": lambda p, a: ({**p, "noise_std": -1.0}, a),
    "round is not an integer": lambda p, a: ({**p, "round": "zero"}, a),
    # A round keys the silo's generator, which takes no negative seed.
    "negative round": lambda p, a: ({**p, "round": -1}, a),
    # Protocol 5's compute: no attempt for the update to echo.
    "missing attempt": lambda p, a: (without(p, "attempt"), a),
    "negative attempt": lambda p, a: ({**p, "attempt": -1}, a),
}


class TestMalformedCompute:
    def test_the_unmodified_frame_is_answered(self, silo, good_compute, caplog):
        # Positive control for the cases below.  The scripted server
        # closes after the reply and never says "done", so this session
        # fails too -- but only after the silo answered.
        server = ScriptedServer(("welcome", {"round": 0}),
                                ("compute", *good_compute))
        assert server.run(silo, caplog) == 3
        assert [f.type for f in server.replies] == ["update"]
        assert "dropping the session" not in caplog.text

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_compute_ends_the_session_not_the_process(
            self, silo, good_compute, case, caplog):
        server = ScriptedServer(
            ("welcome", {"round": 0}),
            ("compute", *MALFORMED[case](*good_compute)))
        outcome = server.run(silo, caplog)  # no exception escapes
        assert outcome == 3  # "gave up", not 1 (aborted) or 2 (refused)
        assert len(server.hellos) == 1
        assert server.replies == []  # nothing was computed, nothing sent
        assert caplog.text.count("dropping the session") == 1


class TestBuildMismatch:
    @staticmethod
    def handshake(version):
        """The server's answer to a hand-packed ``hello`` announcing
        ``version``: ``(silo id or None, reply frame)``."""
        spec = RunSpec.from_dict(TREE)
        server = FederationServer(spec)
        ours, theirs = socket.socketpair()
        with theirs:
            theirs.settimeout(5.0)
            theirs.sendall(wire.pack_frame("hello", {
                "silo": 0, "spec_hash": spec.hash(), "wire": version}))
            try:
                return server._handshake(ours), wire.recv_frame(theirs)
            finally:
                server.close()
                ours.close()

    def test_previous_version_hello_is_refused_naming_both_versions(self):
        # What a silo of the previous build sends: protocol 5 matched an
        # update to its compute by round alone, no attempt.  The frame
        # layout (header ``v``) did not change, so the server can read it
        # -- and must answer it, not just hang up.
        assert wire.PROTOCOL_VERSION == 6
        previous = 5
        joined, reply = self.handshake(previous)
        assert joined is None
        assert reply.type == "refuse"
        reason = reply.payload["reason"]
        assert "protocol version mismatch" in reason
        assert f"speaks {previous}," in reason
        assert f"speaks {wire.PROTOCOL_VERSION};" in reason

    def test_current_version_hello_is_welcomed(self):
        joined, reply = self.handshake(wire.PROTOCOL_VERSION)
        assert (joined, reply.type) == (0, "welcome")

    def test_refused_silo_exits_2_without_retrying(self, silo, caplog):
        server = ScriptedServer(
            ("refuse", {"reason": "protocol version mismatch: ..."}))
        assert server.run(silo, caplog) == 2
        assert [f.payload["wire"] for f in server.hellos] == [
            wire.PROTOCOL_VERSION]
        assert "refused: protocol version mismatch" in caplog.text

    def test_hello_answered_with_another_frame_is_a_failed_session(
            self, silo, caplog):
        # A peer that is not a server of this protocol: every hello gets
        # a pong.  connect_retries = 0, so the first such session is the
        # last; without the cap the silo would rejoin it for ever.
        server = ScriptedServer(("pong", {"round": 0, "ready": True}),
                                sessions=5)
        assert server.run(silo, caplog) == 3
        assert len(server.hellos) == 1
        assert "gave up after 1 failed sessions" in caplog.text


class TestBuild:
    """What a silo does before its first frame: a bad id is refused
    before the replica is built, and only the ``repro silo`` process
    freezes the heap it built (the ``silo`` fixture checks the class)."""

    @pytest.mark.parametrize("silo_id", [-1, 3])
    def test_out_of_range_silo_id_is_refused_before_the_build(
            self, silo_id, monkeypatch):
        def bind_scenario(*args):
            raise AssertionError("built a replica for a refused silo id")

        monkeypatch.setattr("repro.net.silo_client.bind_scenario",
                            bind_scenario)
        with pytest.raises(SpecError, match=f"silo id {silo_id} out of "
                                            "range for the scenario's 3"):
            SiloClient(RunSpec.from_dict(TREE), silo_id, port=1)

    def test_silo_process_freezes_the_heap_before_it_serves(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(TREE))
        script = (
            "import gc, sys\n"
            "from repro.cli import main\n"
            "from repro.net.silo_client import SiloClient\n"
            "SiloClient.run = lambda self: print(gc.get_freeze_count()) or 0\n"
            "sys.exit(main(['silo', '--config', sys.argv[1],"
            " '--silo-id', '0', '--port', '1']))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, str(spec)],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr[-2000:]
        assert int(out.stdout.split()[-1]) > 0

"""Peers that speak the frame layout but not the protocol.

Two directions of one rule -- a frame a party cannot use ends that
session with a typed outcome, never a traceback:

- a ``compute`` frame a silo cannot use (the server's side of this is
  ``TestMalformedUpdate`` in ``test_networked_run.py``): the silo drops
  the session, the server sees a transport failure, and once
  ``connect_retries`` is spent the silo exits 3;
- a ``hello`` from another build: the server answers with a ``refuse``
  frame naming both protocol versions, and a refused silo exits 2.
"""

import socket
import threading

import numpy as np
import pytest
from test_networked_run import base_tree

from repro.api import RunSpec
from repro.net import wire
from repro.net.server import FederationServer
from repro.net.silo_client import SiloClient

# connect_retries = 0: the first failed session is the last, so run()
# returns instead of rejoining a server that would welcome it for ever.
TREE = base_tree(connect_retries=0, join_timeout=5.0)


@pytest.fixture(scope="module")
def silo():
    return SiloClient(RunSpec.from_dict(TREE), 0, port=1)


class ScriptedServer:
    """A listener that answers one session's ``hello`` with scripted
    frames and records the first thing the silo says back (nothing, if it
    hangs up instead)."""

    def __init__(self, *frames):
        self.script = b"".join(wire.pack_frame(*frame) for frame in frames)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(10.0)
        self.port = self.listener.getsockname()[1]
        self.hellos, self.replies = [], []
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        with self.listener:
            sock, _ = self.listener.accept()
        with sock:
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


def good_compute(silo):
    """The payload and arrays of a ``compute`` the silo would answer."""
    sim = silo.sim
    return (
        {"round": 0, "noise_std": 1.0,
         "rng_state": sim.method.rng.bit_generator.state},
        {"params": sim.trainer.params.copy(),
         "weights": np.ascontiguousarray(sim.method.weights[0])},
    )


def without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


MALFORMED = {
    "missing rng_state": lambda p, a: (without(p, "rng_state"), a),
    "unrestorable rng_state": lambda p, a: (
        {**p, "rng_state": {"bit_generator": "PCG64"}}, a),
    "missing params": lambda p, a: (p, without(a, "params")),
    "wrong params shape": lambda p, a: (p, {**a, "params": a["params"][:-1]}),
    "float32 params": lambda p, a: (
        p, {**a, "params": a["params"].astype(np.float32)}),
    "NaN in params": lambda p, a: (
        p, {**a, "params": np.where(np.arange(a["params"].size) == 3,
                                    np.nan, a["params"])}),
    "wrong weights shape": lambda p, a: (
        p, {**a, "weights": a["weights"][:-1]}),
    "noise_std = NaN": lambda p, a: ({**p, "noise_std": float("nan")}, a),
    "negative noise_std": lambda p, a: ({**p, "noise_std": -1.0}, a),
    "round is not an integer": lambda p, a: ({**p, "round": "zero"}, a),
}


class TestMalformedCompute:
    def test_the_unmodified_frame_is_answered(self, silo, caplog):
        # Positive control for the cases below.  The scripted server
        # closes after the reply and never says "done", so this session
        # fails too -- but only after the silo answered.
        server = ScriptedServer(("welcome", {"round": 0}),
                                ("compute", *good_compute(silo)))
        assert server.run(silo, caplog) == 3
        assert [f.type for f in server.replies] == ["update"]
        assert "dropping the session" not in caplog.text

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_compute_ends_the_session_not_the_process(
            self, silo, case, caplog):
        server = ScriptedServer(
            ("welcome", {"round": 0}),
            ("compute", *MALFORMED[case](*good_compute(silo))))
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
        # What a silo of the previous build sends.  The frame layout
        # (header ``v``) did not change, so the server can read it -- and
        # must answer it, not just hang up.
        previous = wire.PROTOCOL_VERSION - 1
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

"""What the server sees, and what the wire weighs (ROADMAP item 1).

Algorithm 3 lets a silo release one thing per round: its noisy weighted
sum ``sum_u w[s,u] * clip(delta_su) + z_s``.  These tests serve the 3-silo
ideal-network scenario with every frame the server sends and receives
recorded, recompute each silo's private intermediates in process from the
spec and the round its ``compute`` frame named, and check that none of
them -- no per-user clipped delta, no un-noised silo sum, no bare noise
draw -- appears in anything the server received; and that the bytes on
the wire are the comm ledger's bytes plus a small per-frame overhead.

The recomputation is also what a curious server holding the spec can do:
silo noise is seeded from the spec, so the run's DP guarantee holds
against observers of the released model, not against this server, and
``repro serve`` says so in one warning line.
"""

import logging

import numpy as np
import pytest
from test_networked_run import base_tree, networked

from repro.api import RunSpec
from repro.api.runner import build_simulator
from repro.core.methods.uldp_avg import SYNC_ROUND
from repro.net import server as server_module
from repro.net.transport import MessageSocket
from repro.net.wire import pack_frame
from repro.obs.summary import load_trace
from repro.protocol.driver import SERVER, Driver

#: docs/networking.md states this bound on an update frame's header.
UPDATE_OVERHEAD_BOUND = 512


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """What the :func:`transcript` run records past its sockets: a copy of
    the server's frame log after each round attempt, and its trace file."""
    return {"logs": [], "trace": tmp_path_factory.mktemp("obs") / "trace.jsonl"}


@pytest.fixture(scope="module")
def transcript(recorded):
    """One ideal-network run; returns ``(server, history, sent, received,
    warnings)`` with the server side's frames in order and the server's
    WARNING log lines."""
    sent, received = [], []
    warnings = []

    class Collect(logging.Handler):
        def emit(self, record):
            warnings.append(record.getMessage())

    class RecordingSocket(MessageSocket):
        def send(self, msg_type, payload=None, arrays=None):
            sent.append((msg_type, payload or {}, dict(arrays or {})))
            super().send(msg_type, payload, arrays)

        def recv(self, timeout=None):
            frame = super().recv(timeout)
            received.append(frame)
            return frame

    class RecordingDriver(Driver):
        def run(self, schedule, silos=None):
            try:
                super().run(schedule, silos)
            finally:
                recorded["logs"].append(list(self.log))

    tree = {**base_tree(),
            "obs": {"enabled": True, "trace_path": str(recorded["trace"])}}
    patch = pytest.MonkeyPatch()
    patch.setattr(server_module, "MessageSocket", RecordingSocket)
    patch.setattr(server_module, "Driver", RecordingDriver)
    handler = Collect(logging.WARNING)
    server_module.log.addHandler(handler)
    try:
        server, history, codes, err = networked(tree)
    finally:
        patch.undo()
        server_module.log.removeHandler(handler)
    assert err is None and set(codes.values()) == {0}
    return server, history, sent, received, warnings


def test_server_never_receives_a_row_or_an_unnoised_sum(transcript):
    server, _, sent, received, _ = transcript
    computes = [(p, a) for kind, p, a in sent if kind == "compute"]
    updates = [f for f in received if f.type == "update"]
    assert len(computes) == len(updates) == 9  # 3 rounds x 3 silos, in order
    arrays = [a for frame in received for a in frame.arrays.values()]

    def seen_by_server(secret):
        return any(a.shape == secret.shape and np.allclose(a, secret)
                   for a in arrays)

    # A second copy of the federation plays every silo's private side.
    method = build_simulator(
        RunSpec.from_dict({k: v for k, v in base_tree().items() if k != "net"})
    ).method
    silos = [s for _ in range(3) for s in range(3)]
    rows_checked = 0
    for s, (request, blobs), update in zip(silos, computes, updates):
        weights = blobs["weights"]
        users, rows, noise = method.silo_round_segment(
            s, blobs["params"], weights, request["noise_std"],
            release=(SYNC_ROUND, request["round"]))
        unnoised = weights[users] @ rows
        # The recomputation is aligned with the run: same users, and the
        # one array the silo sent is this noise plus this sum, rounded to
        # float32 (half a float32 ulp, relative 2**-24).
        assert update.payload["users"] == users and len(users) > 1
        np.testing.assert_allclose(
            update.arrays["payload"], noise + unnoised, rtol=2.0**-24 + 1e-12)
        for secret in (*rows, unnoised, noise):
            assert not seen_by_server(secret)
        rows_checked += len(rows)
    assert rows_checked > 27
    # The negative control: the detector does find what *was* sent.
    assert seen_by_server(updates[0].arrays["payload"])


def test_compute_names_the_round_and_nothing_random(transcript):
    _, _, sent, _, _ = transcript
    computes = [(p, a) for kind, p, a in sent if kind == "compute"]
    assert computes
    for payload, arrays in computes:
        assert set(payload) == {"round", "attempt", "noise_std"}
        assert set(arrays) == {"params", "weights"}


def test_serve_warns_that_it_can_rederive_the_noise(transcript):
    *_, warnings = transcript
    assert warnings.count(server_module.NOISE_WARNING) == 1
    assert "\n" not in server_module.NOISE_WARNING
    assert server_module.NOISE_WARNING.startswith("security: ")


def test_update_is_one_noisy_vector(transcript):
    server, _, _, received, _ = transcript
    size = server.sim.trainer.params.size
    for frame in received:
        if frame.type != "update":
            assert frame.arrays == {}  # hello / pong carry no arrays
            continue
        assert set(frame.payload) == {"round", "attempt", "users"}
        assert list(frame.arrays) == ["payload"]
        payload = frame.arrays["payload"]
        assert payload.shape == (size,) and payload.dtype == np.float32


def test_wire_bytes_are_ledger_bytes_plus_a_small_header(transcript):
    server, history, _, received, _ = transcript
    size = server.sim.trainer.params.size
    rounds = {}
    for frame in received:
        if frame.type == "update":
            rounds.setdefault(frame.payload["round"], []).append(frame)
    assert sorted(rounds) == [0, 1, 2]
    for t, frames in rounds.items():
        blob_bytes = sum(f.arrays["payload"].nbytes for f in frames)
        assert blob_bytes == history.comm[t].uplink_bytes
        for frame in frames:
            overhead = frame.nbytes - 4 * size  # the float32 payload
            assert 0 < overhead < UPDATE_OVERHEAD_BOUND


def test_the_frame_log_is_what_the_sockets_carried(transcript, recorded):
    """The driver's log is the server's view: its server-bound frames are
    the very frames the sockets received, and its silo-bound ones what
    they sent, frame for frame (the ``"silo"`` key names the edge)."""
    _, _, sent, received, _ = transcript
    logs = recorded["logs"]
    assert len(logs) == 3  # one attempt per round, none failed
    up = [d for log in logs for d in log if d.receiver == SERVER]
    down = [d for log in logs for d in log if d.sender == SERVER]
    updates = [f for f in received if f.type == "update"]
    computes = [(p, a) for kind, p, a in sent if kind == "compute"]
    assert len(up) == len(updates) == len(down) == len(computes) == 9

    def unaddressed(frame):
        return {k: v for k, v in frame.payload.items() if k != "silo"}

    for delivery, frame in zip(up, updates):
        logged = delivery.frame
        assert logged.payload["silo"] == delivery.sender
        assert (logged.type, unaddressed(logged), logged.nbytes) == (
            frame.type, frame.payload, frame.nbytes)
        assert logged.arrays.keys() == frame.arrays.keys()
        assert all(logged.arrays[k] is frame.arrays[k] for k in frame.arrays)
    for delivery, (payload, arrays) in zip(down, computes):
        logged = delivery.frame
        assert logged.payload["silo"] == delivery.receiver
        assert logged.type == "compute" and unaddressed(logged) == payload
        assert logged.arrays.keys() == arrays.keys()
        assert all(logged.arrays[k] is arrays[k] for k in arrays)


def test_one_silo_compute_span_per_round_and_active_silo(transcript, recorded):
    """Each span carries how close its silo came to the deadline and the
    bytes of the exchange: the compute frame down, the update frame up."""
    server, _, sent, received, _ = transcript
    records = load_trace(recorded["trace"])
    spans = [r for r in records if r.get("name") == "silo_compute"]
    phases = {r["id"] for r in records if r.get("name") == "collect_contributions"}
    assert sorted((r["attrs"]["round"], r["attrs"]["silo"]) for r in spans) == [
        (t, s) for t in (1, 2, 3) for s in range(3)]
    downlinks = [len(pack_frame(kind, p, a)) for kind, p, a in sent
                 if kind == "compute"]
    uplinks = [f.nbytes for f in received if f.type == "update"]
    for span, downlink, uplink in zip(spans, downlinks, uplinks):
        attrs = span["attrs"]
        assert span["kind"] == "silo" and span["parent"] in phases
        assert 0 < attrs["deadline_margin"] < server.net.round_timeout
        assert (attrs["downlink_bytes"], attrs["uplink_bytes"]) == (downlink, uplink)

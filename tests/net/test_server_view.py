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

#: docs/networking.md states this bound on an update frame's header.
UPDATE_OVERHEAD_BOUND = 512


@pytest.fixture(scope="module")
def transcript():
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

    patch = pytest.MonkeyPatch()
    patch.setattr(server_module, "MessageSocket", RecordingSocket)
    handler = Collect(logging.WARNING)
    server_module.log.addHandler(handler)
    try:
        server, history, codes, err = networked(base_tree())
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
        assert set(payload) == {"round", "noise_std"}
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
        assert set(frame.payload) == {"round", "users"}
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

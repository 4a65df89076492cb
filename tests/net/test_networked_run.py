"""Networked-runtime oracle tests (server + silo clients in threads).

The acceptance criterion for ``repro.net``: a run over real sockets on an
ideal network is **bit-identical** to the in-process
:class:`FederationSimulator` -- same params, records, participation,
comm ledger, and round log.  Fault-injected runs are then compared
against in-process simulations with the equivalent dropout pattern, so
even the chaos paths have exact oracles.

Silos run as threads (not processes) here: each thread walks its own
scratch slab (``repro.nn.workspace``), so silos computing at once are
safe, and a single process keeps these tests fast.  Real multi-process
chaos lives in ``test_chaos.py``.
"""

import dataclasses
import json
import math
import socket
import struct
import threading

import numpy as np
import pytest

from repro.api import RunSpec
from repro.api.runner import build_simulator, build_trainer
from repro.core.methods.uldp_avg import SYNC_ROUND
from repro.core.weighting import QuorumError
from repro.net.server import FederationServer, SiloFailure
from repro.net import wire
from repro.net.silo_client import SiloClient
from repro.net.transport import MessageSocket
from repro.net.wire import Frame


def networked(tree, n_silos=3, first=None):
    """Serve ``tree`` with ``n_silos`` client threads on an OS-assigned
    port; returns ``(server, history, silo_exit_codes, quorum_error)``.
    ``first``: bytes a connection made before any silo's writes (so the
    server accepts it first)."""
    server = FederationServer(RunSpec.from_dict(tree))
    port = server.bind()
    codes = {}
    rogue = None
    if first is not None:
        rogue = socket.create_connection((server.net.host, port))
        rogue.sendall(first)

    def run_silo(s):
        codes[s] = SiloClient(RunSpec.from_dict(tree), s, port=port).run()

    threads = [
        threading.Thread(target=run_silo, args=(s,), daemon=True)
        for s in range(n_silos)
    ]
    for th in threads:
        th.start()
    hist, err = None, None
    try:
        hist = server.serve()
    except QuorumError as exc:
        err = exc
    finally:
        if rogue is not None:
            rogue.close()
    for th in threads:
        th.join(timeout=60)
    return server, hist, codes, err


def in_process(tree):
    """The same spec run entirely in-process (the oracle)."""
    sim = build_simulator(
        RunSpec.from_dict({k: v for k, v in tree.items() if k != "net"})
    )
    sim.run()
    return sim


def assert_bit_identical(server, hist, sim):
    assert np.array_equal(server.sim.trainer.params, sim.trainer.params)
    assert hist.records == sim.history.records
    assert hist.participation == sim.history.participation
    assert hist.comm == sim.history.comm
    # Networked rounds that observed a dropout carry an extra
    # silos_observed_down annotation; everything else must match exactly.
    stripped = [
        {k: v for k, v in e.items() if k != "silos_observed_down"}
        for e in server.sim.round_log
    ]
    assert stripped == sim.round_log


def base_tree(**net):
    net.setdefault("port", 0)
    net.setdefault("join_timeout", 20.0)
    net.setdefault("round_timeout", 60.0)
    net.setdefault("ping_timeout", 5.0)
    return {
        "name": "net-oracle",
        "seed": 3,
        "sim": {"scenario": "ideal-sync", "scale": "smoke"},
        "net": net,
    }


class TestIdealNetworkOracle:
    def test_bit_identical_to_in_process_simulator(self):
        tree = base_tree()
        server, hist, codes, err = networked(tree)
        assert err is None
        assert set(codes.values()) == {0}
        assert_bit_identical(server, hist, in_process(tree))

    def test_uldp_sgd_is_bit_identical_too(self):
        # ULDP-SGD inherits the per-silo step, so its silos ship one noisy
        # gradient payload each and the run matches in-process exactly.
        tree = {**base_tree(), "method": {"name": "uldp-sgd"}}
        server, hist, codes, err = networked(tree)
        assert err is None and set(codes.values()) == {0}
        assert hist.method == "ULDP-SGD"
        assert_bit_identical(server, hist, in_process(tree))

    def test_history_is_spec_stamped(self):
        tree = base_tree()
        _, hist, _, _ = networked(tree)
        from repro.api.spec import spec_hash

        assert hist.spec_hash == spec_hash(RunSpec.from_dict(tree))


#: A small train-mode spec (``[engine]`` is refused alongside ``[sim]``).
TRAIN_TREE = {
    "name": "uplink-rule", "seed": 3, "rounds": 2,
    "dataset": {"name": "creditcard", "users": 12, "silos": 3,
                "records": 300, "test_records": 60},
    "method": {"name": "uldp-avg-w", "local_epochs": 1},
}


def _carrier_run(carrier):
    """``(method, history)`` of one run through ``carrier``."""
    if carrier == "networked":
        server, hist, codes, err = networked(base_tree())
        assert err is None and set(codes.values()) == {0}
        return server.sim.method, hist
    if carrier == "buffered-async":
        sim = build_simulator(RunSpec.from_dict(
            {"seed": 0, "sim": {"scenario": "async-fedbuff", "scale": "smoke"}}))
        return sim.method, sim.run()
    tree = TRAIN_TREE
    if carrier == "2-worker pool":
        tree = {**tree, "engine": {"workers": 2, "shard_size": 128}}
    trainer = build_trainer(RunSpec.from_dict(tree))
    try:
        return trainer.method, trainer.run()
    finally:
        trainer.method.close()


@pytest.mark.parametrize(
    "carrier", ["in-process", "2-worker pool", "buffered-async", "networked"])
def test_every_carrier_charges_one_float32_release_per_update(carrier):
    """One uplink rule whatever carries the release: the ledger charges
    ``4 * P`` bytes per payload received -- one per contributing silo in
    a synchronous round; an async release also pays for the stale
    payloads it dropped, and may merge two from one silo -- and that is
    what ``uplink_payload_bytes()`` tells the bandwidth models."""
    method, hist = _carrier_run(carrier)
    size = method.model.num_params
    assert method.payload_dtype == np.float32
    assert method.uplink_payload_bytes() == 4 * size
    assert hist.comm
    for comm, seen in zip(hist.comm, hist.participation):
        received, rest = divmod(comm.uplink_bytes, 4 * size)
        assert rest == 0 and received >= seen.silos_seen > 0
        if carrier != "buffered-async":
            assert received == seen.silos_seen


def _params_blob_bytes(data: bytes) -> int:
    """Bytes of the ``params`` blob in a packed frame, read off its
    header the way a receiver reads them."""
    (hlen,) = struct.unpack(">I", data[4:8])
    (blob,) = [b for b in json.loads(data[8:8 + hlen])["blobs"]
               if b["name"] == "params"]
    return np.dtype(blob["dtype"]).itemsize * math.prod(blob["shape"])


class TestRogueHelloThenARun:
    """One run that a CRC-valid ``hello`` with a JSON-list payload opens
    (it used to end ``repro serve`` with an AttributeError in the
    handshake), with every ``compute`` frame the server sends recorded."""

    @pytest.fixture(scope="class")
    def session(self):
        tree = base_tree()
        computes = []  # (round, params blob bytes) per compute frame
        send = MessageSocket.send

        def recording_send(conn, msg_type, payload=None, arrays=None):
            if msg_type == "compute":
                data = wire.pack_frame(msg_type, payload, arrays)
                computes.append((payload["round"], _params_blob_bytes(data)))
            return send(conn, msg_type, payload, arrays)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MessageSocket, "send", recording_send)
            run = networked(tree, first=wire.pack_frame("hello", [0]))
        return tree, run, computes

    def test_the_server_refuses_it_and_serves_the_silos(self, session):
        tree, (server, hist, codes, err), _ = session
        assert err is None and set(codes.values()) == {0}
        assert_bit_identical(server, hist, in_process(tree))

    def test_the_ledger_downlink_is_what_the_socket_moved(self, session):
        _, (server, hist, _, _), computes = session
        dim = server.sim.trainer.params.size
        for t, record in enumerate(hist.comm):
            sent = [n for r, n in computes if r == t]
            assert sent == [dim * 4] * 3  # one float32 broadcast per silo
            assert sum(sent) == record.downlink_bytes


class TestFaultOracles:
    def test_decline_fault_matches_outage_simulation(self):
        # "Silo 2 declines round 1" over the network must equal the
        # in-process simulator with the same scripted outage window --
        # the exact-oracle fault (no wall clocks involved).
        tree = base_tree(faults={"events": [
            {"silo": 2, "action": "decline", "round": 1}]})
        server, hist, codes, err = networked(tree)
        assert err is None and set(codes.values()) == {0}
        assert [(p.round, p.silos_seen) for p in hist.participation] == [
            (1, 3), (2, 2), (3, 3)]
        observed = [e.get("silos_observed_down", 0)
                    for e in server.sim.round_log]
        assert observed == [0, 1, 0]
        assert_bit_identical(server, hist, outage_comparator({2: (1, 2)}))

    @pytest.mark.parametrize("silo", [0, 2])
    def test_timeout_fault_becomes_a_dropout(self, silo):
        # The silo sleeps 3s before each reply in round index 1, its pong
        # included: the server must observe a real deadline miss (the 2s
        # ping), run the round without the silo, and still match the
        # outage oracle bit for bit.  The compute-deadline retry is the
        # next test's.
        tree = base_tree(
            round_timeout=2.0, ping_timeout=2.0,
            faults={"events": [
                {"silo": silo, "action": "timeout", "round": 1, "value": 3.0}]},
        )
        server, hist, codes, err = networked(tree)
        assert err is None
        assert [(p.round, p.silos_seen) for p in hist.participation] == [
            (1, 3), (2, 2), (3, 3)]
        observed = [e.get("silos_observed_down", 0)
                    for e in server.sim.round_log]
        assert observed == [0, 1, 0]
        assert_bit_identical(server, hist, outage_comparator({silo: (1, 2)}))

    def test_updates_owed_an_aborted_attempt_do_not_answer_its_retry(self):
        # Silo 0 answers its round-1 ping in time but sleeps past the
        # compute deadline, after silos 1 and 2 have sent the updates they
        # formed for the 3-silo attempt.  Those carry round 1 too; the
        # retry must read the ones formed for the 2-silo attempt (new
        # weights, new noise std), or the run leaves the oracle.  Silo 0
        # also declines round 2, so whether it has reconnected by then
        # does not matter (nor does its exit code: one reconnect retry
        # keeps it from outliving the run by its whole backoff).  Silo 1
        # also sends each round-1 reply twice: the copy of its first
        # attempt's update waits unread until the retry, which must skip
        # it by its attempt number.
        tree = base_tree(
            round_timeout=2.0, ping_timeout=5.0, connect_retries=1,
            faults={"events": [
                {"silo": 0, "action": "timeout", "round": 1, "value": 3.0},
                {"silo": 0, "action": "decline", "round": 2},
                {"silo": 1, "action": "duplicate", "round": 1}]},
        )
        server, hist, codes, err = networked(tree)
        assert err is None
        assert server.retry_ledger["attempts"] == 1
        assert [(p.round, p.silos_seen) for p in hist.participation] == [
            (1, 3), (2, 2), (3, 2)]
        assert_bit_identical(server, hist, outage_comparator({0: (1, 3)}))

    def test_quorum_abort_reaches_every_silo(self):
        tree = base_tree(min_quorum=3, faults={"events": [
            {"silo": 0, "action": "decline", "round": 1}]})
        server, hist, codes, err = networked(tree)
        assert hist is None
        assert isinstance(err, QuorumError)
        assert "below net.min_quorum=3" in str(err)
        # The abort was broadcast: every silo exited with the abort code.
        assert set(codes.values()) == {1}


class ScriptedConn:
    """A silo's connection, scripted: answers each COMPUTE with the real
    payload (formed on the server's own method, built from the same spec,
    for the frame's round), records it in :attr:`formed`, and sends the
    reply's ``users`` / ``payload`` rewritten by ``corrupt(users, payload,
    n_users)``."""

    bytes_sent = bytes_received = 0

    def __init__(self, method, silo, corrupt=None):
        self.method, self.silo, self.corrupt = method, silo, corrupt
        self.formed = []

    def send(self, msg_type, payload, arrays):
        self.request = (payload, arrays)

    def recv_matching(self, reply_type, round_no, timeout, attempt=None):
        request, arrays = self.request
        users, payload = self.method.silo_payload(
            self.silo, arrays["params"], arrays["weights"],
            request["noise_std"], release=(SYNC_ROUND, request["round"]))
        self.formed.append((users, payload))
        if self.corrupt is not None:
            users, payload = self.corrupt(
                users, payload, len(arrays["weights"]))
        return Frame(
            reply_type, {"round": round_no, "attempt": attempt, "users": users},
            {"payload": payload},
        )


def _nan_in(payload):
    bad = payload.copy()
    bad[3] = np.nan
    return bad


class TestMalformedUpdate:
    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda u, p, n: (["seven"] + u[1:], p),
                         id="non-numeric"),
            pytest.param(lambda u, p, n: ([u[1]] + u[1:], p), id="duplicate"),
            pytest.param(lambda u, p, n: ([u[0] - n] + u[1:], p),
                         id="negative"),
            pytest.param(lambda u, p, n: ([u[0] + n] + u[1:], p),
                         id="out-of-range"),
        ],
    )
    def test_bad_users_list_is_a_silo_failure(self, corrupt):
        # The payload is genuine and rightly shaped; only the ids lie.
        # Unchecked, these were a ValueError, a user credited twice, a user
        # of another silo, and an IndexError.
        self.assert_failure_then_clean_retry(corrupt)

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda u, p, n: (u, p[:-1]),
                         id="wrong payload shape"),
            # Protocol 4's float64 payload: not what this method releases.
            pytest.param(lambda u, p, n: (u, p.astype(np.float64)),
                         id="float64 payload"),
            pytest.param(lambda u, p, n: (u, _nan_in(p)), id="NaN in payload"),
        ],
    )
    def test_bad_payload_is_a_silo_failure(self, corrupt):
        # The ids are genuine; the one array is not a finite float32 (P,)
        # vector.  Unchecked, these were a broadcasting error, a payload
        # charged twice its release, and a NaN model after one round.
        self.assert_failure_then_clean_retry(corrupt)

    @staticmethod
    def assert_failure_then_clean_retry(corrupt):
        server = FederationServer(RunSpec.from_dict(base_tree()))
        sim = server.sim
        server.conns = {
            s: ScriptedConn(sim.method, s, corrupt if s == 2 else None)
            for s in range(3)
        }
        snapshot = sim.state_dict()
        params = sim.trainer.params.copy()
        rng_state = sim.method.rng.bit_generator.state
        sim.method.contribution_executor = server._collect
        sim.external_dropout = np.ones(3, dtype=bool)
        with pytest.raises(SiloFailure) as failure:
            sim.step()
        assert failure.value.silo == 2
        assert failure.value.reason == "malformed update frame"
        # Silos 0 and 1 had answered, drawing from their own generators:
        # the server's is untouched, and the snapshot rollback takes back
        # what the attempt did advance (the scheduler's stream).
        assert sim.method.rng.bit_generator.state == rng_state
        sim.load_state(snapshot)
        assert np.array_equal(sim.trainer.params, params)
        assert sim.rounds_completed == 0
        # ... and the retry without the lying silo goes through.
        sim.external_dropout = np.array([True, True, False])
        sim.step()
        assert sim.history.participation[-1].silos_seen == 2
        assert np.isfinite(sim.trainer.params).all()


def test_a_retried_round_reforms_every_other_payload():
    # Round 0 fails at silo 1 and restarts without it.  Every silo is sent
    # its compute before any update is read, so silos 0 and 2 form their
    # payloads in both attempts: each draws from its own generator for
    # round 0 again and forms what it forms in a round nobody failed --
    # its draws never depended on silo 1's.
    # (Noise rescaling is off so that the survivors' inputs -- weights and
    # noise std -- do not change with the roster either.)
    def round_zero(bad=None):
        """What each silo formed in round 0, in order, bytes."""
        server = FederationServer(RunSpec.from_dict(base_tree()))
        sim = server.sim
        sim.config = dataclasses.replace(sim.config, noise_rescale=False)
        server.conns = {
            s: ScriptedConn(sim.method, s,
                            (lambda u, p, n: (u, p[:-1])) if s == bad else None)
            for s in range(3)
        }
        sim.method.contribution_executor = server._collect
        sim.external_dropout = np.ones(3, dtype=bool)
        if bad is not None:
            snapshot = sim.state_dict()
            with pytest.raises(SiloFailure):
                sim.step()
            sim.load_state(snapshot)
            sim.external_dropout[bad] = False
        sim.step()
        return [[(users, payload.tobytes()) for users, payload in conn.formed]
                for conn in server.conns.values()]

    clean, retried = round_zero(), round_zero(bad=1)
    assert retried[0] == clean[0] * 2
    assert len(retried[1]) == 1
    assert retried[2] == clean[2] * 2


def outage_comparator(windows):
    """In-process simulator matching the smoke ideal-sync scenario with a
    scripted :class:`SiloOutageWindows` dropout -- the exact oracle for
    decline/timeout faults (seed wiring mirrors ``build_simulator``)."""
    from repro.core import UldpAvg
    from repro.data import build_creditcard_benchmark
    from repro.sim import SiloOutageWindows, SimConfig, SyncPolicy
    from repro.sim.scheduler import FederationSimulator

    fed = build_creditcard_benchmark(
        n_users=12, n_silos=3, distribution="zipf", n_records=300,
        n_test=80, seed=3,
    )
    method = UldpAvg(noise_multiplier=5.0, local_epochs=1,
                     weighting="proportional")
    config = SimConfig(rounds=3, seed=4, delta=1e-5, eval_every=1,
                       policy=SyncPolicy(), renorm="none",
                       dropout=SiloOutageWindows(windows))
    sim = FederationSimulator(fed, method, config)
    sim.run()
    return sim

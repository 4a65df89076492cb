"""Networked-runtime oracle tests (server + silo clients in threads).

The acceptance criterion for ``repro.net``: a run over real sockets on an
ideal network is **bit-identical** to the in-process
:class:`FederationSimulator` -- same params, records, participation,
comm ledger, and round log.  Fault-injected runs are then compared
against in-process simulations with the equivalent dropout pattern, so
even the chaos paths have exact oracles.

Silos run as threads (not processes) here: the engine walks silos
serially, so threads are safe, and a single process keeps these tests
fast.  Real multi-process chaos lives in ``test_chaos.py``.
"""

import threading

import numpy as np
import pytest

from repro.api import RunSpec
from repro.api.runner import build_simulator
from repro.core.weighting import QuorumError
from repro.net.server import FederationServer, SiloFailure, _RemoteExecutor
from repro.net.silo_client import SiloClient
from repro.net.wire import Frame


def networked(tree, n_silos=3):
    """Serve ``tree`` with ``n_silos`` client threads on an OS-assigned
    port; returns ``(server, history, silo_exit_codes, quorum_error)``."""
    server = FederationServer(RunSpec.from_dict(tree))
    port = server.bind()
    codes = {}

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

    def test_timeout_fault_becomes_a_dropout(self):
        # Silo 2 sleeps past the 2s round deadline in round index 1: the
        # server must observe a real deadline miss, drop the silo for the
        # round, retry from the snapshot, and still match the outage
        # oracle bit for bit (the aborted attempt leaves no RNG trace).
        tree = base_tree(
            round_timeout=2.0, ping_timeout=2.0,
            faults={"events": [
                {"silo": 2, "action": "timeout", "round": 1, "value": 3.0}]},
        )
        server, hist, codes, err = networked(tree)
        assert err is None
        assert [(p.round, p.silos_seen) for p in hist.participation] == [
            (1, 3), (2, 2), (3, 3)]
        observed = [e.get("silos_observed_down", 0)
                    for e in server.sim.round_log]
        assert observed == [0, 1, 0]
        assert_bit_identical(server, hist, outage_comparator({2: (1, 2)}))

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
    payload (formed on the server's own method, whose RNG the frame
    carries anyway) and the reply's ``users`` / ``payload`` rewritten by
    ``corrupt(users, payload, n_users)``."""

    bytes_sent = bytes_received = 0

    def __init__(self, method, silo, corrupt=None):
        self.method, self.silo, self.corrupt = method, silo, corrupt

    def send(self, msg_type, payload, arrays):
        self.request = (payload, arrays)

    def recv_matching(self, reply_type, round_no, timeout):
        request, arrays = self.request
        rng = self.method.rng
        rng.bit_generator.state = request["rng_state"]
        users, payload = self.method.silo_payload(
            self.silo, arrays["params"], arrays["weights"],
            request["noise_std"])
        if self.corrupt is not None:
            users, payload = self.corrupt(
                users, payload, len(arrays["weights"]))
        return Frame(
            reply_type,
            {"round": round_no, "users": users,
             "rng_state": rng.bit_generator.state},
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
            pytest.param(lambda u, p, n: (u, p.astype(np.float32)),
                         id="float32 payload"),
            pytest.param(lambda u, p, n: (u, _nan_in(p)), id="NaN in payload"),
        ],
    )
    def test_bad_payload_is_a_silo_failure(self, corrupt):
        # The ids are genuine; the one array is not a finite float64 (P,)
        # vector.  Unchecked, these were a broadcasting error, a silent
        # precision loss, and a NaN model after one round.
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
        sim.method.contribution_executor = _RemoteExecutor(server, 0)
        sim.external_dropout = np.ones(3, dtype=bool)
        with pytest.raises(SiloFailure) as failure:
            sim.step()
        assert failure.value.silo == 2
        assert failure.value.reason == "malformed update frame"
        # Silos 0 and 1 had answered: the attempt advanced the shared RNG,
        # and the server's snapshot rollback is what takes that back.
        assert sim.method.rng.bit_generator.state != rng_state
        sim.load_state(snapshot)
        assert np.array_equal(sim.trainer.params, params)
        assert sim.method.rng.bit_generator.state == rng_state
        assert sim.rounds_completed == 0
        # ... and the retry without the lying silo goes through.
        sim.external_dropout = np.array([True, True, False])
        sim.step()
        assert sim.history.participation[-1].silos_seen == 2
        assert np.isfinite(sim.trainer.params).all()


def outage_comparator(windows):
    """In-process simulator matching the smoke ideal-sync scenario with a
    scripted :class:`SiloOutageWindows` dropout -- the exact oracle for
    decline/timeout faults (seed wiring mirrors ``build_scenario``)."""
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

"""Regression: retried rounds must not double-count CommRecord bytes.

When a silo misses its compute deadline mid-round, the server rolls the
simulator back to the pre-round snapshot and retries without the silo.
The aborted attempt really moved bytes over the wire -- but the
history's ``CommRecord`` log is rebuilt from the snapshot, so those
bytes must land in the server's ``retry_ledger`` instead of being summed
into ``history.comm`` a second time.  The oracle: a networked run with a
timeout fault reports exactly the same comm log as the in-process
simulator with the equivalent scripted outage.
"""

import threading

from repro.api import RunSpec
from repro.core.weighting import QuorumError
from repro.net.server import FederationServer
from repro.net.silo_client import SiloClient
from repro.obs.summary import TraceFold, load_trace, render_prometheus


def networked(tree, n_silos=3):
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


def base_tree(**net):
    net.setdefault("port", 0)
    net.setdefault("join_timeout", 20.0)
    net.setdefault("round_timeout", 60.0)
    net.setdefault("ping_timeout", 5.0)
    return {
        "name": "retry-ledger",
        "seed": 3,
        "sim": {"scenario": "ideal-sync", "scale": "smoke"},
        "net": net,
    }


class TestRetryLedger:
    def test_clean_run_charges_nothing(self):
        server, hist, codes, err = networked(base_tree())
        assert err is None and set(codes.values()) == {0}
        assert server.retry_ledger == {
            "attempts": 0, "uplink_bytes": 0, "downlink_bytes": 0}

    def test_timeout_retry_does_not_double_count_comm_bytes(self):
        # Two runs of the same scenario: one clean, one where silo 2
        # blows the round-1 compute deadline (forcing snapshot-rollback
        # retry).  The faulted run's comm log must match the per-round
        # uplink of its *successful* attempts only -- which means every
        # non-outage round reports exactly the clean run's bytes, and no
        # round reports more than the clean (3-silo) figure.
        clean_tree = base_tree()
        _, clean_hist, _, _ = networked(clean_tree)

        # ping_timeout exceeds the injected 3s sleep, so the silo answers
        # its liveness ping and the round genuinely *starts* with it --
        # the deadline miss happens mid-compute, forcing the
        # snapshot-rollback retry this regression test is about.
        tree = base_tree(
            round_timeout=2.0, ping_timeout=5.0,
            faults={"events": [
                {"silo": 2, "action": "timeout", "round": 1, "value": 3.0}]},
        )
        server, hist, codes, err = networked(tree)
        assert err is None
        by_round = {p.round: p.silos_seen for p in hist.participation}
        assert by_round[1] == 3  # fault not yet active
        assert by_round[2] == 2  # the retried round ran without silo 2

        clean_up = {c.round: c.uplink_bytes for c in clean_hist.comm}
        faulted_up = {c.round: c.uplink_bytes for c in hist.comm}
        # Round 1 saw all three silos: identical bytes.  Round 2 ran with
        # one silo down after a 3-silo attempt was aborted: strictly
        # fewer bytes than clean, never more (the aborted attempt's
        # uplink must not leak into the rebuilt comm log).
        assert faulted_up[1] == clean_up[1]
        assert 0 < faulted_up[2] < clean_up[2]
        # Silo 2 wakes from its injected sleep mid-run, so round 3 runs
        # with either 2 or 3 silos depending on reconnect timing -- but
        # its logged bytes can never exceed the clean 3-silo figure.
        assert 0 < faulted_up[3] <= clean_up[3]

    def test_aborted_attempt_bytes_land_in_the_ledger(self, tmp_path):
        tree = base_tree(
            round_timeout=2.0, ping_timeout=5.0,
            faults={"events": [
                {"silo": 2, "action": "timeout", "round": 1, "value": 3.0}]},
        )
        tree["obs"] = {"enabled": True, "trace_path": str(tmp_path / "t.jsonl")}
        server, hist, codes, err = networked(tree)
        assert err is None
        ledger = server.retry_ledger
        assert ledger["attempts"] == 1
        # The aborted attempt at least broadcast params to the silos
        # (downlink) and collected some replies before the deadline hit.
        assert ledger["downlink_bytes"] > 0
        assert ledger["uplink_bytes"] > 0
        # /metrics, rendered from the trace, counts the fault once and the
        # aborted attempt as an attempt, not a round.
        state = TraceFold().update(load_trace(tmp_path / "t.jsonl")).state
        lines = render_prometheus(state).splitlines()
        assert f"net_silo_faults_total {ledger['attempts']}" in lines
        assert f"trainer_aborted_rounds_total {ledger['attempts']}" in lines
        assert f"trainer_rounds_total {len(hist.round_seconds)}" in lines

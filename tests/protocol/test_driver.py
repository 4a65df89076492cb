"""The message-schedule driver: its phase clock, its frame log, and the
wire codec every logged frame must survive (Fig. 10/11 instrumentation,
Theorem 5's transcript)."""

import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest
from toy_crypto import TOY_DH_GROUP

from repro.crypto.secagg import MaskedAggregationProtocol
from repro.core.weighting import proportional_weights, subsample_weights
from repro.net.wire import Frame, blob_ints, int_blob, pack_frame, recv_frame
from repro.obs.trace import JsonlTraceRecorder, use_recorder
from repro.protocol import PrivateSubsampler, PrivateWeightingProtocol
from repro.protocol.driver import HOST, SERVER, SILO, Driver, Party

HIST = np.array([[3, 0, 2, 1], [1, 4, 0, 1], [2, 1, 1, 0]])


def read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def bench_metrics():
    """``bench/metrics.py`` (standalone), for its protocol phase tuples."""
    path = Path(__file__).resolve().parents[2] / "bench" / "metrics.py"
    spec = importlib.util.spec_from_file_location("bench_metrics", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Echo(Party):
    """A toy party: silos answer a ping with a pong; the server counts."""

    def __init__(self, fail=False):
        self.fail, self.pongs = fail, []

    def on_ping(self, frame):
        if self.fail:
            raise RuntimeError("boom")
        return [Frame("pong", {}, {"x": np.arange(3)})]

    def on_pong(self, frame):
        self.pongs.append(frame.payload["silo"])


class EchoDriver(Driver):
    def __init__(self, fail=False):
        super().__init__(workers=1)
        self.server = Echo()
        self.silos = [Echo(fail) for _ in range(3)]


PING = (("ping", HOST, SILO, "ping"), ("pong", SILO, SERVER, "pong"))


class TestPhaseClock:
    def test_phase_time_is_its_spans_duration(self, tmp_path):
        driver = EchoDriver()
        recorder = JsonlTraceRecorder(tmp_path / "t.jsonl")
        with use_recorder(recorder):
            for _ in range(2):
                with driver.phase("work"):
                    pass
        recorder.close()
        durs = [r["dur"] for r in read_records(tmp_path / "t.jsonl") if r.get("kind") == "phase"]
        assert len(durs) == 2
        assert driver.seconds["work"] == durs[0] + durs[1]

    def test_schedule_phases_are_kept_apart(self):
        driver = EchoDriver()
        driver.run(PING)
        driver.run(PING)
        assert sorted(driver.report()) == ["ping", "pong"]

    def test_report_returns_copy(self):
        driver = EchoDriver()
        driver.run(PING)
        report = driver.report()
        report["ping"] = 99.0
        assert driver.seconds["ping"] != 99.0

    def test_empty_report(self):
        assert EchoDriver().report() == {}

    def test_phase_records_even_when_a_handler_raises(self, tmp_path):
        driver = EchoDriver(fail=True)
        recorder = JsonlTraceRecorder(tmp_path / "t.jsonl")
        with use_recorder(recorder), pytest.raises(RuntimeError, match="boom"):
            driver.run(PING)
        recorder.close()
        [span] = [r for r in read_records(tmp_path / "t.jsonl") if r.get("kind") == "phase"]
        assert span["attrs"] == {"error": "RuntimeError"}
        assert driver.report() == {"ping": span["dur"]}

    def test_phase_with_nothing_to_deliver_is_skipped(self):
        driver = EchoDriver()
        driver.run(PING + (("idle", SERVER, SILO, "never_sent"),))
        assert "idle" not in driver.report()

    def test_each_phase_opens_one_trace_span(self, tmp_path):
        driver = EchoDriver()
        recorder = JsonlTraceRecorder(tmp_path / "t.jsonl")
        with use_recorder(recorder):
            driver.run(PING)
        recorder.close()
        phases = [r["name"] for r in read_records(tmp_path / "t.jsonl") if r.get("kind") == "phase"]
        assert phases == ["ping", "pong"]


class TestFrameLog:
    def test_log_names_phase_sender_and_receiver(self):
        driver = EchoDriver()
        driver.run(PING, silos=[0, 2])
        assert [(d.phase, d.sender, d.receiver) for d in driver.log] == [
            ("pong", 0, SERVER), ("pong", 2, SERVER)]
        assert driver.server.pongs == [0, 2]
        assert len(driver.received("pong")) == 2

    def test_log_keeps_setup_and_the_latest_round(self):
        proto = PrivateWeightingProtocol(
            HIST, n_max=16, paillier_bits=256, seed=0, dh_group=TOY_DH_GROUP,
            workers=1,
        )
        proto.run_setup()
        setup = list(proto.log)
        lengths = []
        for _ in range(4):
            proto.run_round([{} for _ in range(3)], [np.zeros(2)] * 3)
            lengths.append(len(proto.log))
        assert lengths[0] == lengths[3] > len(setup)
        assert all(a is b for a, b in zip(proto.log, setup))
        assert len(proto.received("seed")) == 2
        assert len(proto.received("masked_histogram")) == 3
        assert len(proto.received("weighted_delta")) == 3


class TestTimingReportNames:
    def test_paillier_phases_are_the_benchs(self):
        metrics = bench_metrics()
        proto = PrivateWeightingProtocol(
            HIST, n_max=16, paillier_bits=256, seed=0, dh_group=TOY_DH_GROUP,
            workers=1,
        )
        proto.run_setup()
        proto.run_round([{} for _ in range(3)], [np.zeros(2)] * 3)
        assert set(proto.report()) == (
            set(metrics.PROTOCOL_SETUP_PHASES) | set(metrics.PROTOCOL_ROUND_PHASES))

    def test_masked_phases_with_a_dropout(self):
        proto = MaskedAggregationProtocol(len(HIST), seed=0, dh_group=TOY_DH_GROUP)
        proto.run_setup()
        proto.run_round([np.ones(2), None, np.ones(2)])
        assert set(proto.report()) == {
            "keygen", "key_exchange", "mask_and_upload", "aggregate",
            "dropout_recovery"}


class _Socket:
    """Just enough of a socket for :func:`recv_frame`."""

    def __init__(self, data: bytes):
        self._buf = io.BytesIO(data)

    def recv(self, n: int) -> bytes:
        return self._buf.read(n)


def assert_codec_roundtrips(log):
    """Every logged frame survives pack_frame -> recv_frame unchanged."""
    assert log
    for delivery in log:
        frame = delivery.frame
        back = recv_frame(_Socket(pack_frame(frame.type, frame.payload, frame.arrays)))
        assert back.type == frame.type
        assert back.payload == frame.payload
        assert back.arrays.keys() == frame.arrays.keys()
        for name, array in frame.arrays.items():
            assert back.arrays[name].dtype == array.dtype
            assert np.array_equal(back.arrays[name], array)


class TestCodec:
    def test_int_blob_roundtrip(self):
        values = [0, 1, 2**255 - 19, 2**256 - 1]
        blob = int_blob(values, 2**256)
        assert blob.dtype == np.uint8 and blob.shape == (4, 32)
        assert blob_ints(blob) == values
        assert blob_ints(int_blob([], 97)) == []

    def test_paillier_setup_round_and_ot_round(self):
        proto = PrivateWeightingProtocol(
            HIST, n_max=16, paillier_bits=256, seed=0, dh_group=TOY_DH_GROUP,
            workers=1,
        )
        proto.run_setup()
        rng = np.random.default_rng(0)
        deltas = [{u: rng.standard_normal(3) for u in range(4) if HIST[s, u]}
                  for s in range(3)]
        noises = [rng.standard_normal(3) for _ in range(3)]
        proto.run_round(deltas, noises, subsample_weights(proportional_weights(HIST), [0, 2]))
        log = list(proto.log)  # the next round drops this one's frames
        sub = PrivateSubsampler(proto.silos[0].shared_seed, n_slots=2)
        proto.run_round_ot_sampling(deltas, noises, sub)
        log += proto.log
        assert {d.frame.type for d in log} == {
            "dh_public", "keys", "seed", "masked_histogram", "weights",
            "weighted_delta", "ot_offer", "ot_choice", "ot_slots"}
        assert_codec_roundtrips(log)

    def test_masked_round_with_a_dropped_silo(self):
        proto = MaskedAggregationProtocol(len(HIST), seed=0, dh_group=TOY_DH_GROUP)
        proto.run_setup()
        proto.run_round([np.ones(2), None, np.ones(2)])
        assert {d.frame.type for d in proto.log} == {
            "dh_public", "keys", "masked_vector", "dropped", "reveal"}
        assert_codec_roundtrips(proto.log)

    def test_object_arrays_still_refused(self):
        from repro.net.wire import WireError

        with pytest.raises(WireError, match="object dtype"):
            pack_frame("x", {}, {"a": np.array([2**300], dtype=object)})

"""Unit coverage for the span recorder (repro.obs.trace)."""

import json
import threading

import numpy as np
import pytest

from repro.obs.trace import (
    NULL_RECORDER,
    TRACE_SCHEMA,
    JsonlTraceRecorder,
    get_recorder,
    set_recorder,
    use_recorder,
)


def read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestNullRecorder:
    def test_default_recorder_is_the_null_recorder(self):
        assert get_recorder() is NULL_RECORDER
        assert NULL_RECORDER.enabled is False

    def test_null_span_times_itself_and_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with NULL_RECORDER.span("x", kind="round", round=1) as span:
            assert span.set(key="value") is span
            assert span.elapsed >= 0.0 and span.dur is None
        assert span.dur >= 0.0
        with NULL_RECORDER.span("y") as other:
            pass
        assert other is not span and other.dur >= 0.0
        assert list(tmp_path.iterdir()) == []

    def test_null_span_does_not_swallow_exceptions(self):
        with pytest.raises(RuntimeError):
            with NULL_RECORDER.span("x"):
                raise RuntimeError("boom")

    def test_event_flush_close_are_noops(self):
        NULL_RECORDER.event("anything", detail=1)
        NULL_RECORDER.flush()
        NULL_RECORDER.close()


class TestJsonlTraceRecorder:
    def test_first_record_is_the_meta_line(self, tmp_path):
        rec = JsonlTraceRecorder(tmp_path / "t.jsonl", run_id="demo")
        rec.close()
        records = read_records(tmp_path / "t.jsonl")
        meta = records[0]
        assert meta["kind"] == "meta"
        assert meta["schema"] == TRACE_SCHEMA
        assert meta["run_id"] == "demo"
        assert meta["sample_rate"] == 1.0
        assert isinstance(meta["pid"], int)

    def test_spans_record_nesting_and_attrs(self, tmp_path):
        rec = JsonlTraceRecorder(tmp_path / "t.jsonl")
        with rec.span("run", kind="run"):
            with rec.span("round", kind="round", round=1) as span:
                span.set(uplink_bytes=128)
        rec.close()
        records = read_records(tmp_path / "t.jsonl")[1:]
        # Spans are written as they *close*: inner first.
        inner, outer = records
        assert inner["name"] == "round" and inner["kind"] == "round"
        assert inner["attrs"] == {"round": 1, "uplink_bytes": 128}
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert inner["dur"] == span.dur >= 0.0 and inner["ts"] > 0.0

    def test_exception_stamps_an_error_attr(self, tmp_path):
        rec = JsonlTraceRecorder(tmp_path / "t.jsonl")
        with pytest.raises(ValueError):
            with rec.span("round", kind="round", round=1):
                raise ValueError("bad round")
        rec.close()
        (record,) = read_records(tmp_path / "t.jsonl")[1:]
        assert record["attrs"]["error"] == "ValueError"

    def test_events_attach_to_the_open_span(self, tmp_path):
        rec = JsonlTraceRecorder(tmp_path / "t.jsonl")
        with rec.span("round", kind="round", round=3):
            rec.event("silo_fault", silo=1, reason="timeout")
        rec.close()
        event, span = read_records(tmp_path / "t.jsonl")[1:]
        assert event["kind"] == "event" and event["name"] == "silo_fault"
        assert event["parent"] == span["id"]
        assert event["attrs"] == {"silo": 1, "reason": "timeout"}

    def test_numpy_attrs_are_coerced_to_json(self, tmp_path):
        rec = JsonlTraceRecorder(tmp_path / "t.jsonl")
        with rec.span("round", kind="round", round=np.int64(2),
                      seconds=np.float64(0.5)):
            pass
        rec.close()
        (record,) = read_records(tmp_path / "t.jsonl")[1:]
        assert record["attrs"] == {"round": 2, "seconds": 0.5}

    def test_append_mode_preserves_earlier_runs(self, tmp_path):
        path = tmp_path / "t.jsonl"
        for _ in range(2):
            rec = JsonlTraceRecorder(path)
            with rec.span("run", kind="run"):
                pass
            rec.close()
        records = read_records(path)
        assert [r["kind"] for r in records] == ["meta", "run", "meta", "run"]

    def test_invalid_sample_rate_rejected(self, tmp_path):
        for rate in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                JsonlTraceRecorder(tmp_path / "t.jsonl", sample_rate=rate)

    def test_round_sampling_is_deterministic_and_partial(self, tmp_path):
        def kept_rounds(path, rate):
            rec = JsonlTraceRecorder(path, sample_rate=rate)
            for t in range(1, 41):
                with rec.span("round", kind="round", round=t):
                    with rec.span("phase", kind="phase"):
                        pass
            rec.close()
            records = read_records(path)[1:]
            return [r["attrs"]["round"] for r in records
                    if r["kind"] == "round"]

        kept_a = kept_rounds(tmp_path / "a.jsonl", 0.25)
        kept_b = kept_rounds(tmp_path / "b.jsonl", 0.25)
        assert kept_a == kept_b  # deterministic in the round number
        assert 0 < len(kept_a) < 40  # genuinely partial

    def test_dropped_round_suppresses_descendants_and_events(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rec = JsonlTraceRecorder(path, sample_rate=0.25)
        dropped = next(
            t for t in range(1, 100)
            if not rec._sampled_round({"round": t}))
        with rec.span("round", kind="round", round=dropped):
            with rec.span("phase", kind="phase"):
                rec.event("silo_fault", silo=0)
        rec.close()
        assert read_records(path)[1:] == []

    def test_non_round_spans_always_kept_under_sampling(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rec = JsonlTraceRecorder(path, sample_rate=0.01)
        with rec.span("checkpoint", kind="phase"):
            pass
        rec.close()
        assert [r["name"] for r in read_records(path)[1:]] == ["checkpoint"]

    def test_threads_get_independent_span_stacks(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rec = JsonlTraceRecorder(path)
        started = threading.Event()

        def worker():
            with rec.span("worker_root", kind="phase"):
                started.set()

        with rec.span("main_root", kind="run"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        rec.close()
        records = {r["name"]: r for r in read_records(path)[1:]}
        # The worker's span is a root, not a child of the main thread's.
        assert records["worker_root"]["parent"] is None
        assert records["main_root"]["parent"] is None

    def test_write_after_close_is_ignored(self, tmp_path):
        rec = JsonlTraceRecorder(tmp_path / "t.jsonl")
        span = rec.span("late", kind="phase")
        span.__enter__()
        rec.close()
        span.__exit__(None, None, None)  # must not raise


class TestUseRecorder:
    def test_installs_and_restores(self, tmp_path):
        rec = JsonlTraceRecorder(tmp_path / "t.jsonl")
        assert get_recorder() is NULL_RECORDER
        with use_recorder(rec) as installed:
            assert installed is rec
            assert get_recorder() is rec
        assert get_recorder() is NULL_RECORDER
        rec.close()

    def test_restores_on_error(self, tmp_path):
        rec = JsonlTraceRecorder(tmp_path / "t.jsonl")
        with pytest.raises(RuntimeError):
            with use_recorder(rec):
                raise RuntimeError("boom")
        assert get_recorder() is NULL_RECORDER
        rec.close()

    def test_set_recorder_none_restores_null(self, tmp_path):
        rec = JsonlTraceRecorder(tmp_path / "t.jsonl")
        set_recorder(rec)
        assert get_recorder() is rec
        set_recorder(None)
        assert get_recorder() is NULL_RECORDER
        rec.close()

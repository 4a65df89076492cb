"""The fold behind ``/metrics``: one record at a time, bounded, and a
view over the trace file.

Properties: folding a record stream in any split equals folding it
whole; the fold's state has the same keys for a 1 000-round stream as
for a 10-round one; and a traced run's live exposition -- what
``GET /metrics`` serves -- is the one rendered from ``load_trace()`` of
its file.  The last run also holds the exposition to the history it
restates: rounds, bytes, and the masked protocol's phase totals.
Unit tests pin what each record kind adds to the state, the exposition's
format, and the recorder and endpoint that serve the fold.
"""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api.runner import run
from repro.api.spec import RunSpec
from repro.obs.httpd import start_metrics_server
from repro.obs.summary import TraceFold, load_trace, render_prometheus
from repro.obs.trace import JsonlTraceRecorder, use_recorder

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

META = {"kind": "meta", "schema": "uldp-fl-trace/v1", "sample_rate": 1.0}
seconds = st.floats(0.0, 10.0, allow_nan=False)
byte_counts = st.integers(0, 1 << 20)
silo_ids = st.integers(0, 3)


def span(kind, name, dur, **attrs):
    return {"kind": kind, "name": name, "dur": dur, "attrs": attrs}


@st.composite
def records(draw):
    """One record of any kind the fold reads."""
    kind = draw(st.sampled_from(
        ["meta", "round", "aborted", "phase", "silo", "shard", "event"]))
    dur = draw(seconds)
    if kind == "meta":
        return dict(META)
    if kind == "round":
        return span("round", "round", dur, round=draw(st.integers(1, 50)),
                    seconds=draw(seconds), uplink_bytes=draw(byte_counts),
                    downlink_bytes=draw(byte_counts))
    if kind == "aborted":
        return span("round", "round", dur, round=1, error="SiloFailure")
    if kind == "phase":
        name = draw(st.sampled_from(["ping", "evaluate", "key_exchange"]))
        attrs = {"uplink_bytes": draw(byte_counts)} if name == "ping" else {}
        if name == "evaluate":
            attrs["epsilon"] = draw(seconds)
        return span("phase", name, dur, **attrs)
    if kind == "silo":
        attrs = {"silo": draw(silo_ids), "downlink_bytes": draw(byte_counts)}
        if draw(st.booleans()):
            attrs["deadline_margin"] = draw(seconds)
        return span("silo", "silo_compute", dur, **attrs)
    if kind == "shard":
        return span("shard", "shard", dur, silo=draw(silo_ids),
                    jobs=draw(st.integers(0, 9)), seconds=draw(seconds))
    name = draw(st.sampled_from(["silo_fault", "sim_release", "handshake_refused"]))
    return {"kind": "event", "name": name, "attrs": {"clock": draw(seconds)}}


def key_paths(value, prefix=()):
    """Every key path of a nested dict (the shape of a fold's state)."""
    if not isinstance(value, dict):
        return {prefix}
    paths = {prefix}
    for key, child in value.items():
        paths |= key_paths(child, prefix + (key,))
    return paths


@given(st.lists(records(), max_size=40), st.lists(st.integers(0, 40), max_size=4))
def test_folding_in_any_split_equals_folding_whole(stream, cuts):
    whole = TraceFold().update(stream)
    split = TraceFold()
    bounds = [0, *sorted(cuts), len(stream)]
    for lo, hi in zip(bounds, bounds[1:]):
        split.update(stream[lo:hi])
    assert split.state == whole.state
    assert render_prometheus(split.state) == render_prometheus(whole.state)


@given(st.lists(records(), min_size=1, max_size=12))
def test_state_keys_do_not_grow_with_the_run(round_records):
    def stream(rounds):
        out = [dict(META)]
        for t in range(1, rounds + 1):
            out.append(span("round", "round", 0.1, round=t, seconds=0.1))
            out.extend(round_records)
        return out

    short, long = TraceFold().update(stream(10)), TraceFold().update(stream(1000))
    assert key_paths(long.state) == key_paths(short.state)


def samples(text):
    """``{sample name with labels: value}`` of a Prometheus exposition."""
    return {name: float(value) for name, value in (
        line.rsplit(" ", 1) for line in text.splitlines()
        if line and not line.startswith("#"))}


#: One record of every kind the fold reads.
EVERY_KIND = [
    META,
    span("round", "round", 0.5, round=1, seconds=0.25,
         uplink_bytes=10, downlink_bytes=20),
    span("round", "round", 0.1, round=2, error="SiloFailure"),
    span("phase", "ping", 0.01, uplink_bytes=3, downlink_bytes=4),
    span("phase", "evaluate", 0.02, epsilon=1.5),
    span("silo", "silo_compute", 0.2, silo=1, deadline_margin=2.0),
    span("silo", "silo_compute", 0.2, silo=1, deadline_margin=3.0),
    span("shard", "shard", 0.3, silo=0, jobs=4, seconds=0.125),
    {"kind": "event", "name": "silo_fault", "attrs": {}},
    {"kind": "event", "name": "sim_release", "attrs": {"clock": 7.5}},
]


def event(name, **attrs):
    return {"kind": "event", "name": name, "attrs": attrs}


class TestFold:
    def test_aborted_round_is_an_attempt_without_seconds_or_bytes(self):
        totals = TraceFold().update([
            span("round", "round", 0.4, round=1, error="SiloFailure",
                 seconds=0.4, uplink_bytes=7, downlink_bytes=9),
        ]).state["totals"]
        assert totals == {"rounds": 0, "aborted_rounds": 1, "round_seconds": 0.0,
                          "uplink_bytes": 0, "downlink_bytes": 0}

    def test_round_seconds_read_the_seconds_attr(self):
        totals = TraceFold().update([
            span("round", "round", 0.9, round=1, seconds=0.25),
            span("round", "round", 0.9, round=2, seconds=0.5),
        ]).state["totals"]
        assert totals["rounds"] == 2
        assert totals["round_seconds"] == 0.75

    def test_round_without_a_seconds_attr_falls_back_to_its_duration(self):
        totals = TraceFold().update(
            [span("round", "round", 0.125, round=1)]).state["totals"]
        assert totals["round_seconds"] == 0.125

    def test_phase_total_count_and_max(self):
        phases = TraceFold().update([
            span("phase", "key_exchange", 0.25),
            span("phase", "key_exchange", 0.5),
            span("phase", "ping", 0.125, uplink_bytes=2, downlink_bytes=3),
            span("phase", "ping", 0.0625, uplink_bytes=5),
        ]).state["phases"]
        assert phases == {
            "key_exchange": {"total": 0.75, "count": 2, "max": 0.5,
                             "uplink_bytes": 0, "downlink_bytes": 0},
            "ping": {"total": 0.1875, "count": 2, "max": 0.125,
                     "uplink_bytes": 7, "downlink_bytes": 3},
        }

    def test_first_meta_record_is_kept_across_appended_runs(self):
        state = TraceFold().update([
            {**META, "run_id": "first"},
            span("round", "round", 0.1, round=1),
            {**META, "run_id": "second"},
            span("round", "round", 0.1, round=1),
        ]).state
        assert state["meta"]["run_id"] == "first"
        assert state["totals"]["rounds"] == 2

    def test_silo_margins_keep_count_sum_and_tightest(self):
        silos = TraceFold().update([
            span("silo", "silo_compute", 0.5, silo=2, deadline_margin=3.0,
                 uplink_bytes=4),
            span("silo", "silo_compute", 0.25, silo=2, deadline_margin=1.5,
                 downlink_bytes=6),
            span("silo", "silo_compute", 0.25, silo=2),
        ]).state["silos"]
        assert silos == {"2": {
            "count": 3, "seconds": 1.0, "uplink_bytes": 4, "downlink_bytes": 6,
            "min_deadline_margin": 1.5, "margin_count": 2, "margin_sum": 4.5,
        }}

    def test_silo_ids_are_keyed_as_strings(self):
        silos = TraceFold().update([
            span("silo", "silo_compute", 0.1, silo=1),
            span("silo", "silo_compute", 0.1, silo="1"),
            span("silo", "silo_compute", 0.1),
        ]).state["silos"]
        assert sorted(silos) == ["1", "?"]
        assert silos["1"]["count"] == 2

    def test_shard_seconds_read_the_kernel_attr_before_the_duration(self):
        shards = TraceFold().update([
            span("shard", "shard", 0.9, silo=0, jobs=3, seconds=0.25),
            span("shard", "shard", 0.5, silo=0, jobs=2),
            span("shard", "shard", 0.9, silo=1, seconds=0.125),
        ]).state["shards"]
        assert shards == {
            "0": {"count": 2, "jobs": 5, "seconds": 0.75, "max": 0.5},
            "1": {"count": 1, "jobs": 0, "seconds": 0.125, "max": 0.125},
        }

    def test_sim_clock_is_the_last_release(self):
        state = TraceFold().update([
            event("sim_release", clock=2.0),
            event("sim_release", clock=5.5),
            event("silo_fault", clock=9.0),
        ]).state
        assert state["sim_clock"] == 5.5
        assert state["events"] == {"sim_release": 2, "silo_fault": 1}

    def test_epsilon_is_the_last_evaluation_that_carries_one(self):
        state = TraceFold().update([
            span("phase", "evaluate", 0.1, epsilon=0.5),
            span("phase", "evaluate", 0.1, epsilon=1.25),
            span("phase", "evaluate", 0.1),
            span("phase", "aggregate", 0.1, epsilon=9.0),
        ]).state
        assert state["epsilon"] == 1.25

    def test_every_event_name_is_counted(self):
        events = TraceFold().update([
            event("retry"), event("retry"), event("quorum_abort"),
            {"kind": "event", "attrs": None},
        ]).state["events"]
        assert events == {"retry": 2, "quorum_abort": 1, "?": 1}

    def test_other_kinds_and_missing_fields_leave_the_aggregates_alone(self):
        fold = TraceFold().update([
            span("run", "run", 3.0), span("span", "setup", 1.0),
            {"kind": "round", "attrs": None},
            {"kind": "phase", "name": "checkpoint"},
            {"name": "no-kind"},
        ])
        state = fold.state
        assert state["totals"]["rounds"] == 1
        assert state["totals"]["round_seconds"] == 0.0
        assert state["phases"]["checkpoint"]["count"] == 1
        assert state["phases"]["checkpoint"]["total"] == 0.0
        assert set(state["phases"]) == {"checkpoint"}
        assert state["events"] == {} and state["silos"] == {}

    @given(st.lists(records(), max_size=30))
    def test_state_is_plain_json(self, stream):
        state = TraceFold().update(stream).state
        assert json.loads(json.dumps(state)) == state


class TestExposition:
    def test_families_read_their_spans_and_events(self):
        state = TraceFold().update(EVERY_KIND).state
        text = render_prometheus(state)
        assert "# TYPE trainer_rounds_total counter" in text
        assert "# TYPE net_deadline_margin_seconds summary" in text
        assert text.endswith("\n")
        assert samples(text) == {
            "trainer_rounds_total": 1,
            "trainer_aborted_rounds_total": 1,
            "trainer_round_seconds_sum": 0.25,
            "trainer_round_seconds_count": 1,
            "comm_uplink_bytes_total": 10,
            "comm_downlink_bytes_total": 20,
            'protocol_phase_seconds{phase="evaluate"}': 0.02,
            'protocol_phase_seconds{phase="ping"}': 0.01,
            'phase_uplink_bytes_total{phase="ping"}': 3,
            'phase_downlink_bytes_total{phase="ping"}': 4,
            'net_deadline_margin_seconds{quantile="0",silo="1"}': 2.0,
            'net_deadline_margin_seconds_sum{silo="1"}': 5.0,
            'net_deadline_margin_seconds_count{silo="1"}': 2,
            'net_silo_uplink_bytes_total{silo="1"}': 0,
            'net_silo_downlink_bytes_total{silo="1"}': 0,
            'engine_shard_seconds_sum{silo="0"}': 0.125,
            'engine_shard_seconds_count{silo="0"}': 1,
            "net_handshakes_refused_total": 0,
            "net_silo_faults_total": 1,
            "sim_releases_total": 1,
            "sim_clock_seconds": 7.5,
            "privacy_epsilon_spent": 1.5,
        }

    def test_label_values_escaped(self):
        state = TraceFold().update([span("phase", 'a"b\\c\nd', 1.0)]).state
        assert r'phase="a\"b\\c\nd"' in render_prometheus(state)

    def test_each_family_is_declared_once_before_its_samples(self):
        lines = render_prometheus(TraceFold().update(EVERY_KIND).state).splitlines()
        declared: list[str] = []
        for i, line in enumerate(lines):
            if line.startswith("# HELP "):
                name = line.split()[2]
                assert lines[i + 1].startswith(f"# TYPE {name} ")
                declared.append(name)
            elif not line.startswith("#"):
                sample = line.split("{")[0].split()[0]
                family = declared[-1]
                assert sample == family or sample in (
                    family + "_sum", family + "_count"), line
        assert len(declared) == len(set(declared))

    def test_empty_fold_serves_only_the_zero_counters(self):
        assert samples(render_prometheus(TraceFold().state)) == {
            "trainer_rounds_total": 0,
            "trainer_aborted_rounds_total": 0,
            "trainer_round_seconds_sum": 0.0,
            "trainer_round_seconds_count": 0,
            "comm_uplink_bytes_total": 0,
            "comm_downlink_bytes_total": 0,
            "net_handshakes_refused_total": 0,
            "net_silo_faults_total": 0,
            "sim_releases_total": 0,
        }

    def test_counts_render_as_integers_and_seconds_as_floats(self):
        text = render_prometheus(TraceFold().update([
            span("round", "round", 1.0, round=1, seconds=1.0, uplink_bytes=5),
        ]).state)
        assert "\ntrainer_rounds_total 1\n" in text
        assert "\ncomm_uplink_bytes_total 5\n" in text
        assert "\ntrainer_round_seconds_sum 1.0\n" in text

    def test_non_finite_values_use_the_prometheus_spelling(self):
        state = TraceFold().update([
            span("phase", "a", float("inf")), span("phase", "b", float("-inf")),
            span("phase", "c", float("nan")),
        ]).state
        text = render_prometheus(state)
        assert 'protocol_phase_seconds{phase="a"} +Inf' in text
        assert 'protocol_phase_seconds{phase="b"} -Inf' in text
        assert 'protocol_phase_seconds{phase="c"} NaN' in text

    def test_phase_bytes_only_for_phases_that_moved_bytes(self):
        got = samples(render_prometheus(TraceFold().update([
            span("phase", "ping", 0.1, downlink_bytes=8),
            span("phase", "evaluate", 0.1),
        ]).state))
        assert {k: v for k, v in got.items() if k.startswith("phase_")} == {
            'phase_uplink_bytes_total{phase="ping"}': 0,
            'phase_downlink_bytes_total{phase="ping"}': 8,
        }

    def test_silo_without_a_margin_has_bytes_but_no_margin_samples(self):
        got = samples(render_prometheus(TraceFold().update([
            span("silo", "silo_compute", 0.1, silo=0, uplink_bytes=12),
        ]).state))
        assert got['net_silo_uplink_bytes_total{silo="0"}'] == 12
        assert not [k for k in got if k.startswith("net_deadline_margin")]


class TestRecorderFold:
    def test_recorder_folds_what_it_writes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = JsonlTraceRecorder(path)
        with recorder.span("round", kind="round", round=1) as round_span:
            with recorder.span("collect", kind="phase"):
                with recorder.span("silo_compute", kind="silo", silo=0,
                                   uplink_bytes=3, deadline_margin=0.5):
                    recorder.event("silo_fault", silo=0)
            round_span.set(seconds=0.5, uplink_bytes=3)
        with pytest.raises(RuntimeError):
            with recorder.span("round", kind="round", round=2):
                raise RuntimeError("boom")
        recorder.close()
        state = recorder.metrics()
        assert state == TraceFold().update(load_trace(path)).state
        assert state["totals"]["rounds"] == 1
        assert state["totals"]["aborted_rounds"] == 1
        assert state["events"] == {"silo_fault": 1}

    def test_metrics_is_a_copy(self, tmp_path):
        recorder = JsonlTraceRecorder(tmp_path / "t.jsonl")
        snapshot = recorder.metrics()
        snapshot["totals"]["rounds"] = 99
        assert recorder.metrics()["totals"]["rounds"] == 0
        recorder.close()

    def test_sampled_recorder_folds_only_the_rounds_it_keeps(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = JsonlTraceRecorder(path, sample_rate=0.25)
        for t in range(1, 41):
            with recorder.span("round", kind="round", round=t, seconds=1.0):
                with recorder.span("evaluate", kind="phase"):
                    pass
        recorder.close()
        kept = [r for r in load_trace(path) if r["kind"] == "round"]
        state = recorder.metrics()
        assert 0 < len(kept) < 40
        assert state["totals"]["rounds"] == len(kept)
        assert state["phases"]["evaluate"]["count"] == len(kept)

    def test_numpy_float32_attr_folds_as_the_file_reads_it(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = JsonlTraceRecorder(path)
        with recorder.span("silo_compute", kind="silo", silo=np.int64(0),
                           deadline_margin=np.float32(0.75)):
            pass
        recorder.close()
        (record,) = load_trace(path)[1:]
        assert record["attrs"]["deadline_margin"] == 0.75
        assert recorder.metrics() == TraceFold().update(load_trace(path)).state
        assert json.dumps(recorder.metrics())

    def test_endpoint_serves_the_fold_and_404s_elsewhere(self, tmp_path):
        recorder = JsonlTraceRecorder(tmp_path / "t.jsonl")
        with recorder.span("round", kind="round", round=1, seconds=0.5):
            pass
        with start_metrics_server(0, recorder) as server:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(base + "/metrics?ignored=1") as resp:
                body = resp.read()
                assert resp.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4")
                assert int(resp.headers["Content-Length"]) == len(body)
            with urllib.request.urlopen(base + "/metrics.json") as resp:
                assert resp.headers["Content-Type"] == "application/json"
                served = json.loads(resp.read().decode())
            for route in ("/", "/metricsx", "/trace.jsonl"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(base + route)
                assert err.value.code == 404, route
        recorder.close()
        assert body.decode() == render_prometheus(recorder.metrics())
        assert served == recorder.metrics()
        assert samples(body.decode())["trainer_rounds_total"] == 1


def test_live_exposition_is_the_file_exposition(tmp_path):
    """A traced masked run: ``/metrics`` and ``/metrics.json`` serve the
    fold of the file, and the fold restates the history exactly."""
    path = tmp_path / "trace.jsonl"
    recorder = JsonlTraceRecorder(path)
    with use_recorder(recorder), start_metrics_server(0, recorder) as server:
        result = run(RunSpec.from_dict({
            "rounds": 2, "seed": 0,
            "dataset": {"users": 8, "silos": 2, "records": 120},
            "method": {"name": "secure-uldp-avg", "local_epochs": 1},
            "crypto": {"backend": "masked"},
        }))
        base = f"http://127.0.0.1:{server.port}"
        with urllib.request.urlopen(base + "/metrics") as resp:
            assert "text/plain" in resp.headers["Content-Type"]
            live = resp.read().decode()
        with urllib.request.urlopen(base + "/metrics.json") as resp:
            live_state = json.loads(resp.read().decode())
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(base + "/nope")
        assert err.value.code == 404
    recorder.close()

    state = TraceFold().update(load_trace(path)).state
    assert live == render_prometheus(state)
    assert live_state == state

    history, got = result.history, samples(live)
    assert got["trainer_rounds_total"] == len(history.round_seconds) == 2
    assert got["trainer_round_seconds_sum"] == sum(history.round_seconds)
    assert got["comm_uplink_bytes_total"] == history.total_uplink_bytes
    assert got["comm_downlink_bytes_total"] == history.total_downlink_bytes
    assert got["privacy_epsilon_spent"] == history.records[-1].epsilon
    phases = history.phase_seconds
    assert phases
    for name, total in phases.items():
        assert got[f'protocol_phase_seconds{{phase="{name}"}}'] == total, name

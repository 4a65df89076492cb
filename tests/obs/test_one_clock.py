"""One clock per region: a round's seconds and a protocol phase's seconds
are read off the trace span that brackets them, not off a stopwatch
beside it.

Under a JSONL recorder, every ``round`` span's ``seconds`` attr is the
history's ``round_seconds`` entry for that round, and every protocol
phase's summed span ``dur`` is ``timing_report()``'s total for it -- the
same floats, so ``==`` and not ``approx``.
"""

import json

from repro.api.runner import run
from repro.api.spec import RunSpec


def traced(tmp_path, tree):
    path = tmp_path / "trace.jsonl"
    tree = {**tree, "obs": {"enabled": True, "trace_path": str(path)}}
    result = run(RunSpec.from_dict(tree))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return result, records


def assert_round_spans_are_the_round_seconds(history, records):
    rounds = [r for r in records if r.get("kind") == "round"]
    assert [r["attrs"]["round"] for r in rounds] == list(
        range(1, len(history.round_seconds) + 1))
    assert [r["attrs"]["seconds"] for r in rounds] == history.round_seconds
    # Evaluation stays inside the round span, after the round's own work.
    assert all(r["attrs"]["seconds"] <= r["dur"] for r in rounds)


def test_masked_secure_round_and_phase_spans_are_the_history(tmp_path):
    result, records = traced(tmp_path, {
        "rounds": 2, "seed": 0,
        "dataset": {"users": 8, "silos": 2, "records": 120},
        "method": {"name": "secure-uldp-avg", "local_epochs": 1},
        "crypto": {"backend": "masked"},
    })
    history = result.history
    assert_round_spans_are_the_round_seconds(history, records)
    phases = history.phase_seconds
    assert phases
    for name, total in phases.items():
        durs = [r["dur"] for r in records
                if r.get("kind") == "phase" and r["name"] == name]
        assert durs and sum(durs) == total, name


def test_buffered_async_release_spans_are_the_history(tmp_path):
    result, records = traced(tmp_path, {
        "seed": 1, "sim": {"scenario": "async-fedbuff", "scale": "smoke"},
    })
    history = result.history
    assert history.round_seconds
    assert_round_spans_are_the_round_seconds(history, records)
    assert all(r["attrs"]["external"] for r in records if r.get("kind") == "round")

"""End-to-end instrumentation: [obs] through the run() entrypoint.

The two acceptance properties of the observability PR:

1. **Disabled is invisible** -- with ``[obs]`` absent (the default) a
   run's history is bit-identical to the same spec with tracing on: the
   recorder consumes no RNG and touches no numerics.
2. **Enabled is faithful** -- the trace file reports every round with
   nonzero durations, and its byte attributes agree exactly with the
   history's ``CommRecord`` log.
"""

import json

import pytest

from repro.api.runner import resolve_trace_path, run
from repro.api.spec import RunSpec
from repro.cli import main
from repro.obs import trace
from repro.obs.summary import load_trace, summarize
from repro.report import history_to_dict


def train_tree(**extra) -> dict:
    tree = {
        "name": "obs-oracle",
        "rounds": 2,
        "seed": 0,
        "dataset": {"users": 8, "silos": 2, "records": 120},
        "method": {"local_epochs": 1},
    }
    tree.update(extra)
    return tree


def obs_tree(tmp_path, **extra) -> dict:
    obs = {"enabled": True, "trace_path": str(tmp_path / "trace.jsonl")}
    obs.update(extra)
    return obs


def strip_volatile(history) -> dict:
    data = history_to_dict(history)
    data.pop("spec", None)  # differs by the [obs] section itself
    data.pop("spec_hash", None)
    return data


class TestDisabledIsInvisible:
    def test_traced_run_is_bit_identical_to_untraced(self, tmp_path):
        plain = run(RunSpec.from_dict(train_tree()))
        traced = run(RunSpec.from_dict(
            train_tree(obs=obs_tree(tmp_path))))
        assert strip_volatile(plain.history) == strip_volatile(traced.history)

    def test_obs_section_does_not_change_the_spec_hash(self, tmp_path):
        plain = RunSpec.from_dict(train_tree())
        traced = RunSpec.from_dict(train_tree(obs=obs_tree(tmp_path)))
        assert plain.hash() == traced.hash()

    def test_disabled_obs_writes_no_trace_and_keeps_no_metrics(
            self, tmp_path, monkeypatch):
        """No trace file, and no fold: a disabled run has no metric state."""
        folds, fold = [], trace.TraceFold
        monkeypatch.setattr(trace, "TraceFold",
                            lambda: folds.append(fold()) or folds[-1])
        tree = train_tree(obs={"enabled": False,
                               "trace_path": str(tmp_path / "t.jsonl")})
        run(RunSpec.from_dict(tree))
        assert not (tmp_path / "t.jsonl").exists()
        assert folds == []


class TestEnabledIsFaithful:
    @pytest.fixture
    def traced(self, tmp_path):
        spec = RunSpec.from_dict(train_tree(obs=obs_tree(tmp_path)))
        result = run(spec)
        return result, tmp_path / "trace.jsonl"

    def test_every_round_appears_with_nonzero_duration(self, traced):
        result, path = traced
        s = summarize(load_trace(path))
        assert sorted(s["rounds"]) == [1, 2]
        for entry in s["rounds"].values():
            assert entry["dur"] > 0.0

    def test_round_bytes_match_the_history_comm_log(self, traced):
        result, path = traced
        s = summarize(load_trace(path))
        for comm in result.history.comm:
            entry = s["rounds"][comm.round]
            assert entry["uplink_bytes"] == comm.uplink_bytes
            assert entry["downlink_bytes"] == comm.downlink_bytes
            assert comm.uplink_bytes > 0

    def test_run_span_carries_spec_identity(self, traced):
        result, path = traced
        records = load_trace(path)
        (run_span,) = [r for r in records if r.get("kind") == "run"]
        assert run_span["attrs"]["spec_name"] == "obs-oracle"
        assert run_span["attrs"]["spec_hash"] == result.spec_hash

    def test_trace_summary_cli_exits_zero(self, traced, capsys):
        _, path = traced
        assert main(["trace", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "per round" in out

    def test_sample_rate_thins_round_spans(self, tmp_path):
        spec = RunSpec.from_dict(train_tree(
            rounds=8, obs=obs_tree(tmp_path, sample_rate=0.25)))
        run(spec)
        s = summarize(load_trace(tmp_path / "trace.jsonl"))
        assert 0 < len(s["rounds"]) < 8

    def test_simulation_run_traces_rounds_and_releases(self, tmp_path):
        tree = {
            "name": "obs-sim",
            "seed": 1,
            "sim": {"scenario": "ideal-sync", "scale": "smoke"},
            "obs": obs_tree(tmp_path),
        }
        run(RunSpec.from_dict(tree))
        records = load_trace(tmp_path / "trace.jsonl")
        kinds = {r["kind"] for r in records}
        assert "round" in kinds
        assert any(r.get("name") == "sim_release" for r in records
                   if r["kind"] == "event")


class TestResolveTracePath:
    def test_explicit_path_wins(self, tmp_path):
        spec = RunSpec.from_dict(train_tree(
            obs={"enabled": True, "trace_path": str(tmp_path / "x.jsonl")}))
        assert str(resolve_trace_path(spec)) == str(tmp_path / "x.jsonl")

    def test_defaults_next_to_checkpoints(self, tmp_path):
        tree = {
            "name": "obs-ckpt",
            "sim": {"scenario": "ideal-sync", "scale": "smoke",
                    "checkpoint_dir": str(tmp_path / "ckpt")},
            "obs": {"enabled": True},
        }
        spec = RunSpec.from_dict(tree)
        assert str(resolve_trace_path(spec)) == str(
            tmp_path / "ckpt" / "trace.jsonl")


def test_obs_spec_toml_roundtrip(tmp_path):
    toml = tmp_path / "spec.toml"
    toml.write_text(
        'name = "obs-toml"\n'
        "rounds = 1\n"
        "[dataset]\nusers = 6\nsilos = 2\nrecords = 80\n"
        "[obs]\nenabled = true\nsample_rate = 0.5\nmetrics_port = 9100\n"
    )
    from repro.api.spec import load_spec_tree

    spec = RunSpec.from_dict(load_spec_tree(str(toml)))
    assert spec.obs is not None
    assert spec.obs.enabled is True
    assert spec.obs.sample_rate == 0.5
    assert spec.obs.metrics_port == 9100
    # Round-trips through to_dict/from_dict unchanged.
    again = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again.obs == spec.obs

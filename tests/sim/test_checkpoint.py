"""Bit-identical checkpoint/resume tests (the acceptance-criterion suite).

A simulation killed at round k and resumed from its checkpoint must match
an uninterrupted run's final params, history, and accountant state
*exactly* -- not approximately.  Every assertion here is exact equality.
"""

import json

import numpy as np
import pytest

from repro.api import RunSpec, run
from repro.api.runner import build_simulator, checkpoint_extra
from repro.sim import (
    CheckpointError,
    load_checkpoint,
    resume_simulator,
    save_checkpoint,
)
from repro.sim.scenarios import run_simulator_with_checkpoints

#: The scenarios covering every state machine: carryover gains, async
#: pending buffers, churned populations, and plain sync.
SCENARIOS = ["ideal-sync", "carryover-makeup", "async-fedbuff", "user-churn"]


def smoke_spec(scenario, seed, **sim):
    """The scenario at smoke scale under its canonical method."""
    return RunSpec.from_dict(
        {"seed": seed, "sim": {"scenario": scenario, "scale": "smoke", **sim}})


def run_smoke(scenario, seed, **sim):
    """A finished smoke-scale run of ``scenario`` (its simulator)."""
    return run(smoke_spec(scenario, seed, **sim)).simulator


def continue_from(path):
    """Resume ``path`` and finish the run, snapshotting back into it."""
    sim, extra = resume_simulator(str(path))
    run_simulator_with_checkpoints(sim, str(path), None, extra=extra)
    return sim


def assert_identical(a, b):
    """Full bit-identity of two finished simulators."""
    assert np.array_equal(a.trainer.params, b.trainer.params)
    assert a.history.records == b.history.records
    assert a.history.participation == b.history.participation
    assert a.round_log == b.round_log
    assert np.array_equal(a.method.accountant._rhos, b.method.accountant._rhos)
    assert a.method.accountant.history == b.method.accountant.history
    assert a.method.accountant.releases == b.method.accountant.releases
    assert a.trainer.rng.bit_generator.state == b.trainer.rng.bit_generator.state
    assert a.sim_rng.bit_generator.state == b.sim_rng.bit_generator.state


class TestKillAndResume:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_killed_at_round_k_resumes_bit_identically(self, scenario, tmp_path):
        uninterrupted = run_smoke(scenario, seed=9)

        spec = smoke_spec(scenario, seed=9)
        killed = build_simulator(spec)
        killed.run(stop_after=1)  # "crash" after the first release
        save_checkpoint(tmp_path, killed, extra=checkpoint_extra(spec))
        resumed = continue_from(tmp_path)
        assert resumed.done
        assert_identical(uninterrupted, resumed)

    def test_checkpoint_every_round_still_identical(self, tmp_path):
        uninterrupted = run_smoke("flaky-silos", seed=2)
        checkpointed = run_smoke(
            "flaky-silos", seed=2,
            checkpoint_dir=str(tmp_path), checkpoint_every=1,
        )
        assert_identical(uninterrupted, checkpointed)
        # The final snapshot on disk restores to the same end state too.
        resumed, extra = resume_simulator(str(tmp_path))
        assert extra["spec"]["sim"]["scenario"] == "flaky-silos"
        assert resumed.done
        assert_identical(uninterrupted, resumed)

    def test_double_kill_chain(self, tmp_path):
        """Crash twice (after rounds 1 and 2); the chain still matches."""
        uninterrupted = run_smoke("carryover-makeup", seed=5)

        spec = smoke_spec("carryover-makeup", seed=5)
        sim = build_simulator(spec)
        extra = checkpoint_extra(spec)
        sim.run(stop_after=1)
        save_checkpoint(tmp_path, sim, extra=extra)
        second, _ = resume_simulator(str(tmp_path))
        second.run(stop_after=2)
        save_checkpoint(tmp_path, second, extra=extra)
        final = continue_from(tmp_path)
        assert_identical(uninterrupted, final)


class TestCheckpointFormat:
    def test_schema_validated(self, tmp_path):
        sim = build_simulator(smoke_spec("ideal-sync", seed=0))
        save_checkpoint(tmp_path, sim)
        (tmp_path / "state.json").write_text('{"schema": "bogus"}')
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path)

    def test_resume_requires_scenario_metadata(self, tmp_path):
        sim = build_simulator(smoke_spec("ideal-sync", seed=0))
        save_checkpoint(tmp_path, sim)  # no extra payload
        with pytest.raises(ValueError):
            resume_simulator(str(tmp_path))

    def test_snapshots_are_versioned_and_pruned(self, tmp_path):
        spec = smoke_spec("ideal-sync", seed=0)
        extra = checkpoint_extra(spec)
        sim = build_simulator(spec)
        sim.run(stop_after=1)
        save_checkpoint(tmp_path, sim, extra=extra)
        sim.run(stop_after=2)
        save_checkpoint(tmp_path, sim, extra=extra)
        npz = list(tmp_path.glob("arrays-*.npz"))
        # Only the latest arrays file survives, and state.json points at it.
        assert [p.name for p in npz] == ["arrays-00000002.npz"]
        resumed, _ = resume_simulator(str(tmp_path))
        assert resumed.rounds_completed == 2

    def test_truncated_arrays_file_refused(self, tmp_path):
        """A half-written npz (torn download, full disk) must not resume."""
        sim = build_simulator(smoke_spec("ideal-sync", seed=0))
        sim.run(stop_after=1)
        save_checkpoint(tmp_path, sim, extra={"scenario": "ideal-sync"})
        blob = tmp_path / "arrays-00000001.npz"
        blob.write_bytes(blob.read_bytes()[: blob.stat().st_size // 2])
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            load_checkpoint(tmp_path)
        # CheckpointError is a ValueError: existing callers' handling holds.
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path)

    def test_flipped_payload_byte_fails_digest(self, tmp_path):
        """Bit rot inside the npz is caught even when the zip still opens."""
        sim = build_simulator(smoke_spec("ideal-sync", seed=0))
        sim.run(stop_after=1)
        save_checkpoint(tmp_path, sim, extra={"scenario": "ideal-sync"})
        meta = json.loads((tmp_path / "state.json").read_text())
        # Tamper with a recorded digest: the (intact) npz no longer matches
        # state.json, which is indistinguishable from a corrupted payload.
        key = next(iter(meta["array_digests"]))
        meta["array_digests"][key] = "0" * 64
        (tmp_path / "state.json").write_text(json.dumps(meta))
        with pytest.raises(CheckpointError, match="SHA-256 digest"):
            load_checkpoint(tmp_path)

    def test_missing_array_refused(self, tmp_path):
        sim = build_simulator(smoke_spec("ideal-sync", seed=0))
        sim.run(stop_after=1)
        save_checkpoint(tmp_path, sim, extra={"scenario": "ideal-sync"})
        meta = json.loads((tmp_path / "state.json").read_text())
        meta["array_digests"]["ghost"] = "0" * 64
        (tmp_path / "state.json").write_text(json.dumps(meta))
        with pytest.raises(CheckpointError, match="does not contain"):
            load_checkpoint(tmp_path)

    def test_missing_digest_manifest_refused(self, tmp_path):
        """Deleting one key must not turn every SHA-256 check off: nothing
        else is corrupted, and the load still refuses."""
        sim = build_simulator(smoke_spec("ideal-sync", seed=0))
        sim.run(stop_after=1)
        save_checkpoint(tmp_path, sim, extra={"scenario": "ideal-sync"})
        meta = json.loads((tmp_path / "state.json").read_text())
        del meta["array_digests"]
        (tmp_path / "state.json").write_text(json.dumps(meta))
        with pytest.raises(CheckpointError, match="array_digests"):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("schema", ["uldp-fl-checkpoint/v0", None])
    def test_unknown_schema_is_a_checkpoint_error(self, tmp_path, schema):
        sim = build_simulator(smoke_spec("ideal-sync", seed=0))
        save_checkpoint(tmp_path, sim, extra={"scenario": "ideal-sync"})
        meta = json.loads((tmp_path / "state.json").read_text())
        meta["schema"] = schema
        (tmp_path / "state.json").write_text(json.dumps(meta))
        with pytest.raises(CheckpointError, match="unknown schema"):
            load_checkpoint(tmp_path)

    def test_corrupt_state_json_refused(self, tmp_path):
        sim = build_simulator(smoke_spec("ideal-sync", seed=0))
        sim.run(stop_after=1)
        save_checkpoint(tmp_path, sim, extra={"scenario": "ideal-sync"})
        state = tmp_path / "state.json"
        state.write_text(state.read_text()[:-40])
        with pytest.raises(CheckpointError, match="state.json"):
            load_checkpoint(tmp_path)

    def test_digests_recorded_and_verified_on_clean_load(self, tmp_path):
        sim = build_simulator(smoke_spec("ideal-sync", seed=0))
        sim.run(stop_after=1)
        save_checkpoint(tmp_path, sim, extra={"scenario": "ideal-sync"})
        meta = json.loads((tmp_path / "state.json").read_text())
        assert meta["array_digests"]  # manifest present...
        state, _ = load_checkpoint(tmp_path)  # ...and verifies cleanly
        fresh = build_simulator(smoke_spec("ideal-sync", seed=0))
        fresh.load_state(state)
        assert np.array_equal(fresh.trainer.params, sim.trainer.params)

    def test_state_dict_roundtrips_through_disk(self, tmp_path):
        sim = build_simulator(smoke_spec("async-fedbuff", seed=1))
        sim.run(stop_after=2)
        save_checkpoint(tmp_path, sim, extra={"scenario": "async-fedbuff"})
        state, extra = load_checkpoint(tmp_path)
        assert extra == {"scenario": "async-fedbuff"}
        fresh = build_simulator(smoke_spec("async-fedbuff", seed=1))
        fresh.load_state(state)
        assert np.array_equal(fresh.trainer.params, sim.trainer.params)
        assert fresh.rounds_completed == 2
        assert len(fresh._pending) == len(sim._pending)
        for a, b in zip(fresh._pending, sim._pending):
            assert a.silo == b.silo and a.finish == b.finish
            assert np.array_equal(a.payload, b.payload)

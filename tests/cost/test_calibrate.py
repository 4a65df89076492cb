"""Calibration: fitting, persistence round-trip, and the drift gate."""

import json
from pathlib import Path

import pytest

from repro.cost.calibrate import (
    DEFAULT_CALIBRATION_PATH,
    MIN_FIT_SECONDS,
    Calibration,
    CalibrationError,
    byte_check_rows,
    drift_rows,
    fit_calibration,
    load_benches,
    load_calibration,
)
from repro.cost.model import CONSTANT_DEFS

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: src/repro/cost/calibration.json as committed at 116e346 (the last commit
#: whose cost model carried the reference backend), except the constants
#: ``BENCH_protocol.json`` feeds: those (``paillier_*``, ``masked_*``) were
#: re-fitted when the weighting kernel's exponent was split and its
#: one-constant ``paillier_encrypt`` became ``_pair`` + ``_coord``, and
#: ``population_memory``, which went when the simulator's user population
#: became one ``np.bool_`` per user (exactly ``P`` bytes, nothing to fit).
#: ``masked_setup`` and ``masked_round`` were re-fitted once more when a
#: masked silo began masking its own release in Z_{2^64} (the bench's
#: masked fields re-recorded, its headline round timed 20 times over).
#: The constants ``BENCH_engine.json`` and ``BENCH_sim.json`` feed
#: (``train_record_cnn``, ``train_user_cnn``, ``sim_record``,
#: ``churn_user``) were re-fitted once more when those benches were
#: re-recorded on a 2-vCPU host (the CNN constants had drifted 3-8x
#: below what the engine had become).  Every other constant is still
#: that commit's, bit for bit.
PARENT_CONSTANTS = {
    "churn_user": 3.234135508334172e-09,
    "engine_shard_memory": 1.1468121810964402,
    "masked_round": 1.904296875e-08,
    "masked_setup": 0.00026733000833322975,
    "paillier_decrypt": 3.5983578308163435e-12,
    "paillier_encrypt_coord": 2.367524118447614e-11,
    "paillier_encrypt_pair": 8.899553721417695e-12,
    "paillier_keygen": 1.2398258062567663e-10,
    "paillier_misc_base": 0.0029835311828852926,
    "paillier_misc_silo_user": 4.0154697248347765e-05,
    "paillier_offline": 1.3440850124300336e-11,
    "sim_record": 5.194063888731882e-09,
    "train_record_cnn": 7.844560083366052e-09,
    "train_record_dense": 8.255629059588106e-08,
    "train_user_cnn": 1.3866730284640733e-08,
}


@pytest.fixture(scope="module")
def committed() -> Calibration:
    return load_calibration()


@pytest.fixture(scope="module")
def benches() -> dict:
    return load_benches(REPO_ROOT)


class TestFit:
    def test_refit_reproduces_committed_constants(self, committed):
        """Fitting from the committed benches is deterministic and matches
        the committed calibration.json (the CI drift gate's baseline)."""
        fresh, groups = fit_calibration(REPO_ROOT)
        assert set(fresh.constants) == set(committed.constants)
        for name, value in committed.constants.items():
            assert fresh.constants[name] == pytest.approx(value, rel=1e-9), name
        assert groups  # at least one fit group contributed

    def test_every_constant_is_registered(self, committed):
        for name in committed.constants:
            assert name in CONSTANT_DEFS

    def test_survivors_bit_identical_to_parent(self, committed):
        """Fits are per group, so dropping the reference groups must not
        move any other constant by a single bit."""
        assert committed.constants == PARENT_CONSTANTS
        assert set(CONSTANT_DEFS) == set(PARENT_CONSTANTS)

    def test_constants_positive(self, committed):
        for name, value in committed.constants.items():
            assert value >= 0, name


class TestRoundTrip:
    def test_save_load_bit_exact(self, committed, tmp_path):
        out = tmp_path / "calibration.json"
        committed.save(out)
        reloaded = load_calibration(out)
        assert reloaded.constants == committed.constants
        assert reloaded.schema == committed.schema
        # Byte-for-byte stable: saving the reloaded object changes nothing.
        again = tmp_path / "again.json"
        reloaded.save(again)
        assert again.read_bytes() == out.read_bytes()

    def test_committed_file_round_trips(self, committed, tmp_path):
        """The committed calibration.json is exactly what save() writes."""
        out = tmp_path / "calibration.json"
        committed.save(out)
        assert out.read_bytes() == DEFAULT_CALIBRATION_PATH.read_bytes()

    def test_unknown_constant_rejected(self, committed):
        data = committed.to_dict()
        data["constants"]["not_a_constant"] = 1.0
        with pytest.raises(CalibrationError, match="not_a_constant"):
            Calibration.from_dict(data)

    def test_wrong_schema_rejected(self, committed):
        data = dict(committed.to_dict(), schema="cost-calibration/v0")
        with pytest.raises(CalibrationError, match="schema"):
            Calibration.from_dict(data)


class TestDriftGate:
    def test_committed_predictions_within_gate(self, committed, benches):
        rows = drift_rows(committed, benches)
        assert rows
        bad = [r for r in rows if not r["ok"]]
        assert bad == []
        # The noise floor is the only way out of the gate.
        assert all(r["gated"] or r["measured"] < MIN_FIT_SECONDS for r in rows)
        # Under the floor today: the masked backend's round at paper and
        # smoke scale (0.0 / 0.1 ms) and its 2-silo paper-scale set-up (1.1 ms).
        assert sum(r["gated"] for r in rows) >= len(rows) - 3

    def test_byte_formulas_match_benches_exactly(self, benches):
        rows = byte_check_rows(benches)
        assert rows
        for row in rows:
            assert row["ok"], row
            assert row["predicted"] == row["measured"], row

    def test_missing_bench_dir_raises(self, tmp_path):
        with pytest.raises(CalibrationError):
            load_benches(tmp_path)


class TestCheckerScripts:
    """The CI entry points exercise the same code paths and exit 0."""

    def test_check_bench_schema_main(self, capsys):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_bench_schema", REPO_ROOT / "tools" / "check_bench_schema.py"
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert mod.main([]) == 0
        assert "conform" in capsys.readouterr().out

    def test_check_cost_drift_main(self, capsys, tmp_path):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_cost_drift", REPO_ROOT / "tools" / "check_cost_drift.py"
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        report = tmp_path / "report.json"
        assert mod.main(["--report", str(report)]) == 0
        assert "within 2x" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert payload["failures"] == 0
        assert payload["predictions"] and payload["byte_checks"]

"""Unit coverage for PhaseTimer (the Fig. 10/11 per-phase instrumentation)."""

import pytest

from repro.protocol.timing import PhaseTimer


class TestPhaseContextManager:
    def test_phase_accumulates_time_and_count(self):
        timer = PhaseTimer()
        with timer.phase("work"):
            pass
        with timer.phase("work"):
            pass
        assert timer.counts["work"] == 2
        assert timer.totals["work"] >= 0.0

    def test_phase_records_even_when_body_raises(self):
        timer = PhaseTimer()
        with pytest.raises(RuntimeError):
            with timer.phase("failing"):
                raise RuntimeError("boom")
        assert timer.counts["failing"] == 1
        assert "failing" in timer.report()


class TestReportAndSummary:
    def test_report_returns_copy(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            pass
        report = timer.report()
        report["a"] = 99.0
        assert timer.totals["a"] != 99.0

    def test_phases_are_kept_apart(self):
        timer = PhaseTimer()
        for name in ("setup", "round", "round"):
            with timer.phase(name):
                pass
        assert dict(timer.counts) == {"setup": 1, "round": 2}
        assert sorted(timer.report()) == ["round", "setup"]

    def test_empty_report(self):
        assert PhaseTimer().report() == {}

    def test_summary_lists_phases_sorted_with_counts(self):
        timer = PhaseTimer()
        for name in ("zulu", "alpha", "alpha"):
            with timer.phase(name):
                pass
        timer.totals["zulu"] = 0.25
        lines = timer.summary().splitlines()
        assert len(lines) == 2
        assert "alpha" in lines[0] and "(x2)" in lines[0]
        assert "zulu" in lines[1] and "(x1)" in lines[1]
        assert "250.0 ms" in lines[1]

    def test_empty_summary(self):
        assert PhaseTimer().summary() == ""

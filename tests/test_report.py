"""Tests for the reporting and serialisation utilities."""

import math

import pytest

from repro.core.trainer import ParticipationRecord, RoundRecord, TrainingHistory
from repro.report import (
    comparison_table,
    history_from_dict,
    history_to_dict,
    load_histories,
    save_histories,
    sparkline,
)


def make_history(method="ULDP-AVG", n=5, eps=True, participation=False):
    history = TrainingHistory(method=method, dataset="creditcard")
    for t in range(1, n + 1):
        history.records.append(
            RoundRecord(
                round=t,
                metric_name="accuracy",
                metric=0.5 + 0.08 * t,
                loss=2.0 / t,
                epsilon=0.3 * t if eps else None,
            )
        )
        if participation:
            history.participation.append(
                ParticipationRecord(round=t, silos_seen=4 - t % 2, users_seen=90 + t)
            )
    return history


class TestSparkline:
    def test_monotone_series(self):
        s = sparkline([1.0, 2.0, 3.0, 4.0])
        assert len(s) == 4
        assert s[0] == "▁" and s[-1] == "█"

    def test_constant_series(self):
        assert sparkline([5.0, 5.0]) == "▁▁"

    def test_nonfinite_marked(self):
        s = sparkline([1.0, math.inf, 2.0])
        assert s[1] == "!"

    def test_all_nonfinite(self):
        assert sparkline([math.nan, math.inf]) == "!!"


class TestComparisonTable:
    def test_columns_and_rows(self):
        table = comparison_table([make_history("ULDP-AVG"), make_history("DEFAULT", eps=False)])
        lines = table.splitlines()
        assert len(lines) == 3
        assert "ULDP-AVG" in lines[1]
        assert "(none)" in lines[2]

    def test_includes_sparkline(self):
        table = comparison_table([make_history()])
        assert "▁" in table or "█" in table

    def test_participation_column(self):
        table = comparison_table(
            [make_history(participation=True), make_history("OLD")]
        )
        lines = table.splitlines()
        assert "seen" in lines[0]
        # Mean over rounds 1..5: silos (3,4,3,4,3) -> 3.4, users 91..95 -> 93.
        assert "3.4s/93.0u" in lines[1]
        # Histories without a participation log degrade to a dash.
        assert " - " in lines[2] or lines[2].split()[-2] == "-"


class TestSerialisation:
    def test_roundtrip_dict(self):
        history = make_history()
        restored = history_from_dict(history_to_dict(history))
        assert restored.method == history.method
        assert restored.series("metric") == history.series("metric")
        assert restored.series("epsilon") == history.series("epsilon")

    def test_none_epsilon_preserved(self):
        history = make_history(eps=False)
        restored = history_from_dict(history_to_dict(history))
        assert restored.final.epsilon is None

    def test_participation_roundtrip(self):
        history = make_history(participation=True)
        restored = history_from_dict(history_to_dict(history))
        assert restored.participation == history.participation

    def test_legacy_payload_without_participation_loads(self):
        data = history_to_dict(make_history())
        assert "participation" not in data
        assert history_from_dict(data).participation == []

    def test_schema_validated(self):
        with pytest.raises(ValueError):
            history_from_dict({"schema": "something-else"})

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "histories.json"
        save_histories([make_history("A"), make_history("B")], path)
        restored = load_histories(path)
        assert [h.method for h in restored] == ["A", "B"]
        assert restored[0].final.round == 5

"""Fault-plan unit tests: parsing, determinism, and resume-safety.

The key property: every draw is a pure function of ``(seed, silo,
round)`` -- a killed and restarted silo process replays the identical
fault schedule, which is what keeps chaos runs resumable.
"""

import pytest

from repro.net.faults import ACTIONS, FaultEvent, FaultPlan


class TestFromTree:
    def test_empty_tree_injects_nothing(self):
        for tree in ({}, None):
            plan = FaultPlan.from_tree(tree)
            assert plan.events == () and plan.drop_rate == 0.0

    def test_round_shorthand_equals_unit_window(self):
        short = FaultPlan.from_tree(
            {"events": [{"silo": 2, "action": "timeout", "round": 1}]}
        )
        window = FaultPlan.from_tree(
            {"events": [{"silo": 2, "action": "timeout",
                         "start": 1, "stop": 2}]}
        )
        assert short.events == window.events
        assert short.events

    def test_rejects_round_and_window_together(self):
        with pytest.raises(ValueError, match=r"events\[0\]: give either"):
            FaultPlan.from_tree(
                {"events": [{"silo": 0, "action": "decline",
                             "round": 1, "stop": 3}]}
            )

    def test_rejects_event_without_rounds(self):
        with pytest.raises(ValueError, match=r"events\[0\]: needs round"):
            FaultPlan.from_tree(
                {"events": [{"silo": 0, "action": "decline"}]}
            )

    def test_rejects_unknown_plan_key(self):
        with pytest.raises(ValueError, match="unknown fault-plan key"):
            FaultPlan.from_tree({"drop_rat": 0.1})

    def test_rejects_unknown_event_key(self):
        with pytest.raises(ValueError, match=r"events\[1\]: unknown key"):
            FaultPlan.from_tree(
                {"events": [
                    {"silo": 0, "action": "decline", "round": 0},
                    {"silo": 1, "action": "decline", "round": 0,
                     "duration": 2},
                ]}
            )

    def test_rejects_unknown_action_with_the_valid_set(self):
        with pytest.raises(ValueError, match="action must be one of"):
            FaultPlan.from_tree(
                {"events": [{"silo": 0, "action": "explode", "round": 0}]}
            )

    def test_rejects_bad_windows_and_rates(self):
        with pytest.raises(ValueError, match="start < stop"):
            FaultEvent(silo=0, action="decline", start=3, stop=3)
        with pytest.raises(ValueError, match="silo must be non-negative"):
            FaultEvent(silo=-1, action="decline", start=0, stop=1)
        with pytest.raises(ValueError, match="drop_rate"):
            FaultPlan(drop_rate=1.0)  # certain failure is not chaos


    def test_tree_sets_every_field(self):
        plan = FaultPlan.from_tree({
            "events": [
                {"silo": 2, "action": "timeout", "round": 1, "value": 3.0},
                {"silo": 0, "action": "partition", "start": 0, "stop": 2},
            ],
            "drop_rate": 0.25,
            "seed": 7,
        })
        assert plan.events == (
            FaultEvent(silo=2, action="timeout", start=1, stop=2, value=3.0),
            FaultEvent(silo=0, action="partition", start=0, stop=2),
        )
        assert (plan.drop_rate, plan.seed) == (0.25, 7)


class TestSchedule:
    def test_events_for_honours_the_half_open_window(self):
        plan = FaultPlan(events=(
            FaultEvent(silo=1, action="delay", start=2, stop=4, value=0.5),
        ))
        assert plan.events_for(1, 1) == []
        assert len(plan.events_for(1, 2)) == 1
        assert len(plan.events_for(1, 3)) == 1
        assert plan.events_for(1, 4) == []
        assert plan.events_for(0, 3) == []  # other silos untouched

    def test_drops_is_a_pure_function_of_seed_silo_round(self):
        one = FaultPlan(drop_rate=0.5, seed=3)
        two = FaultPlan(drop_rate=0.5, seed=3)  # a "restarted process"
        schedule = [(s, t, one.drops(s, t))
                    for s in range(4) for t in range(20)]
        assert schedule == [(s, t, two.drops(s, t))
                            for s in range(4) for t in range(20)]

    def test_different_seeds_differ(self):
        a = FaultPlan(drop_rate=0.5, seed=0)
        b = FaultPlan(drop_rate=0.5, seed=1)
        draws_a = [a.drops(s, t) for s in range(4) for t in range(32)]
        draws_b = [b.drops(s, t) for s in range(4) for t in range(32)]
        assert draws_a != draws_b

    def test_zero_rate_never_drops(self):
        plan = FaultPlan(drop_rate=0.0, seed=9)
        assert not any(plan.drops(s, t)
                       for s in range(4) for t in range(50))

    def test_rate_is_roughly_honoured(self):
        plan = FaultPlan(drop_rate=0.3, seed=5)
        draws = [plan.drops(s, t) for s in range(10) for t in range(100)]
        assert 0.2 < sum(draws) / len(draws) < 0.4

    def test_action_vocabulary_is_stable(self):
        # The docs and spec files name these literally; renaming one is a
        # breaking change that must be deliberate.
        assert ACTIONS == ("decline", "timeout", "delay", "duplicate",
                           "corrupt", "crash", "partition")

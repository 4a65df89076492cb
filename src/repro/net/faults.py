"""Deterministic seeded fault injection for the networked runtime.

A :class:`FaultPlan` tells a *silo process* how to misbehave, per round --
the chaos-test harness for :mod:`repro.net`.  Faults are injected on the
silo side (the process sabotages its own replies), so the server code
under test is exactly the production code.  Two sources compose:

- **events**: explicit ``(silo, action, round window)`` entries -- fully
  scripted, e.g. "silo 2 times out in round 1".
- **drop_rate**: a seeded Bernoulli per ``(silo, round)`` that makes the
  silo decline the round.  The draw is a pure hash of
  ``(seed, silo, round)`` -- no RNG object, no state -- so a killed and
  restarted silo process reproduces the identical fault schedule, which
  is what keeps chaos runs resumable.

Actions (the silo's behaviour for rounds in ``[start, stop)``):

- ``"decline"`` -- answer the liveness ping with ``ready = false``: a
  deterministic, connection-preserving dropout (the exact-oracle fault).
- ``"timeout"`` -- sleep ``value`` seconds (default: three times
  ``round_timeout``) before each reply of its rounds, the ``pong``
  included: with ``ping_timeout`` below the sleep the server sees a
  missed ping, not a missed compute deadline.
- ``"delay"`` -- the same sleep, below both deadlines (a straggler:
  latency, not dropout).
- ``"duplicate"`` -- send the reply twice (the server must drain stales).
- ``"corrupt"`` -- flip a payload byte so the frame fails its checksum.
- ``"crash"`` -- ``os._exit`` the silo process the moment a frame for an
  affected round arrives (the ``kill -9`` chaos case).
- ``"partition"`` -- drop the connection without replying and stay
  unreachable for ``value`` seconds before reconnecting.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

ACTIONS = (
    "decline",
    "timeout",
    "delay",
    "duplicate",
    "corrupt",
    "crash",
    "partition",
)

_EVENT_KEYS = {"silo", "action", "round", "start", "stop", "value"}
_TREE_KEYS = {"events", "drop_rate", "seed"}


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault: ``silo`` performs ``action`` for rounds in
    ``[start, stop)``; ``value`` is the action's parameter (seconds for
    the timing actions, unused otherwise)."""

    silo: int
    action: str
    start: int
    stop: int
    value: float = 0.0

    def __post_init__(self):
        if self.silo < 0:
            raise ValueError("silo must be non-negative")
        if self.action not in ACTIONS:
            raise ValueError(
                f"action must be one of {ACTIONS}, got {self.action!r}"
            )
        if self.start < 0 or self.stop <= self.start:
            raise ValueError("need 0 <= start < stop (a half-open round window)")
        if self.value < 0:
            raise ValueError("value must be non-negative")


class FaultPlan:
    """A deterministic per-(silo, round) fault schedule (see module doc)."""

    def __init__(
        self,
        events: tuple[FaultEvent, ...] | list[FaultEvent] = (),
        drop_rate: float = 0.0,
        seed: int = 0,
    ):
        if not 0 <= drop_rate < 1:
            raise ValueError("drop_rate must lie in [0, 1)")
        self.events = tuple(events)
        self.drop_rate = float(drop_rate)
        self.seed = int(seed)

    @classmethod
    def from_tree(cls, tree: dict | None) -> "FaultPlan":
        """Build a plan from its spec-file dict form (``{}`` = ideal).

        Event entries accept either ``round = t`` (a single round) or a
        ``start``/``stop`` half-open window.  Unknown keys are errors.
        """
        if not tree:
            return cls()
        if not isinstance(tree, dict):
            raise ValueError("fault plan must be a table")
        unknown = sorted(set(tree) - _TREE_KEYS)
        if unknown:
            raise ValueError(
                f"unknown fault-plan key {unknown[0]!r} "
                f"(valid: {', '.join(sorted(_TREE_KEYS))})"
            )
        events = []
        raw_events = tree.get("events", [])
        if not isinstance(raw_events, (list, tuple)):
            raise ValueError("events must be a list of fault tables")
        for i, entry in enumerate(raw_events):
            if not isinstance(entry, dict):
                raise ValueError(f"events[{i}]: must be a table")
            bad = sorted(set(entry) - _EVENT_KEYS)
            if bad:
                raise ValueError(
                    f"events[{i}]: unknown key {bad[0]!r} "
                    f"(valid: {', '.join(sorted(_EVENT_KEYS))})"
                )
            if "round" in entry and ("start" in entry or "stop" in entry):
                raise ValueError(
                    f"events[{i}]: give either round or a start/stop window"
                )
            if "round" in entry:
                start, stop = int(entry["round"]), int(entry["round"]) + 1
            elif "start" in entry and "stop" in entry:
                start, stop = int(entry["start"]), int(entry["stop"])
            else:
                raise ValueError(
                    f"events[{i}]: needs round or a start/stop window"
                )
            try:
                events.append(
                    FaultEvent(
                        silo=int(entry.get("silo", -1)),
                        action=str(entry.get("action", "")),
                        start=start,
                        stop=stop,
                        value=float(entry.get("value", 0.0)),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"events[{i}]: {exc}") from exc
        return cls(
            events=events,
            drop_rate=float(tree.get("drop_rate", 0.0)),
            seed=int(tree.get("seed", 0)),
        )

    def events_for(self, silo: int, round_no: int) -> list[FaultEvent]:
        """The scripted faults hitting ``silo`` in ``round_no``."""
        return [
            e
            for e in self.events
            if e.silo == silo and e.start <= round_no < e.stop
        ]

    def drops(self, silo: int, round_no: int) -> bool:
        """Seeded Bernoulli(``drop_rate``) draw for ``(silo, round)``.

        A pure function of ``(seed, silo, round)`` -- restarting the silo
        process replays the identical schedule.
        """
        if self.drop_rate <= 0.0:
            return False
        digest = hashlib.sha256(
            f"uldp-fl-fault:{self.seed}:{silo}:{round_no}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64 < self.drop_rate

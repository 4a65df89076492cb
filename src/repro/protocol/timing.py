"""Phase timing instrumentation for the protocol benchmarks (Figs. 10-11).

The paper reports per-phase execution times (key exchange, blinded-histogram
preparation, local training, encrypted aggregation).  :class:`PhaseTimer`
accumulates wall-clock durations under named phases; the protocol runner
wraps each step with it so benchmarks can read the breakdown directly.

Each :meth:`PhaseTimer.phase` block also opens a ``phase``-kind span on
the process trace recorder (:mod:`repro.obs.trace`), so enabling tracing
surfaces every protocol and secure-aggregation phase in ``trace.jsonl``
with no further instrumentation.

Concurrency: one ``PhaseTimer`` instance is **not** thread-safe -- its
totals are plain float adds with no lock, so two threads timing phases
on the same instance can lose updates; time phases from the thread that
owns the timer.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from repro.obs.trace import get_recorder


class PhaseTimer:
    """Accumulates wall-clock time per named phase.

    Not thread-safe; see the module docstring.
    """

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    @contextmanager
    def phase(self, name: str):
        with get_recorder().span(name, kind="phase"):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.totals[name] += time.perf_counter() - start
                self.counts[name] += 1

    def report(self) -> dict[str, float]:
        """Total seconds per phase (copy)."""
        return dict(self.totals)

    def summary(self) -> str:
        lines = [
            f"  {name:<28s} {seconds * 1000:10.1f} ms  (x{self.counts[name]})"
            for name, seconds in sorted(self.totals.items())
        ]
        return "\n".join(lines)

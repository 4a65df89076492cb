"""Reporting utilities: sparklines, tables, and history serialisation.

The paper communicates its results as line plots (utility and epsilon vs
round); this module renders the same series in plain text for terminals and
CI logs (one sparkline per run in the comparison table), and (de)serialises :class:`repro.core.trainer.TrainingHistory`
objects to JSON so experiments can be archived and re-plotted without
re-running.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.core.trainer import TrainingHistory, history_from_dict, history_to_dict

#: Characters for one-line sparklines, low to high.
_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float]) -> str:
    """One-line unicode sparkline of a numeric series (NaN/inf -> '!')."""
    finite = [v for v in values if v is not None and math.isfinite(v)]
    if not finite:
        return "!" * len(values)
    lo, hi = min(finite), max(finite)
    span = hi - lo
    out = []
    for v in values:
        if v is None or not math.isfinite(v):
            out.append("!")
        elif span == 0:
            out.append(_SPARK[0])
        else:
            idx = int((v - lo) / span * (len(_SPARK) - 1))
            out.append(_SPARK[idx])
    return "".join(out)


def format_bytes(n: float) -> str:
    """Human-readable byte count (KB/MB/GB, decimal units)."""
    if n < 1e3:
        return f"{n:.0f}B"
    for unit, scale in (("KB", 1e3), ("MB", 1e6), ("GB", 1e9)):
        if n < 1e3 * scale:
            return f"{n / scale:.1f}{unit}"
    return f"{n / 1e12:.1f}TB"


def comparison_table(histories: list[TrainingHistory]) -> str:
    """Final-round comparison with sparkline trajectories.

    The ``seen`` column reports the mean per-round participation as
    ``<silos>s/<users>u`` (who actually contributed under dropout/churn);
    the ``up/rd`` column reports the mean per-round uplink bytes (the
    compressed wire size when update compression is active).  Histories
    recorded before either log show ``-``.
    """
    lines = [
        f"{'method':<24s} {'metric':>8s} {'loss':>10s} {'eps':>10s} "
        f"{'seen':>12s} {'up/rd':>9s}  trajectory"
    ]
    for h in histories:
        f = h.final
        eps = "   (none)" if f.epsilon is None else f"{f.epsilon:10.3f}"
        summary = h.participation_summary()
        seen = "-" if summary is None else f"{summary[0]:.1f}s/{summary[1]:.1f}u"
        comm = h.comm_summary()
        uplink = "-" if comm is None else format_bytes(comm[0])
        lines.append(
            f"{h.method:<24s} {f.metric:8.4f} {f.loss:10.4f} {eps:>10s} "
            f"{seen:>12s} {uplink:>9s}  {sparkline(h.series('metric'))}"
        )
    # Merged protocol-phase totals (the protocol driver's phase seconds,
    # accumulated by the trainer) -- a footer rather than a column, since the phase set
    # varies by method.
    merged: dict[str, float] = {}
    for h in histories:
        for phase, seconds in h.phase_seconds.items():
            merged[phase] = merged.get(phase, 0.0) + float(seconds)
    if merged:
        parts = [f"{phase}={seconds:.3f}s"
                 for phase, seconds in sorted(merged.items(),
                                              key=lambda kv: -kv[1])]
        lines.append("phase totals: " + "  ".join(parts))
    return "\n".join(lines)


# -- JSON files ---------------------------------------------------------------


def save_histories(histories: list[TrainingHistory], path: str | Path) -> None:
    """Write histories to a JSON file (parent directories are created)."""
    payload = [history_to_dict(h) for h in histories]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2))


def load_histories(path: str | Path) -> list[TrainingHistory]:
    """Read histories from a JSON file written by :func:`save_histories`."""
    payload = json.loads(Path(path).read_text())
    return [history_from_dict(d) for d in payload]

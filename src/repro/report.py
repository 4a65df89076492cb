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

from repro.core.trainer import (
    CommRecord,
    ParticipationRecord,
    RoundRecord,
    TrainingHistory,
)

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
        for phase, seconds in getattr(h, "phase_seconds", {}).items():
            merged[phase] = merged.get(phase, 0.0) + float(seconds)
    if merged:
        parts = [f"{phase}={seconds:.3f}s"
                 for phase, seconds in sorted(merged.items(),
                                              key=lambda kv: -kv[1])]
        lines.append("phase totals: " + "  ".join(parts))
    return "\n".join(lines)


# -- JSON serialisation -------------------------------------------------------


def history_to_dict(history: TrainingHistory) -> dict:
    """Plain-dict form of a history (stable schema, version-tagged).

    The participation and wire-traffic logs ride along under optional
    keys, so archives written by older versions (without them) still load.
    """
    data = {
        "schema": "uldp-fl-history/v1",
        "method": history.method,
        "dataset": history.dataset,
        "records": [
            {
                "round": r.round,
                "metric_name": r.metric_name,
                "metric": r.metric,
                "loss": r.loss,
                "epsilon": r.epsilon,
            }
            for r in history.records
        ],
    }
    # Spec provenance (stamped by repro.api.run): the resolved RunSpec
    # snapshot plus its canonical hash make the archive self-describing.
    if history.spec is not None:
        data["spec"] = history.spec
    if history.spec_hash is not None:
        data["spec_hash"] = history.spec_hash
    if history.participation:
        data["participation"] = [
            {"round": p.round, "silos_seen": p.silos_seen, "users_seen": p.users_seen}
            for p in history.participation
        ]
    if history.comm:
        data["comm"] = [
            {
                "round": c.round,
                "uplink_bytes": c.uplink_bytes,
                "downlink_bytes": c.downlink_bytes,
            }
            for c in history.comm
        ]
    if getattr(history, "phase_seconds", None):
        data["phase_seconds"] = {
            phase: float(seconds)
            for phase, seconds in history.phase_seconds.items()
        }
    return data


def history_from_dict(data: dict) -> TrainingHistory:
    """Inverse of :func:`history_to_dict`; validates the schema tag."""
    if data.get("schema") != "uldp-fl-history/v1":
        raise ValueError(f"unknown history schema: {data.get('schema')!r}")
    history = TrainingHistory(
        method=data["method"],
        dataset=data["dataset"],
        spec=data.get("spec"),
        spec_hash=data.get("spec_hash"),
    )
    for r in data["records"]:
        history.records.append(
            RoundRecord(
                round=int(r["round"]),
                metric_name=r["metric_name"],
                metric=float(r["metric"]),
                loss=float(r["loss"]),
                epsilon=None if r["epsilon"] is None else float(r["epsilon"]),
            )
        )
    for p in data.get("participation", []):
        history.participation.append(
            ParticipationRecord(
                round=int(p["round"]),
                silos_seen=int(p["silos_seen"]),
                users_seen=int(p["users_seen"]),
            )
        )
    for c in data.get("comm", []):
        history.comm.append(
            CommRecord(
                round=int(c["round"]),
                uplink_bytes=int(c["uplink_bytes"]),
                downlink_bytes=int(c["downlink_bytes"]),
            )
        )
    for phase, seconds in data.get("phase_seconds", {}).items():
        history.phase_seconds[str(phase)] = float(seconds)
    return history


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

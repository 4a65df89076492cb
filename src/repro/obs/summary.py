"""The run's record, folded: ``/metrics`` and ``repro trace summary``.

A ``trace.jsonl`` (written by :class:`repro.obs.trace.JsonlTraceRecorder`)
is the one record of a run.  :class:`TraceFold` folds it one record at a
time into aggregates whose size is set by the run's phases, silos and
event names, never by its length:

- **totals** -- completed rounds, their seconds and bytes both ways, and
  the aborted attempts (a ``round`` span that closed with ``error``);
- **per phase** -- total/max seconds and call counts (protocol phases,
  server phases such as ``ping`` and ``collect_contributions``), and the
  bytes a phase span carries;
- **per silo** -- span count, seconds, bytes both ways, and the deadline
  margins (count, sum, tightest);
- **per shard** -- for runs on the sharded engine (``[engine]`` in the
  spec), each silo's shard-task count, job total, and kernel seconds
  (the worker-side compute time, as opposed to the span's wall time
  which includes executor queueing);
- **events** -- a count per event name, the last ``sim_release`` clock,
  and the last ``evaluate`` span's ``epsilon``.

The recorder folds each record as it writes it, and ``GET /metrics``
(:mod:`repro.obs.httpd`) serves :func:`render_prometheus` of that fold;
``repro trace summary`` folds the file and adds the views a bounded fold
cannot keep -- per round, the slowest spans, the fault events.

Everything tolerates partial traces (a crashed run never writes its
unclosed spans) and multiple runs appended to one file.
"""

from __future__ import annotations

import json
from pathlib import Path

TRACE_SCHEMA = "uldp-fl-trace/v1"

#: Event names treated as faults in the fault-event view.
FAULT_EVENTS = frozenset({
    "silo_fault", "silo_drop", "retry", "rollback", "quorum_abort",
    "sim_fault",
})

#: The counter each counted event name feeds on ``/metrics``.
EVENT_COUNTERS = {
    "silo_fault": ("net_silo_faults_total",
                   "Mid-round silo failures observed by the server."),
    "handshake_refused": ("net_handshakes_refused_total",
                          "Connections refused at the HELLO/WELCOME handshake."),
    "sim_release": ("sim_releases_total",
                    "Simulator round releases (sync rounds or async buffers)."),
}


class TraceError(ValueError):
    """The file is not a readable uldp-fl trace."""


def load_trace(path: str | Path) -> list[dict]:
    """Parse ``path`` into a list of record dicts, oldest first.

    Raises :class:`TraceError` when the file is missing, empty, or its
    first record is not a recognised trace meta line.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"no trace file at {path}")
    records: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}:{lineno}: not JSON ({exc})") from exc
            if not isinstance(rec, dict) or "kind" not in rec:
                raise TraceError(f"{path}:{lineno}: not a trace record")
            records.append(rec)
    if not records:
        raise TraceError(f"{path} is empty")
    meta = records[0]
    if meta.get("kind") != "meta" or meta.get("schema") != TRACE_SCHEMA:
        raise TraceError(
            f"{path} does not start with a {TRACE_SCHEMA} meta record")
    return records


class TraceFold:
    """The aggregates of a record stream, folded one record at a time.

    :attr:`state` is plain JSON data; folding a stream in any number of
    pieces gives the state folding it whole gives.
    """

    def __init__(self):
        self.state: dict = {
            "meta": {},
            "totals": {"rounds": 0, "aborted_rounds": 0, "round_seconds": 0.0,
                       "uplink_bytes": 0, "downlink_bytes": 0},
            "phases": {},
            "silos": {},
            "shards": {},
            "events": {},
            "epsilon": None,
            "sim_clock": None,
        }

    def update(self, records) -> "TraceFold":
        """Fold ``records`` in order; returns ``self``."""
        for rec in records:
            self.add(rec)
        return self

    def add(self, rec: dict) -> None:
        """Fold one record."""
        state = self.state
        kind = rec.get("kind")
        name = rec.get("name", "?")
        attrs = rec.get("attrs") or {}
        dur = rec.get("dur", 0.0)
        if kind == "meta":
            if not state["meta"]:
                state["meta"] = dict(rec)
        elif kind == "event":
            state["events"][name] = state["events"].get(name, 0) + 1
            if name == "sim_release":
                state["sim_clock"] = float(attrs.get("clock", 0.0))
        elif kind == "round":
            totals = state["totals"]
            if "error" in attrs:
                totals["aborted_rounds"] += 1
                return
            totals["rounds"] += 1
            totals["round_seconds"] += float(attrs.get("seconds", dur))
            _add_bytes(totals, attrs)
        elif kind == "phase":
            entry = state["phases"].setdefault(name, {
                "total": 0.0, "count": 0, "max": 0.0,
                "uplink_bytes": 0, "downlink_bytes": 0,
            })
            entry["total"] += dur
            entry["count"] += 1
            entry["max"] = max(entry["max"], dur)
            _add_bytes(entry, attrs)
            if name == "evaluate" and attrs.get("epsilon") is not None:
                state["epsilon"] = float(attrs["epsilon"])
        elif kind == "silo":
            entry = state["silos"].setdefault(str(attrs.get("silo", "?")), {
                "count": 0, "seconds": 0.0, "uplink_bytes": 0,
                "downlink_bytes": 0, "min_deadline_margin": None,
                "margin_count": 0, "margin_sum": 0.0,
            })
            entry["count"] += 1
            entry["seconds"] += dur
            _add_bytes(entry, attrs)
            margin = attrs.get("deadline_margin")
            if margin is not None:
                margin = float(margin)
                prev = entry["min_deadline_margin"]
                entry["min_deadline_margin"] = (
                    margin if prev is None else min(prev, margin))
                entry["margin_count"] += 1
                entry["margin_sum"] += margin
        elif kind == "shard":
            entry = state["shards"].setdefault(str(attrs.get("silo", "?")), {
                "count": 0, "jobs": 0, "seconds": 0.0, "max": 0.0,
            })
            # ``seconds`` is the kernel time measured inside the worker;
            # the span's ``dur`` also counts executor queueing and result
            # pickling, so the attr is the honest compute number.
            seconds = float(attrs.get("seconds") or dur)
            entry["count"] += 1
            entry["jobs"] += int(attrs.get("jobs") or 0)
            entry["seconds"] += seconds
            entry["max"] = max(entry["max"], seconds)


def _add_bytes(entry: dict, attrs: dict) -> None:
    for key in ("uplink_bytes", "downlink_bytes"):
        entry[key] += int(attrs.get(key) or 0)


def summarize(records: list[dict]) -> dict:
    """The fold of ``records`` plus the per-round, span and fault views."""
    state = TraceFold().update(records).state
    rounds: dict[int, dict] = {}
    spans: list[dict] = []
    faults: list[dict] = []
    for rec in records:
        kind = rec.get("kind")
        if kind == "meta":
            continue
        if kind == "event":
            if rec.get("name") in FAULT_EVENTS:
                faults.append(rec)
            continue
        spans.append(rec)
        attrs = rec.get("attrs") or {}
        if kind != "round" or attrs.get("round") is None:
            continue
        entry = rounds.setdefault(int(attrs["round"]), {
            "dur": 0.0, "silos_seen": None, "users_seen": None,
            "uplink_bytes": 0, "downlink_bytes": 0,
        })
        entry["dur"] += rec.get("dur", 0.0)
        for key in ("silos_seen", "users_seen"):
            if attrs.get(key) is not None:
                entry[key] = attrs[key]
        _add_bytes(entry, attrs)
    return {
        **state,
        "rounds": dict(sorted(rounds.items())),
        "phases": dict(sorted(state["phases"].items(),
                              key=lambda kv: -kv[1]["total"])),
        "silos": dict(sorted(state["silos"].items())),
        "shards": dict(sorted(state["shards"].items())),
        "spans": spans,
        "faults": faults,
    }


# -- the Prometheus view -------------------------------------------------------


def render_prometheus(state: dict) -> str:
    """A :class:`TraceFold` state as Prometheus text exposition (0.0.4)."""
    lines: list[str] = []

    def family(name, kind, help, samples):
        if not samples:
            return
        lines.append(f"# HELP {name} {help}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(_sample(name + suffix, labels, value)
                     for suffix, labels, value in samples)

    totals = state["totals"]
    family("trainer_rounds_total", "counter", "Training rounds completed.",
           [("", {}, totals["rounds"])])
    family("trainer_aborted_rounds_total", "counter",
           "Round attempts aborted mid-round and retried.",
           [("", {}, totals["aborted_rounds"])])
    family("trainer_round_seconds", "summary",
           "Seconds per completed training round.",
           [("_sum", {}, totals["round_seconds"]),
            ("_count", {}, totals["rounds"])])
    family("comm_uplink_bytes_total", "counter",
           "Silo -> server payload bytes of the completed rounds.",
           [("", {}, totals["uplink_bytes"])])
    family("comm_downlink_bytes_total", "counter",
           "Server -> silo broadcast bytes of the completed rounds.",
           [("", {}, totals["downlink_bytes"])])

    phases = sorted(state["phases"].items())
    family("protocol_phase_seconds", "gauge",
           "Seconds per phase, summed over its spans.",
           [("", {"phase": p}, e["total"]) for p, e in phases])
    for way in ("uplink", "downlink"):
        family(f"phase_{way}_bytes_total", "counter",
               f"{way.capitalize()} frame bytes a phase span moved.",
               [("", {"phase": p}, e[f"{way}_bytes"]) for p, e in phases
                if e["uplink_bytes"] or e["downlink_bytes"]])

    silos = sorted(state["silos"].items())
    margins = []
    for s, e in silos:
        if e["margin_count"]:
            margins += [("", {"silo": s, "quantile": "0"}, e["min_deadline_margin"]),
                        ("_sum", {"silo": s}, e["margin_sum"]),
                        ("_count", {"silo": s}, e["margin_count"])]
    family("net_deadline_margin_seconds", "summary",
           "Seconds left on the compute deadline when a silo's reply arrived.",
           margins)
    for way in ("uplink", "downlink"):
        family(f"net_silo_{way}_bytes_total", "counter",
               f"{way.capitalize()} frame bytes of each silo's round exchanges.",
               [("", {"silo": s}, e[f"{way}_bytes"]) for s, e in silos])

    family("engine_shard_seconds", "summary",
           "Kernel seconds of the sharded engine's shard tasks.",
           [sample for s, e in sorted(state["shards"].items())
            for sample in (("_sum", {"silo": s}, e["seconds"]),
                           ("_count", {"silo": s}, e["count"]))])

    for event, (name, help) in sorted(EVENT_COUNTERS.items()):
        family(name, "counter", help,
               [("", {}, state["events"].get(event, 0))])
    if state["sim_clock"] is not None:
        family("sim_clock_seconds", "gauge", "The simulator's virtual clock.",
               [("", {}, state["sim_clock"])])
    if state["epsilon"] is not None:
        family("privacy_epsilon_spent", "gauge",
               "Epsilon spent so far (the last evaluation's accountant query).",
               [("", {}, state["epsilon"])])
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    text = repr(value if isinstance(value, int) else float(value))
    return {"nan": "NaN", "inf": "+Inf", "-inf": "-Inf"}.get(text, text)


def _sample(name: str, labels: dict, value) -> str:
    if not labels:
        return f"{name} {_fmt(value)}"
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in sorted(labels.items()))
    return f"{name}{{{body}}} {_fmt(value)}"


def _escape(value: str) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


# -- rendering -----------------------------------------------------------------


def _fmt_bytes(n) -> str:
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:,.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:,.1f} GiB"


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines


def render_summary(records: list[dict], slowest: int = 5) -> str:
    """The human-readable multi-table summary of one trace file."""
    s = summarize(records)
    out: list[str] = []
    meta = s["meta"]
    header = f"trace: schema={meta.get('schema', '?')}"
    if meta.get("run_id"):
        header += f"  run={meta['run_id']}"
    if meta.get("sample_rate", 1.0) != 1.0:
        header += f"  sample_rate={meta['sample_rate']}"
    out.append(header)
    out.append(f"records: {len(s['spans'])} spans, "
               f"{len(s['faults'])} fault events")

    if s["rounds"]:
        out.append("")
        out.append("per round")
        rows = [
            [str(r), f"{e['dur']:.3f}",
             "-" if e["silos_seen"] is None else str(e["silos_seen"]),
             "-" if e["users_seen"] is None else str(e["users_seen"]),
             _fmt_bytes(e["uplink_bytes"]), _fmt_bytes(e["downlink_bytes"])]
            for r, e in s["rounds"].items()
        ]
        out.extend(_table(
            ["round", "seconds", "silos", "users", "uplink", "downlink"],
            rows))

    if s["phases"]:
        out.append("")
        out.append("per phase")
        rows = [
            [name, f"{e['total']:.3f}", str(e["count"]),
             f"{e['total'] / e['count']:.4f}" if e["count"] else "-",
             f"{e['max']:.4f}"]
            for name, e in s["phases"].items()
        ]
        out.extend(_table(
            ["phase", "total s", "calls", "mean s", "max s"], rows))

    if s["silos"]:
        out.append("")
        out.append("per silo")
        rows = []
        for silo, e in s["silos"].items():
            margin = e["min_deadline_margin"]
            rows.append([
                silo, str(e["count"]), f"{e['seconds']:.3f}",
                _fmt_bytes(e["uplink_bytes"]),
                _fmt_bytes(e["downlink_bytes"]),
                "-" if margin is None else f"{margin:.2f}s",
            ])
        out.extend(_table(
            ["silo", "spans", "seconds", "uplink", "downlink",
             "min margin"], rows))

    if s["shards"]:
        out.append("")
        out.append("per shard (sharded engine)")
        rows = [
            [silo, str(e["count"]), str(e["jobs"]),
             f"{e['seconds']:.3f}",
             f"{e['seconds'] / e['count']:.4f}" if e["count"] else "-",
             f"{e['max']:.4f}"]
            for silo, e in s["shards"].items()
        ]
        out.extend(_table(
            ["silo", "shards", "jobs", "kernel s", "mean s", "max s"],
            rows))

    ranked = sorted(s["spans"], key=lambda r: -r.get("dur", 0.0))[:slowest]
    if ranked:
        out.append("")
        out.append(f"slowest {len(ranked)} spans")
        rows = [
            [f"{r.get('dur', 0.0):.4f}", r.get("kind", "?"),
             r.get("name", "?"),
             json.dumps(r.get("attrs") or {}, sort_keys=True)]
            for r in ranked
        ]
        out.extend(_table(["seconds", "kind", "name", "attrs"], rows))

    if s["faults"]:
        out.append("")
        out.append("fault events")
        rows = [
            [f"{r.get('ts', 0.0):.3f}", r.get("name", "?"),
             json.dumps(r.get("attrs") or {}, sort_keys=True)]
            for r in s["faults"]
        ]
        out.extend(_table(["ts", "event", "attrs"], rows))

    return "\n".join(out)

"""A process-local metrics registry: counters, gauges, histograms.

The quantitative half of the observability layer (spans answer *where
time went in one run*; metrics answer *how much, in total, right now*).
Every instrumentation seam updates the process-wide registry returned by
:func:`get_registry`; updates are a dict lookup plus a float add, cheap
enough to leave always-on.

Three instrument kinds, Prometheus-compatible semantics:

- :class:`Counter` -- monotonically increasing totals (rounds run, bytes
  sent, retries).
- :class:`Gauge` -- a value that can move both ways (epsilon spent,
  the trainer's per-phase second totals from ``timing_report()``).
- :class:`Histogram` -- bucketed observations with sum and count (round
  seconds, frame send/recv latencies, deadline margins).

Each instrument is a *family* keyed by label values
(``REGISTRY.counter("net_frames_sent_total").labels(type="ping").inc()``);
calling ``inc``/``set``/``observe`` on the family itself addresses the
unlabelled child.  Two exposition formats:

- :meth:`MetricsRegistry.render_prometheus` -- the Prometheus text
  format, served on the federation server's optional
  ``GET /metrics`` side port (``obs.metrics_port``);
- :meth:`MetricsRegistry.snapshot` -- a plain-dict/JSON form for tests
  and archival.

Like :mod:`repro.obs.trace`, this module is stdlib-only and imports
nothing from ``repro``.
"""

from __future__ import annotations

import json
import re
import threading

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds): microbenchmark floor to a minute.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0
)


class MetricError(ValueError):
    """Invalid metric name, label, or usage (kind mismatch, negative inc)."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricError(f"invalid metric name {name!r}")
    return name


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("labels_kv", "value")

    def __init__(self, labels_kv):
        self.labels_kv = labels_kv
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("labels_kv", "value")

    def __init__(self, labels_kv):
        self.labels_kv = labels_kv
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Bucketed observations with a running sum and count."""

    __slots__ = ("labels_kv", "buckets", "bucket_counts", "sum", "count")

    def __init__(self, labels_kv, buckets):
        self.labels_kv = labels_kv
        self.buckets = buckets
        self.bucket_counts = [0] * (len(buckets) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative_counts(self) -> list[int]:
        """Prometheus-style cumulative per-bucket counts (incl. +Inf)."""
        out, running = [], 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All children of one metric name, keyed by label values."""

    def __init__(self, name: str, kind: str, help: str = "",
                 unit: str = "", buckets=None):
        self.name = _check_name(name)
        self.kind = kind
        self.help = help
        self.unit = unit
        self.buckets = tuple(buckets) if buckets is not None else None
        if kind == "histogram":
            if not self.buckets:
                self.buckets = DEFAULT_BUCKETS
            if list(self.buckets) != sorted(self.buckets):
                raise MetricError(f"{name}: buckets must be sorted ascending")
        self._children: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def labels(self, **labels_kv):
        """The child for these label values (created on first use)."""
        for key in labels_kv:
            if not _LABEL_RE.match(key):
                raise MetricError(f"invalid label name {key!r}")
        key = tuple(sorted((k, str(v)) for k, v in labels_kv.items()))
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    kv = dict(key)
                    child = (Histogram(kv, self.buckets)
                             if self.kind == "histogram"
                             else _KINDS[self.kind](kv))
                    self._children[key] = child
        return child

    def children(self) -> list:
        return list(self._children.values())

    # Convenience: the unlabelled child's operations on the family itself.
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)


class MetricsRegistry:
    """A named collection of metric families with exposition writers."""

    def __init__(self):
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _family(self, name: str, kind: str, help: str, unit: str,
                buckets=None) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = MetricFamily(name, kind, help, unit, buckets)
                    self._families[name] = family
        if family.kind != kind:
            raise MetricError(
                f"metric {name!r} already registered as a {family.kind}, "
                f"not a {kind}")
        return family

    def counter(self, name: str, help: str = "", unit: str = "") -> MetricFamily:
        return self._family(name, "counter", help, unit)

    def gauge(self, name: str, help: str = "", unit: str = "") -> MetricFamily:
        return self._family(name, "gauge", help, unit)

    def histogram(self, name: str, help: str = "", unit: str = "",
                  buckets=None) -> MetricFamily:
        return self._family(name, "histogram", help, unit, buckets)

    def families(self) -> list[MetricFamily]:
        return [self._families[n] for n in sorted(self._families)]

    def reset(self) -> None:
        """Drop every family (test isolation; never called by run code)."""
        with self._lock:
            self._families.clear()

    # -- exposition ----------------------------------------------------------

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for child in family.children():
                if family.kind == "histogram":
                    cumulative = child.cumulative_counts()
                    for bound, count in zip(family.buckets, cumulative):
                        lines.append(_sample(
                            f"{family.name}_bucket",
                            {**child.labels_kv, "le": _fmt(bound)}, count))
                    lines.append(_sample(
                        f"{family.name}_bucket",
                        {**child.labels_kv, "le": "+Inf"}, cumulative[-1]))
                    lines.append(_sample(
                        f"{family.name}_sum", child.labels_kv, child.sum))
                    lines.append(_sample(
                        f"{family.name}_count", child.labels_kv, child.count))
                else:
                    lines.append(_sample(
                        family.name, child.labels_kv, child.value))
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """A plain-dict snapshot (JSON-safe) of every family."""
        out: dict = {}
        for family in self.families():
            entry: dict = {"type": family.kind}
            if family.help:
                entry["help"] = family.help
            if family.unit:
                entry["unit"] = family.unit
            samples = []
            for child in family.children():
                if family.kind == "histogram":
                    samples.append({
                        "labels": dict(child.labels_kv),
                        "sum": child.sum,
                        "count": child.count,
                        "buckets": {
                            _fmt(b): c for b, c in
                            zip((*family.buckets, float("inf")),
                                child.cumulative_counts())
                        },
                    })
                else:
                    samples.append({
                        "labels": dict(child.labels_kv),
                        "value": child.value,
                    })
            entry["samples"] = samples
            out[family.name] = entry
        return out

    def render_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def _sample(name: str, labels_kv: dict, value) -> str:
    if labels_kv:
        body = ",".join(
            f'{k}="{_escape(v)}"' for k, v in sorted(labels_kv.items())
        )
        return f"{name}{{{body}}} {_fmt_value(value)}"
    return f"{name} {_fmt_value(value)}"


def _fmt_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    return _fmt(value) if value == value else "NaN"


def _escape(value: str) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


# -- the process-wide registry -------------------------------------------------

_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-local registry every instrumentation seam writes to."""
    return _REGISTRY

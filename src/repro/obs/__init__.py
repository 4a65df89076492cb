"""Zero-dependency observability: tracing spans + a metrics registry.

See ``docs/observability.md`` for the span model, the metric catalog,
and the trace-file format.  Disabled (the default), the subsystem is a
handful of no-op calls per round; enabled via the ``[obs]`` spec
section, it writes a ``trace.jsonl`` next to checkpoints and can serve
``GET /metrics`` on a side port.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    MetricError,
    MetricsRegistry,
    get_registry,
)
from .trace import (
    NULL_RECORDER,
    TRACE_SCHEMA,
    JsonlTraceRecorder,
    NullRecorder,
    get_recorder,
    set_recorder,
    use_recorder,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricError",
    "MetricsRegistry",
    "get_registry",
    "NULL_RECORDER",
    "TRACE_SCHEMA",
    "JsonlTraceRecorder",
    "NullRecorder",
    "get_recorder",
    "set_recorder",
    "use_recorder",
]

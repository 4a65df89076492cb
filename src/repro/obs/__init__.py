"""Zero-dependency observability: tracing spans and the views over them.

See ``docs/observability.md`` for the span model, the metric catalog,
and the trace-file format.  Disabled (the default), the subsystem is a
handful of no-op calls per round and keeps no state; enabled via the
``[obs]`` spec section, it writes a ``trace.jsonl`` next to checkpoints,
folds each record it writes (:class:`repro.obs.summary.TraceFold`), and
can serve that fold as ``GET /metrics`` on a side port.
"""

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
    "NULL_RECORDER",
    "TRACE_SCHEMA",
    "JsonlTraceRecorder",
    "NullRecorder",
    "get_recorder",
    "set_recorder",
    "use_recorder",
]

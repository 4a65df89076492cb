"""Hierarchical tracing: ``run > round > phase > silo`` spans to JSONL.

One *span* is a named, timed region of a run with typed attributes; spans
nest (per thread) so a networked round produces, e.g.::

    run                                 kind=run
      round                             kind=round   round=3
        collect_contributions           kind=phase
          silo_compute                  kind=silo    silo=0 uplink_bytes=...
          silo_compute                  kind=silo    silo=1 ...
        evaluate                        kind=phase

Records are appended to a ``trace.jsonl`` file (one JSON object per
line, schema ``uldp-fl-trace/v1``) as spans *close*, so a crashed run
still leaves every completed span on disk.  Each record carries the wall
clock (``ts``, epoch seconds at span start), the monotonic clock
(``mono``, for exact in-process ordering), the duration (``dur``), and
the span's ``attrs``.

Every span times itself, recorded or not: ``elapsed`` reads the clock
while it is open and ``dur`` holds its duration once closed, so a span is
the one clock of the region it brackets (the trainer's round seconds and
the protocol's phase totals are read off their spans).  The default
recorder is :data:`NULL_RECORDER`: every instrumentation seam in the
codebase calls :func:`get_recorder` and gets one whose ``span()`` returns
a small unrecorded :class:`Span` -- a disabled run pays one object and
two clock reads per span, writes nothing, consumes no RNG, and is
bit-identical to an uninstrumented build.  Tracing is
enabled per run through the ``[obs]`` spec section
(:class:`repro.api.spec.ObsSpec`), which builds a
:class:`JsonlTraceRecorder` and installs it with :func:`use_recorder`.

``sample_rate`` keeps long runs' trace files bounded: spans of kind
``"round"`` are kept for a deterministic (hash-of-round-number) subset
of rounds, and every descendant of a dropped round span is dropped with
it.  Spans outside any round (setup, checkpointing) are always kept.

A :class:`JsonlTraceRecorder` also folds every record it writes into a
:class:`repro.obs.summary.TraceFold`, the state ``GET /metrics`` renders:
the endpoint is a view over the trace, not a second record of the run.

This module is stdlib-only and imports nothing from ``repro`` outside
``repro.obs`` -- every layer of the codebase may import it without
cycles.
"""

from __future__ import annotations

import copy
import json
import os
import threading
import time
from pathlib import Path

from .summary import TRACE_SCHEMA, TraceFold

#: Knuth's multiplicative hash constant -- spreads round numbers evenly
#: over [0, 2^32) so round sampling is uniform *and* deterministic.
_HASH_MULT = 2654435761


def _jsonable(value):
    """Best-effort JSON coercion for attr values (numpy scalars etc.).

    A numpy scalar becomes its Python value (``np.float32(0.75)`` is
    written as ``0.75``, not truncated by ``int``).
    """
    for caster in (lambda v: v.item(), int, float):
        try:
            return caster(value)
        except (AttributeError, TypeError, ValueError):
            continue
    return str(value)


class NullRecorder:
    """The default recorder: its spans time themselves and record nothing."""

    enabled = False

    def span(self, name: str, kind: str = "span", **attrs) -> Span:
        return Span(self, name, kind, attrs)

    def _push(self, span: Span) -> None:
        pass

    def _pop(self, span: Span) -> None:
        pass

    def event(self, name: str, **attrs) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL_RECORDER = NullRecorder()


class Span:
    """One span of a recorder (context manager); times itself whether or
    not the recorder writes it."""

    __slots__ = ("_recorder", "name", "kind", "attrs", "span_id",
                 "parent_id", "suppressed", "ts", "mono", "dur")

    def __init__(self, recorder, name, kind, attrs, span_id=None,
                 parent_id=None, suppressed=False):
        self._recorder = recorder
        self.name = name
        self.kind = kind
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.suppressed = suppressed
        self.ts = 0.0
        self.mono = 0.0
        #: Seconds the span was open, set when it closes.
        self.dur: float | None = None

    @property
    def elapsed(self) -> float:
        """Seconds since the span opened (read while it is open)."""
        return time.perf_counter() - self.mono

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._recorder._push(self)
        self.ts = time.time()
        self.mono = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.dur = time.perf_counter() - self.mono
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._recorder._pop(self)
        return False


class JsonlTraceRecorder:
    """Appends span/event records to a JSONL trace file.

    Safe for concurrent use from multiple threads: the span stack is
    thread-local (each thread gets its own hierarchy; spans opened on a
    fresh thread are roots) and file writes are serialised by a lock.
    Multiple *processes* must not share one trace file -- give each its
    own path (the networked runtime's silo processes simply run with the
    null recorder).  :attr:`fold` holds the aggregates of every record
    written so far; :meth:`metrics` copies them under the write lock.
    """

    enabled = True

    def __init__(self, path: str | Path, sample_rate: float = 1.0,
                 run_id: str | None = None):
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must lie in (0, 1]")
        self.path = Path(path)
        self.sample_rate = float(sample_rate)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.fold = TraceFold()
        self._write({
            "kind": "meta",
            "schema": TRACE_SCHEMA,
            "ts": time.time(),
            "pid": os.getpid(),
            "sample_rate": self.sample_rate,
            **({"run_id": run_id} if run_id else {}),
        })

    # -- span stack (per thread) --------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _sampled_round(self, attrs: dict) -> bool:
        """Deterministic keep/drop decision for a round-kind span."""
        if self.sample_rate >= 1.0:
            return True
        round_no = attrs.get("round")
        if not isinstance(round_no, int):
            return True
        bucket = (round_no * _HASH_MULT) % (1 << 32)
        return bucket < self.sample_rate * (1 << 32)

    def span(self, name: str, kind: str = "span", **attrs) -> Span:
        stack = self._stack()
        parent: Span | None = stack[-1] if stack else None
        suppressed = parent.suppressed if parent is not None else False
        if not suppressed and kind == "round":
            suppressed = not self._sampled_round(attrs)
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        return Span(
            self, name, kind, dict(attrs), span_id,
            parent.span_id if parent is not None else None, suppressed,
        )

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # mis-nested exit: drop it and its orphans
            del stack[stack.index(span):]
        if span.suppressed:
            return
        self._write({
            "kind": span.kind,
            "name": span.name,
            "id": span.span_id,
            "parent": span.parent_id,
            "ts": span.ts,
            "mono": span.mono,
            "dur": span.dur,
            "attrs": span.attrs,
        })

    def event(self, name: str, **attrs) -> None:
        """Record a zero-duration point event under the current span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and parent.suppressed:
            return
        self._write({
            "kind": "event",
            "name": name,
            "parent": parent.span_id if parent is not None else None,
            "ts": time.time(),
            "mono": time.perf_counter(),
            "attrs": dict(attrs),
        })

    # -- output --------------------------------------------------------------

    def _write(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"), default=_jsonable)
        with self._lock:
            if self._fh.closed:
                return
            self._fh.write(line + "\n")
            self.fold.add(record)

    def metrics(self) -> dict:
        """A copy of :attr:`fold`'s state: every record written so far."""
        with self._lock:
            return copy.deepcopy(self.fold.state)

    def flush(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()


# -- the process-wide recorder -------------------------------------------------

_recorder: NullRecorder | JsonlTraceRecorder = NULL_RECORDER


def get_recorder():
    """The currently installed recorder (the no-op one by default)."""
    return _recorder


def set_recorder(recorder) -> None:
    """Install ``recorder`` process-wide (``None`` restores the no-op)."""
    global _recorder
    _recorder = recorder if recorder is not None else NULL_RECORDER


class use_recorder:
    """Context manager installing a recorder for one run, then restoring.

    The previous recorder is restored (and the installed one flushed) on
    exit, even on error -- what :func:`repro.api.runner.obs_session`
    builds on.
    """

    def __init__(self, recorder):
        self.recorder = recorder
        self._previous = None

    def __enter__(self):
        self._previous = get_recorder()
        set_recorder(self.recorder)
        return self.recorder

    def __exit__(self, *exc) -> bool:
        set_recorder(self._previous)
        self.recorder.flush()
        return False

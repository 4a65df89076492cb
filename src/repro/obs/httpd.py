"""A tiny ``GET /metrics`` HTTP endpoint for live introspection.

When a run sets ``obs.metrics_port``, the federation server (or the
in-process runner) starts this single-threaded stdlib HTTP server on a
daemon thread.  It serves the run's :class:`JsonlTraceRecorder`: the
fold of every record the recorder has written, so what it shows is what
the trace file says.  Two routes:

- ``/metrics`` -- the fold as Prometheus text exposition
  (:func:`repro.obs.summary.render_prometheus`), scrapeable by any
  Prometheus-compatible collector;
- ``/metrics.json`` -- the fold's state as JSON, for ``curl | jq`` style
  spot checks.

Everything else 404s.  The endpoint is read-only and carries no run
control; it exists so a long networked run can be watched without
touching the training process.
"""

from __future__ import annotations

import http.server
import json
import threading

from .summary import render_prometheus
from .trace import JsonlTraceRecorder


class _MetricsHandler(http.server.BaseHTTPRequestHandler):
    recorder: JsonlTraceRecorder  # set by start_metrics_server

    def do_GET(self):  # noqa: N802 (http.server API)
        if self.path.split("?", 1)[0] == "/metrics":
            body = render_prometheus(self.recorder.metrics()).encode()
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        elif self.path.split("?", 1)[0] == "/metrics.json":
            body = json.dumps(self.recorder.metrics(), indent=2).encode()
            ctype = "application/json"
        else:
            self.send_error(404)
            return
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # silence per-request stderr spam
        pass


class MetricsServer:
    """The running endpoint: ``.port`` for discovery, ``.close()`` to stop."""

    def __init__(self, httpd: http.server.HTTPServer,
                 thread: threading.Thread):
        self._httpd = httpd
        self._thread = thread
        self.port: int = httpd.server_address[1]

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def start_metrics_server(port: int, recorder: JsonlTraceRecorder,
                         host: str = "127.0.0.1") -> MetricsServer:
    """Serve ``recorder``'s fold on ``host:port``.

    ``port=0`` binds an OS-assigned port (read it back from the returned
    object).  The server runs on a daemon thread and never blocks run
    shutdown.
    """
    handler = type("BoundMetricsHandler", (_MetricsHandler,), {
        "recorder": recorder,
    })
    httpd = http.server.HTTPServer((host, int(port)), handler)
    thread = threading.Thread(
        target=httpd.serve_forever, name="repro-metrics", daemon=True
    )
    thread.start()
    return MetricsServer(httpd, thread)

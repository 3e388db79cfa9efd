"""Live Prometheus endpoint over a stdlib HTTP server.

:func:`start_metrics_server` exposes a registry's Prometheus text at
``/metrics`` (``python -m repro.obs serve`` wraps it).
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from .registry import MetricsRegistry


# ----------------------------------------------------------------------
# Live Prometheus endpoint
# ----------------------------------------------------------------------
class _MetricsHandler(BaseHTTPRequestHandler):
    """Serves the owning server's registry as Prometheus text."""

    server: "MetricsServer"

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        if self.path.split("?")[0] not in ("/", "/metrics"):
            self.send_error(404, "only /metrics is served")
            return
        body = self.server.render().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        pass  # HTTP access logs would interleave with the cycle dashboard


class MetricsServer(ThreadingHTTPServer):
    """Stdlib HTTP server exposing one registry at ``/metrics``.

    The monitoring cycle runs in the main thread and mutates the
    registry's plain dicts without locking, so request handlers never
    read the registry directly: the cycle loop calls :meth:`publish`
    after each cycle and handlers serve the last published text (an
    atomic string swap).  ``publish()`` with no argument renders the
    bound registry on the spot — callers that *are* the mutating thread
    use that form.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], registry: MetricsRegistry) -> None:
        super().__init__(address, _MetricsHandler)
        self.registry = registry
        self._text = "# metrics: no cycle published yet\n"

    def publish(self, text: Optional[str] = None) -> None:
        if text is None:
            from .export import prometheus_text

            text = prometheus_text(self.registry)
        self._text = text

    def render(self) -> str:
        return self._text


def start_metrics_server(
    registry: MetricsRegistry, host: str = "127.0.0.1", port: int = 0
) -> Tuple[MetricsServer, threading.Thread]:
    """Serve ``registry`` at ``http://host:port/metrics`` in a daemon thread.

    ``port=0`` binds an ephemeral port — read the actual one from
    ``server.server_address``.  Call ``server.publish()`` after each
    cycle to refresh the exposed text, and ``server.shutdown()`` to stop.
    """
    server = MetricsServer((host, port), registry)
    server.publish()
    thread = threading.Thread(
        target=server.serve_forever, name="repro-obs-metrics", daemon=True
    )
    thread.start()
    return server, thread

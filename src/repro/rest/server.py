"""Socket transport for the REST app (stdlib http.server).

Optional — everything in the repository works through the in-process
client — but ``repro serve`` exposes the node on localhost so the API
can be driven with curl, as the real un-orchestrator is.

Every response — status line, headers and body — leaves in **one**
``sendall``, and accepted sockets set ``TCP_NODELAY``.  A response
split over two small writes makes the second wait for the client's
delayed ACK of the first (~40 ms per request on a keep-alive
connection, whatever the handler costs); one write has nothing to
wait for.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.core.node import ComputeNode
from repro.rest.app import Response, RestApp

__all__ = ["NodeHttpServer", "serve_node"]


def _make_handler(app: RestApp):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def _dispatch(self, method: str) -> None:
            try:
                length = int(self.headers.get("Content-Length", "0") or "0")
                if length < 0:
                    raise ValueError(length)
            except ValueError:
                # The body's extent is unknown, so the connection cannot
                # be resynchronized for a next request: answer and close.
                self._reply(Response(400, {
                    "error": "Content-Length must be a non-negative "
                             "integer"}), close=True)
                return
            body = self.rfile.read(length) if length else b""
            self._reply(app.handle(method, self.path, body))

        def _reply(self, response: Response, close: bool = False) -> None:
            """Write the whole response in one ``sendall`` (see the
            module docstring)."""
            payload = response.to_bytes()
            status = response.status
            reason = self.responses.get(status, ("",))[0]
            head = (f"{self.protocol_version} {status} {reason}\r\n"
                    f"Server: {self.version_string()}\r\n"
                    f"Date: {self.date_time_string()}\r\n"
                    f"Content-Type: {response.content_type}\r\n"
                    f"Content-Length: {len(payload)}\r\n")
            if close:
                self.close_connection = True
                head += "Connection: close\r\n"
            self.wfile.write(head.encode("latin-1") + b"\r\n" + payload)

        def do_GET(self) -> None:       # noqa: N802 (http.server API)
            self._dispatch("GET")

        def do_PUT(self) -> None:       # noqa: N802
            self._dispatch("PUT")

        def do_DELETE(self) -> None:    # noqa: N802
            self._dispatch("DELETE")

        def do_POST(self) -> None:      # noqa: N802
            self._dispatch("POST")

        def log_message(self, fmt: str, *args) -> None:
            pass  # tests and examples keep stdout clean

    return Handler


class NodeHttpServer:
    """ThreadingHTTPServer wrapper with clean start/stop."""

    def __init__(self, node: ComputeNode, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.app = RestApp(node)
        self._server = ThreadingHTTPServer((host, port),
                                           _make_handler(self.app))
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "NodeHttpServer":
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="rest-server", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


def serve_node(node: ComputeNode, host: str = "127.0.0.1",
               port: int = 8080) -> NodeHttpServer:
    """Start serving ``node``; returns the running server."""
    return NodeHttpServer(node, host=host, port=port).start()

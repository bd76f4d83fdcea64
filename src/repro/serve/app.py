"""The HTTP adapter: a dependency-free stdlib server.

The adapter is *thin*: every endpoint parses the payload with
:mod:`repro.serve.schemas` and delegates to an
:class:`~repro.serve.service.ExperimentService` method, and every
:class:`~repro.errors.ServeError` maps to its ``status`` with the same
``{"error", "detail"}`` JSON body.

Endpoints
---------

- ``POST /solve`` — submit one run; 200 with the job view (already
  ``done`` + ``cache_hit`` on a store hit).
- ``POST /grid`` — submit a grid; same semantics per cell.
- ``GET /jobs/{id}`` — job status/result view.
- ``GET /jobs/{id}/events`` — the job's JSONL event stream
  (``application/x-ndjson``; lifecycle + per-cycle events).
- ``GET /records/{key}`` — the stored record payload under a cell key.
- ``GET /metrics`` — the service registry snapshot (``serve.cache``
  hit/miss counters, ``grid.*`` operational counters, ledger gauges).
- ``GET /healthz`` — liveness + code version (what the cache keys pin).

The server is a :class:`http.server.ThreadingHTTPServer`, so the
service runs wherever Python does.  A response is one write: status
line, headers and body leave in a single ``sendall`` on a
``TCP_NODELAY`` socket.  Written as separate sends on a Nagle socket,
every keep-alive response waited out the client's delayed ACK (a
measured 44 ms floor under each request).
"""

from __future__ import annotations

import json
import signal
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import BadRequestError, ConfigError, ServeError
from repro.serve.schemas import parse_grid_request, parse_solve_request
from repro.serve.service import ExperimentService

__all__ = ["create_server", "serve_forever"]

#: Largest accepted request body; a grid submission is a few hundred
#: bytes, so anything near this is abuse, not a client.
MAX_BODY_BYTES = 1 << 20


def _error_body(exc: Exception, status: int) -> dict:
    return {"error": type(exc).__name__, "detail": str(exc), "status": status}


def _dispatch_get(service: ExperimentService, path: str) -> tuple[int, object, str]:
    """Route one GET; returns ``(status, body, content_type)`` where a
    str body is served verbatim and anything else as JSON."""
    if path == "/healthz":
        from repro.experiments.keys import code_version

        return 200, {"ok": True, "code_version": code_version()}, "json"
    if path == "/metrics":
        return 200, service.metrics(), "json"
    if path.startswith("/jobs/"):
        rest = path[len("/jobs/"):]
        if rest.endswith("/events"):
            job_id = rest[: -len("/events")]
            return 200, service.job_events(job_id), "ndjson"
        if "/" not in rest and rest:
            return 200, service.job(rest), "json"
    if path.startswith("/records/"):
        key = path[len("/records/"):]
        if "/" not in key and key:
            return 200, service.record(key), "json"
    raise BadRequestError(f"no such endpoint: GET {path}")


def _dispatch_post(
    service: ExperimentService, path: str, payload: object
) -> tuple[int, object, str]:
    if path == "/solve":
        return 200, service.submit_solve(parse_solve_request(payload)), "json"
    if path == "/grid":
        return 200, service.submit_grid(parse_grid_request(payload)), "json"
    raise BadRequestError(f"no such endpoint: POST {path}")


class _Handler(BaseHTTPRequestHandler):
    """Stdlib request handler bound to ``self.server.service``."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket: an event stream longer than
    # one segment must not wait on Nagle for its last partial segment.
    disable_nagle_algorithm = True

    # The default handler logs every request to stderr; the service has
    # metrics for that.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    def _respond(self, status: int, body: object, content_type: str) -> None:
        if content_type == "ndjson":
            raw = str(body).encode("utf-8")
            ctype = "application/x-ndjson"
        else:
            raw = (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
            ctype = "application/json"
        head = (
            f"{self.protocol_version} {status} {HTTPStatus(status).phrase}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(raw)}\r\n\r\n"
        )
        self.wfile.write(head.encode("latin-1") + raw)

    def _handle(self, method: str) -> None:
        service: ExperimentService = self.server.service  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if method == "GET":
                status, body, ctype = _dispatch_get(service, path)
            else:
                length = int(self.headers.get("Content-Length") or 0)
                if length > MAX_BODY_BYTES:
                    raise BadRequestError(
                        f"request body of {length} bytes exceeds the "
                        f"{MAX_BODY_BYTES}-byte limit"
                    )
                raw = self.rfile.read(length) if length else b""
                try:
                    payload = json.loads(raw.decode("utf-8")) if raw else {}
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise BadRequestError(
                        f"request body is not valid JSON: {exc}"
                    ) from exc
                status, body, ctype = _dispatch_post(service, path, payload)
        except ServeError as exc:
            self._respond(exc.status, _error_body(exc, exc.status), "json")
            return
        except ConfigError as exc:
            # Library-level validation that slipped past the schemas
            # (e.g. planner limits) is still the client's fault.
            self._respond(400, _error_body(exc, 400), "json")
            return
        except Exception as exc:  # pragma: no cover - defensive 500
            self._respond(500, _error_body(exc, 500), "json")
            return
        self._respond(status, body, ctype)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._handle("POST")


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server carrying the service for its handlers."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: ExperimentService):
        super().__init__(address, _Handler)
        self.service = service


def create_server(
    service: ExperimentService, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Bind the stdlib backend; ``port=0`` picks a free port (see
    ``server.server_address``).  Call ``serve_forever()`` to run."""
    return ServiceHTTPServer((host, port), service)


def _interrupt(signum: int, frame: object) -> None:
    raise KeyboardInterrupt


def serve_forever(server: ServiceHTTPServer) -> None:
    """Run until interrupted (``SIGINT``) or terminated (``SIGTERM``),
    then stop the HTTP server and both worker pools cleanly.

    ``SIGTERM`` is what a supervisor sends; unhandled it would kill the
    process without :meth:`ExperimentService.close` and leave the forked
    compute workers to notice on their own that their parent is gone.
    """
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _interrupt)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - signal path
        pass
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()

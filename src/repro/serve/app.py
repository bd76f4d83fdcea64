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
service runs wherever Python does.
"""

from __future__ import annotations

import json
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
        from repro.experiments.journal import code_version

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
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

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


def serve_forever(server: ServiceHTTPServer) -> None:
    """Run until interrupted, then stop the worker pool cleanly."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()

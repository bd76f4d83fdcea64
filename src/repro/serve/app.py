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

The handler reads a request's head itself (:meth:`_Handler.
parse_request`): lines straight off the socket into a dict keyed by
lower-cased name, where the stdlib hands every header block to the
``email`` package — a third of a cached request's server time.  It
keeps the stdlib's rules: request-line and version checks (400, 505
for ``HTTP/2``, HTTP/0.9 only for ``GET``), lines of at most
:data:`MAX_LINE_BYTES` and at most :data:`MAX_HEADERS` header lines
(431), ``Connection`` and ``Expect: 100-continue``, the ``//`` path
collapse; an obs-fold or colonless header line is a 400.  There is one
parser and nothing selects another.

A body the handler will not read — a ``Content-Length`` that is not a
non-negative integer or exceeds :data:`MAX_BODY_BYTES`, or a
``Transfer-Encoding`` — is refused with a 400 that closes the
connection: left unread, its bytes would be parsed as the next request.

No read waits longer than :data:`READ_TIMEOUT_S`: a stalled head, a
stalled body and an idle keep-alive connection all close the connection
and end its handler thread.  That, and a client that resets its
connection, ends quietly — no traceback on stderr — and counts in
``serve.http.dropped{reason=timeout|reset}``.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import BadRequestError, ConfigError, ServeError
from repro.serve.schemas import parse_grid_request, parse_solve_request
from repro.serve.service import ExperimentService

__all__ = ["create_server", "serve_forever"]

#: Largest accepted request body; a grid submission is a few hundred
#: bytes, so anything near this is abuse, not a client.
MAX_BODY_BYTES = 1 << 20

#: The longest one read of a connection may wait, in seconds: for a
#: request head, a body, or the next request on a kept-alive connection.
#: Set above the longest gap a client of the end-to-end benchmark leaves:
#: its control connection reads ``/metrics`` before and after the whole
#: measured loop and idles in between, ``--seconds`` plus one round
#: (10.04 s at the contract's 10 s; every loop client's gap was under
#: 30 ms).  No run of that harness may last longer than 180 s, so no
#: gap can either.
READ_TIMEOUT_S = 180.0

#: The stdlib's limits on a request head: the longest line, and the
#: most header lines.
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100


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
    _server_line = f"Server: {server_version} {BaseHTTPRequestHandler.sys_version}\r\n"
    #: ``(second, "Date: ...\r\n")``, shared by every handler thread; a
    #: racing refresh writes the same string.
    _date_line = (0, "")

    # ``StreamRequestHandler.setup`` puts it on the socket; read per
    # connection, so the module constant is the one place to set it.
    timeout = property(lambda self: READ_TIMEOUT_S)

    # The default handler logs every request to stderr; the service has
    # metrics for that.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    def handle_one_request(self) -> None:
        """Serve one request off the connection, as the stdlib does; a
        read past the deadline or a reset connection closes it quietly
        and counts in ``serve.http.dropped``."""
        try:
            self.raw_requestline = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(self.raw_requestline) > MAX_LINE_BYTES:
                self.requestline = self.request_version = self.command = ""
                self.send_error(414)
                return
            if not self.raw_requestline:
                self.close_connection = True
                return
            if not self.parse_request():
                return
            method = getattr(self, "do_" + self.command, None)
            if method is None:
                self.send_error(501, f"Unsupported method ({self.command!r})")
                return
            method()
            return
        except TimeoutError:
            reason = "timeout"
        except ConnectionError:
            reason = "reset"
        self.close_connection = True
        service: ExperimentService = self.server.service  # type: ignore[attr-defined]
        service._count("serve.http.dropped", {"reason": reason})

    def parse_request(self) -> bool:
        """Read the request line and headers; on a defect send the
        error (which closes the connection) and return False."""
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            numbers = version[5:].split(".")
            if not (
                version.startswith("HTTP/")
                and len(numbers) == 2
                and all(n.isascii() and n.isdigit() and len(n) <= 10 for n in numbers)
            ):
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            number = (int(numbers[0]), int(numbers[1]))
            if number >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
                return False
            self.close_connection = number < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({self.requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(400, f"Bad HTTP/0.9 request type ({command!r})")
                return False
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path

        # By lower-cased name; the first occurrence of a name wins, as
        # with ``email.message.Message.get`` -- except a Content-Length
        # that differs from an earlier one: which of them frames the body
        # is unknown (RFC 9112 section 6.3), so both are kept as a field
        # list, which ``_read_body`` refuses.
        self.headers = headers = {}
        for _ in range(MAX_HEADERS + 1):
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                self.send_error(
                    431, "Line too long", f"a header line exceeds {MAX_LINE_BYTES} bytes"
                )
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.decode("iso-8859-1").partition(":")
            # No colon, an obs-fold continuation (leading whitespace) or
            # whitespace before the colon: RFC 9112 says 400.
            if not colon or not name or " " in name or "\t" in name:
                self.send_error(400, f"Bad header line ({line[:80]!r})")
                return False
            name, value = name.lower(), value.strip(" \t\r\n")
            first = headers.setdefault(name, value)
            if name == "content-length" and first != value:
                headers[name] = f"{first}, {value}"
        else:
            self.send_error(
                431, "Too many headers", f"more than {MAX_HEADERS} header lines"
            )
            return False

        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            headers.get("expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def _read_body(self) -> bytes:
        """The request body; ``BadRequestError`` for one it will not
        read, whose bytes are then still on the connection."""
        if "transfer-encoding" in self.headers:
            raise BadRequestError("Transfer-Encoding request bodies are not supported")
        value = self.headers.get("content-length", "0")
        if not (value.isascii() and value.isdigit()):
            raise BadRequestError(
                f"Content-Length {value!r} is not a non-negative integer"
            )
        length = int(value)
        if length > MAX_BODY_BYTES:
            raise BadRequestError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        return self.rfile.read(length) if length else b""

    def _respond(
        self, status: int, body: object, content_type: str, close: bool = False
    ) -> None:
        if content_type == "ndjson":
            raw = str(body).encode("utf-8")
            ctype = "application/x-ndjson"
        else:
            raw = (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
            ctype = "application/json"
        now = int(time.time())
        second, date = _Handler._date_line
        if second != now:
            date = f"Date: {self.date_time_string(now)}\r\n"
            _Handler._date_line = (now, date)
        connection = ""
        if close:
            self.close_connection = True
            connection = "Connection: close\r\n"
        head = (
            f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
            f"{self._server_line}{date}{connection}"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(raw)}\r\n\r\n"
        )
        self.wfile.write(head.encode("latin-1") + raw)

    def _handle(self, method: str) -> None:
        service: ExperimentService = self.server.service  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            raw = self._read_body()
        except BadRequestError as exc:
            # Unread, the body would be parsed as the next request.
            self._respond(400, _error_body(exc, 400), "json", close=True)
            return
        try:
            if method == "GET":
                status, body, ctype = _dispatch_get(service, path)
            else:
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

"""End-to-end tests over the stdlib HTTP backend.

One real server on a loopback port, driven with :mod:`urllib` — no
HTTP-client dependency.  These prove the wire contract: JSON shapes,
typed error bodies with the right status codes, the ndjson event
stream, and the cache-hit flow as an actual client would see it.
"""

import json
import re
import socket
import statistics
import struct
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import ExperimentService, app, create_server
from repro.serve.app import MAX_BODY_BYTES, _Handler


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-http")
    service = ExperimentService(root, workers=2, max_pending=8)
    srv = create_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    service.close()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def base(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def _get(url):
    with urllib.request.urlopen(url) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read().decode()


def _post(url, payload):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req) as resp:
        return resp.status, json.loads(resp.read())


def _error(fn, *args):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        fn(*args)
    err = excinfo.value
    return err.code, json.loads(err.read())


SOLVE = {"scheme": "GP-DK", "total_work": 250, "n_pes": 4, "seed": 11}
GRID = {"schemes": ["GP-DK"], "works": [150], "pes": [2, 4], "base_seed": 3}


class TestHealthAndMetrics:
    def test_healthz(self, base):
        status, ctype, body = _get(f"{base}/healthz")
        assert status == 200
        assert ctype == "application/json"
        payload = json.loads(body)
        assert payload["ok"] is True
        assert "code_version" in payload

    def test_metrics_shape(self, base):
        status, _, body = _get(f"{base}/metrics")
        assert status == 200
        snapshot = json.loads(body)
        assert "counters" in snapshot


class TestSolveFlow:
    def test_submit_poll_resubmit(self, base, server):
        status, view = _post(f"{base}/solve", SOLVE)
        assert status == 200
        assert view["kind"] == "solve"
        assert view["cache_hit"] is False

        server.service.wait(view["id"])
        _, _, body = _get(f"{base}/jobs/{view['id']}")
        done = json.loads(body)
        assert done["status"] == "done"
        assert done["computed_cells"] == 1

        _, again = _post(f"{base}/solve", SOLVE)
        assert again["status"] == "done"
        assert again["cache_hit"] is True
        assert again["keys"] == view["keys"]

    def test_record_endpoint(self, base, server):
        _, view = _post(f"{base}/solve", SOLVE)
        server.service.wait(view["id"])
        key = view["keys"][0]
        _, _, body = _get(f"{base}/records/{key}")
        payload = json.loads(body)
        assert payload["key"] == key
        assert payload["record"]["scheme"] == "GP-DK"

    def test_events_stream_is_ndjson(self, base, server):
        _, view = _post(f"{base}/solve", SOLVE)
        server.service.wait(view["id"])
        status, ctype, body = _get(f"{base}/jobs/{view['id']}/events")
        assert status == 200
        assert ctype == "application/x-ndjson"
        events = [json.loads(line) for line in body.strip().splitlines()]
        assert events, "event stream must not be empty"
        job_events = [e for e in events if e["kind"] == "job"]
        assert job_events[-1]["status"] == "finished"


class TestGridFlow:
    def test_grid_then_cached_resubmit(self, base, server):
        status, view = _post(f"{base}/grid", GRID)
        assert status == 200
        assert view["n_cells"] == 2
        server.service.wait(view["id"])

        _, again = _post(f"{base}/grid", GRID)
        assert again["status"] == "done"
        assert again["cache_hit"] is True
        assert again["cached_cells"] == 2
        assert again["computed_cells"] == 0


class TestErrorContract:
    def test_unknown_endpoint_404_shape_is_400(self, base):
        code, body = _error(_get, f"{base}/nope")
        assert code == 400
        assert body["error"] == "BadRequestError"

    def test_unknown_job_is_404(self, base):
        code, body = _error(_get, f"{base}/jobs/job-424242")
        assert code == 404
        assert body["error"] == "JobNotFoundError"
        assert "detail" in body

    def test_unknown_record_is_404(self, base):
        code, body = _error(_get, f"{base}/records/{'cd' * 32}")
        assert code == 404
        assert body["error"] == "RecordNotFoundError"

    def test_traversal_key_is_400(self, base):
        code, body = _error(_get, f"{base}/records/not-a-key")
        assert code == 400
        assert body["error"] == "BadRequestError"

    def test_bad_scheme_is_400(self, base):
        code, body = _error(
            _post, f"{base}/solve", {**SOLVE, "scheme": "FIFO"}
        )
        assert code == 400
        assert body["error"] == "BadRequestError"
        assert "unknown scheme" in body["detail"]

    def test_invalid_json_body_is_400(self, base):
        req = urllib.request.Request(
            f"{base}/solve",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"] == "BadRequestError"

    def test_queue_full_is_429(self, tmp_path):
        service = ExperimentService(tmp_path, workers=1, max_pending=1)
        srv = create_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        host, port = srv.server_address[:2]
        url = f"http://{host}:{port}"
        release = threading.Event()
        service._run_solve = lambda job: release.wait(timeout=30) and None
        try:
            _, first = _post(
                f"{url}/solve",
                {"scheme": "GP-DK", "total_work": 50, "n_pes": 2, "seed": 1},
            )
            code, body = _error(
                _post,
                f"{url}/solve",
                {"scheme": "GP-DK", "total_work": 50, "n_pes": 2, "seed": 2},
            )
            assert code == 429
            assert body["error"] == "QueueFullError"
            release.set()
            service.queue.wait(first["id"])
        finally:
            release.set()
            srv.shutdown()
            srv.server_close()
            service.close()
            thread.join(timeout=10)


class _KeepAliveClient:
    """One keep-alive connection that cannot itself cause a delayed-ACK
    stall: ``TCP_NODELAY``, and each request leaves in one ``sendall``.
    Whatever stall is left is the server's."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def close(self):
        self.sock.close()

    def request(self, method, path, body=b""):
        """``(status, content type, body bytes)`` of one round trip."""
        self.sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        return self.response()

    def response(self):
        """``(status, content type, body bytes)`` of the next response."""
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head, self.buf = self.buf.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.lower().split(": ", 1) for line in lines[1:])
        length = int(headers["content-length"])
        while len(self.buf) < length:
            self._fill()
        payload, self.buf = self.buf[:length], self.buf[length:]
        return int(lines[0].split()[1]), headers["content-type"], payload

    def _fill(self):
        chunk = self.sock.recv(65536)
        assert chunk, "server closed the keep-alive connection"
        self.buf += chunk


class TestOneSegmentResponses:
    """A response is one write on a ``TCP_NODELAY`` socket.  Status
    line, headers and body as separate sends on a Nagle socket made
    every keep-alive response wait ~44 ms for the client's delayed ACK."""

    @pytest.fixture()
    def counted(self, tmp_path, monkeypatch):
        """A server whose handlers record every ``wfile.write`` and
        their socket's ``TCP_NODELAY``; yields ``(client, service,
        writes, nodelay)``."""
        writes, nodelay = [], []

        class CountingWriter:
            def __init__(self, inner):
                self._inner = inner

            def write(self, data):
                writes.append(bytes(data))
                return self._inner.write(data)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        plain_setup = _Handler.setup

        def counting_setup(handler):
            plain_setup(handler)
            nodelay.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            handler.wfile = CountingWriter(handler.wfile)

        monkeypatch.setattr(_Handler, "setup", counting_setup)
        service = ExperimentService(tmp_path, workers=1, max_pending=4)
        srv = create_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        client = _KeepAliveClient(srv.server_address[:2])
        try:
            yield client, service, writes, nodelay
        finally:
            client.close()
            srv.shutdown()
            srv.server_close()
            service.close()
            thread.join(timeout=10)

    def test_json_ndjson_and_error_bodies_are_one_write_each(self, counted):
        client, service, writes, nodelay = counted
        solve = json.dumps(
            {"scheme": "GP-S0.75", "total_work": 4000, "n_pes": 16, "seed": 3}
        ).encode()
        status, ctype, body = client.request("POST", "/solve", solve)
        assert (status, ctype) == (200, "application/json")
        job_id = json.loads(body)["id"]
        service.wait(job_id, timeout=60)
        answers = [
            client.request("GET", "/healthz"),
            client.request("GET", f"/jobs/{job_id}/events"),
            client.request("GET", "/jobs/job-424242"),
            client.request("POST", "/solve", b"{not json"),
        ]
        assert [a[0] for a in answers] == [200, 200, 404, 400]
        assert answers[1][1] == "application/x-ndjson"
        # The event stream is far larger than one 1460-byte segment:
        # the case where Nagle would hold back the last partial one.
        assert len(answers[1][2]) > 8 * 1460
        assert len(writes) == 1 + len(answers)
        for raw, (_, _, payload) in zip(writes[1:], answers):
            assert raw.startswith(b"HTTP/1.1 ") and raw.endswith(b"\r\n\r\n" + payload)
        assert nodelay and all(nodelay)

    def test_keep_alive_round_trip_has_no_delayed_ack_stall(self, counted):
        """Loose on purpose: the stall is a deterministic >= 40 ms, a
        loopback round trip well under a millisecond."""
        client = counted[0]
        times = []
        for _ in range(20):
            t0 = time.perf_counter()
            assert client.request("GET", "/healthz")[0] == 200
            times.append(time.perf_counter() - t0)
        assert statistics.median(times) < 0.020


def _read_responses(raw):
    """Split the bytes of a connection into ``(status, headers, body)``
    responses; headers keyed by lower-cased name.  An error to a request
    line with no valid version is an HTTP/0.9 reply, its HTML body
    alone, as the stdlib sends it."""
    if raw and not raw.startswith(b"HTTP/"):
        return [(int(re.search(rb"Error code: (\d+)", raw)[1]), {}, raw)]
    responses = []
    while raw:
        head, raw = raw.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, value = line.split(":", 1)
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        body, raw = raw[:length], raw[length:]
        responses.append((int(lines[0].split()[1]), headers, body))
    return responses


def _until_closed(address, data, timeout=5.0):
    """Send ``data`` on a new connection and read until the server
    closes it; a server that leaves it open fails the test by the
    socket's timeout instead of stalling it."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(data)
        received = b""
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            received += chunk
    return _read_responses(received)


def _json(body):
    return json.loads(body.decode())


class TestRequestHead:
    """The handler reads request heads itself, under the stdlib's
    rules.  Every case here sends raw bytes and reads until the server
    closes the connection, with a socket timeout."""

    @pytest.fixture()
    def address(self, server):
        return server.server_address[:2]

    def _one(self, address, data):
        responses = _until_closed(address, data)
        assert len(responses) == 1, responses
        return responses[0]

    @pytest.mark.parametrize("length, status", [(65536, 200), (65537, 431)])
    def test_header_line_cap(self, address, length, status):
        prefix = b"X-Pad: "
        line = prefix + b"a" * (length - len(prefix) - 2) + b"\r\n"
        assert len(line) == length
        head = b"GET /healthz HTTP/1.1\r\n" + line + b"Connection: close\r\n\r\n"
        assert self._one(address, head)[0] == status

    @pytest.mark.parametrize("count, status", [(100, 200), (101, 431)])
    def test_header_count_cap(self, address, count, status):
        lines = b"Connection: close\r\n" + b"".join(
            f"X-H{i}: {i}\r\n".encode() for i in range(count - 1)
        )
        head = b"GET /healthz HTTP/1.1\r\n" + lines + b"\r\n"
        assert self._one(address, head)[0] == status

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"GET /healthz HTTP/1.x\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.\xb2\r\n\r\n", 400),
            (b"GET /healthz FTP/1.1\r\n\r\n", 400),
            (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
            (b"POST /solve\r\n\r\n", 400),
        ],
    )
    def test_bad_request_lines_are_refused(self, address, head, status):
        assert self._one(address, head)[0] == status

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"GET /a b HTTP/1.1\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nX-A: 1\r\n continued\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nX-A: 1\r\n\tX-B: 2\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nX-A : 1\r\n\r\n", 400),
        ],
    )
    def test_bad_header_lines_are_refused(self, address, head, status):
        got, headers, _ = self._one(address, head)
        assert got == status
        assert headers["connection"] == "close"

    def test_close_and_http10_close_the_connection(self, address):
        for head in (
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nconnection: CLOSE\r\n\r\n",
            b"GET /healthz HTTP/1.0\r\n\r\n",
            b"GET /healthz\r\n\r\n",
        ):
            status, _, body = self._one(address, head)
            assert status == 200
            assert _json(body)["ok"] is True

    def test_http10_keep_alive_stays_open(self, address):
        client = _KeepAliveClient(address)
        try:
            for _ in range(2):
                client.sock.sendall(
                    b"GET //healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
                )
                assert client.response()[0] == 200
        finally:
            client.close()

    def test_header_names_are_case_insensitive_and_the_first_wins(
        self, address, server
    ):
        """The first of a repeated header wins; a repeated Content-Length
        is read only when every copy agrees."""
        body = json.dumps(SOLVE).encode()
        client = _KeepAliveClient(address)
        try:
            for lengths in (
                f"content-length: {len(body)}\r\n",
                f"CONTENT-LENGTH: {len(body)}\r\nContent-Length: {len(body)}\r\n",
                f"Content-Length: {len(body)}\r\n"
                "Connection: keep-alive\r\nConnection: close\r\n",
            ):
                client.sock.sendall(
                    f"POST /solve HTTP/1.1\r\nHost: t\r\n{lengths}\r\n".encode() + body
                )
                status, _, payload = client.response()
                assert status == 200
                server.service.wait(_json(payload)["id"], timeout=60)
                # The body was read whole: the connection is still in step.
                assert client.request("GET", "/healthz")[0] == 200
        finally:
            client.close()
    def test_expect_100_continue(self, address):
        body = b"{not json"
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(
                b"POST /solve HTTP/1.1\r\nExpect: 100-continue\r\n"
                + f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode()
            )
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            rest = b""
            while chunk := sock.recv(65536):
                rest += chunk
        (status, _, payload), = _read_responses(rest)
        assert status == 400
        assert "not valid JSON" in _json(payload)["detail"]

    @pytest.mark.parametrize(
        "lengths, body",
        [
            # The refused body's bytes would be read as the next request.
            (f"Content-Length: {MAX_BODY_BYTES + 1}\r\n", b"A" * 1000 + b"\r\n\r\n"),
            ("Content-Length: -1\r\n", b""),
            ("Content-Length: abc\r\n", b""),
            ("Content-Length: +5\r\n", b"hello"),
            ("Transfer-Encoding: chunked\r\n", b"5\r\nhello\r\n0\r\n\r\n"),
            # Which length frames the body is unknown (RFC 9112 section 6.3).
            ("Content-Length: 2\r\nContent-Length: 0\r\n", b"{}"),
        ],
        ids=["oversized", "negative", "non-numeric", "signed", "chunked", "differing"],
    )
    def test_unread_body_is_refused_and_closes(self, address, lengths, body):
        head = f"POST /solve HTTP/1.1\r\nHost: t\r\n{lengths}\r\n".encode()
        status, headers, payload = self._one(address, head + body)
        assert status == 400
        assert headers["connection"] == "close"
        assert _json(payload)["error"] == "BadRequestError"

    def test_refused_body_closes_a_keep_alive_connection(self, address):
        client = _KeepAliveClient(address)
        client.sock.settimeout(5)
        try:
            client.sock.sendall(
                f"POST /grid HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
                + b"GET /healthz HTTP/1.1\r\n\r\n"
            )
            rest = b""
            while chunk := client.sock.recv(65536):
                rest += chunk
        finally:
            client.close()
        assert [r[0] for r in _read_responses(rest)] == [400]


def _dropped(server, reason):
    counters = server.service.metrics()["counters"]
    return counters.get(f"serve.http.dropped{{reason={reason}}}", 0)


def _settles(condition, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while not condition():
        if time.perf_counter() > deadline:
            return False
        time.sleep(0.02)
    return True


STALLED_BODY = b'POST /solve HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"sc'


class TestReadDeadline:
    """No read waits past ``READ_TIMEOUT_S`` (patched to 0.3 s here): a
    stalled head, a stalled body and an idle keep-alive connection are
    closed, their handler threads exit, and each drop is counted."""

    @pytest.fixture()
    def address(self, server, monkeypatch):
        monkeypatch.setattr(app, "READ_TIMEOUT_S", 0.3)
        return server.server_address[:2]

    @pytest.mark.parametrize(
        "data, answered",
        [
            (b"", 0),
            (b"GET /healthz HTTP/1.1\r\n\r\n", 1),
            (b"GET /healthz HTTP/1.1\r\nHost: t\r\n", 0),
            (STALLED_BODY, 0),
        ],
        ids=["idle", "idle-keep-alive", "stalled-head", "stalled-body"],
    )
    def test_stalled_connection_is_closed_and_counted(
        self, address, server, data, answered
    ):
        before = _dropped(server, "timeout")
        t0 = time.perf_counter()
        responses = _until_closed(address, data)
        assert time.perf_counter() - t0 < 3.0
        assert [r[0] for r in responses] == [200] * answered
        assert _dropped(server, "timeout") == before + 1

    def test_twenty_stalled_bodies_give_their_threads_back(self, address):
        base = threading.active_count()
        socks = [socket.create_connection(address, timeout=5) for _ in range(20)]
        try:
            for sock in socks:
                sock.sendall(STALLED_BODY)
            for sock in socks:
                assert sock.recv(1) == b""  # closed by the server, no reply
            assert _settles(lambda: threading.active_count() <= base)
        finally:
            for sock in socks:
                sock.close()

    def test_reset_is_counted_without_a_traceback(self, address, server, capfd):
        before = _dropped(server, "reset")
        sock = socket.create_connection(address, timeout=5)
        sock.sendall(b"POST /solve HTTP/1.1\r\nContent-Length: 100\r\n\r\n")
        time.sleep(0.05)
        # SO_LINGER 0: close sends RST, not FIN.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        assert _settles(lambda: _dropped(server, "reset") == before + 1)
        assert "Traceback" not in capfd.readouterr().err

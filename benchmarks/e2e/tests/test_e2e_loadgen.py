import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import loadgen
import served


class _Stub(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    STATUS = {"/busy": 429, "/boom": 500}

    def log_message(self, *args):
        pass

    def setup(self):
        super().setup()
        self.server.connections += 1

    def _answer(self):
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length)
        raw = json.dumps({"path": self.path, "echo": body.decode()}).encode()
        self.send_response(self.STATUS.get(self.path, 200))
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    do_GET = do_POST = _answer


@pytest.fixture
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    server.connections = 0
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


class _CountingSocket:
    def __init__(self, sock):
        self._sock, self.sends = sock, 0

    def sendall(self, data):
        self.sends += 1
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_client_keeps_one_connection_and_sends_each_request_once(stub):
    with loadgen.HttpClient(*stub.server_address) as client:
        client.sock = _CountingSocket(client.sock)
        for i in range(5):
            status, body = client.post("/ok", {"i": i})
            assert status == 200 and json.loads(body["echo"]) == {"i": i}
        assert client.get("/ok") == (200, {"path": "/ok", "echo": ""})
        assert client.sock.sends == client.requests == 6
    assert stub.connections == 1


def test_refused_and_failed_requests_count_as_failed_operations(stub):
    rec = served._recorder()
    with loadgen.HttpClient(*stub.server_address) as client:
        assert served._submit_and_wait(client, rec, "/busy", {}) is None
        assert served._submit_and_wait(client, rec, "/boom", {}) is None
    assert len(rec["failures"]) == 2 and rec["rejected"] == 1 and rec["jobs"] == 2


def test_closed_loop_runs_whole_rounds_on_every_client(stub):
    seen = []

    def one_round(client, c, r):
        assert client.get("/ok")[0] == 200
        seen.append((c, r))

    out = loadgen.closed_loop(*stub.server_address, 2, 0.2, one_round)
    assert out["requests"] == len(seen) == sum(len(r) for r in out["round_s"])
    assert all(len(rounds) >= 1 for rounds in out["round_s"])
    assert out["wall_s"] >= 0.2
    assert stub.connections == 2


def test_closed_loop_reraises_a_clients_error(stub):
    def bad_round(client, c, r):
        raise RuntimeError("round failed")

    with pytest.raises(RuntimeError, match="round failed"):
        loadgen.closed_loop(*stub.server_address, 2, 0.2, bad_round)


def test_more_clients_than_cores_is_refused(stub):
    with pytest.raises(SystemExit, match="refusing"):
        loadgen.closed_loop(*stub.server_address, (os.cpu_count() or 1) + 1, 0.1, None)

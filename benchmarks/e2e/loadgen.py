"""A closed-loop HTTP load generator over keep-alive connections.

Closed loop: each client sends its next request only when the previous
one has been answered — the callers of ``repro serve`` are scripts that
wait for their record — so a slow server receives less load and the
latencies hold no queueing the server did not cause.

The client disables Nagle (``TCP_NODELAY``) and writes each request,
headers and body, in one ``sendall``: a stall of a delayed-ACK period
can then only come from how the *server* writes its response.
"""

from __future__ import annotations

import json
import socket
import threading
import time

from spec import check_clients


class HttpClient:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""
        self.requests = 0

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def request(self, method: str, path: str, body: object = None) -> tuple[int, object]:
        """Send one request; return ``(status, decoded JSON body)``."""
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n"
        )
        self.sock.sendall(head.encode("ascii") + payload)
        self.requests += 1
        return self._read_response()

    def get(self, path: str) -> tuple[int, object]:
        return self.request("GET", path)

    def post(self, path: str, body: object) -> tuple[int, object]:
        return self.request("POST", path, body)

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the keep-alive connection")
        self._buf += chunk

    def _read_response(self) -> tuple[int, object]:
        while b"\r\n\r\n" not in self._buf:
            self._fill()
        head, self._buf = self._buf.split(b"\r\n\r\n", 1)
        lines = head.decode("iso-8859-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = dict(
            (k.strip().lower(), v.strip())
            for k, v in (line.split(":", 1) for line in lines[1:])
        )
        length = int(headers["content-length"])
        while len(self._buf) < length:
            self._fill()
        raw, self._buf = self._buf[:length], self._buf[length:]
        return status, (json.loads(raw) if raw else None)


def closed_loop(host: str, port: int, n_clients: int, seconds: float, run_round) -> dict:
    """Run ``run_round(client, client_index, round_index)`` on
    ``n_clients`` connections, each starting a new round until
    ``seconds`` have passed.

    Returns the wall time from the common start to the last client's
    end, and per client its round durations and request count.  An
    exception in any client is re-raised here after all have stopped.
    """
    check_clients(n_clients)
    barrier = threading.Barrier(n_clients + 1)
    clients = [
        {"round_s": [], "requests": 0, "end": 0.0, "error": None}
        for _ in range(n_clients)
    ]

    def work(index: int) -> None:
        me = clients[index]
        try:
            with HttpClient(host, port) as client:
                barrier.wait()
                deadline = time.perf_counter() + seconds
                round_index = 0
                while time.perf_counter() < deadline:
                    t0 = time.perf_counter()
                    run_round(client, index, round_index)
                    me["round_s"].append(time.perf_counter() - t0)
                    round_index += 1
                me["requests"] = client.requests
        except BaseException as exc:  # re-raised by the caller below
            me["error"] = exc
            barrier.abort()
        finally:
            me["end"] = time.perf_counter()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_clients)]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    errors = [me["error"] for me in clients if me["error"] is not None]
    if errors:
        # a client that merely saw the barrier broken is not the cause
        causes = [e for e in errors if not isinstance(e, threading.BrokenBarrierError)]
        raise (causes or errors)[0]
    return {
        "wall_s": max(me["end"] for me in clients) - start,
        "round_s": [me["round_s"] for me in clients],
        "requests": sum(me["requests"] for me in clients),
    }

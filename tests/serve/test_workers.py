"""Jobs compute in forked worker processes; the service owns their lives.

What moving the compute out of the queue's threads must not change —
``/metrics``, the served record, the served event stream — and what it
adds: a pool forked before the first thread exists, a dead worker that
fails its job and not the service, and no process left behind by
``close()``, ``SIGTERM`` or ``SIGKILL``.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.experiments.journal import CellJournal, cell_key
from repro.experiments.runner import (
    GridRecord,
    cell_seed,
    plan_grid,
    run_divisible,
    run_grid,
)
from repro.obs import MetricsRegistry, Observability
from repro.serve import ExperimentService, create_server
from repro.serve.schemas import parse_grid_request, parse_solve_request

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[2] / "src"

needs_proc = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads parent pids from /proc"
)


def _live_parent(pid: int) -> int | None:
    """The parent pid of a live (non-zombie) process, else ``None``."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:  # no such process (any more)
        return None
    state, ppid = stat.rsplit(")", 1)[1].split()[:2]
    return None if state == "Z" else int(ppid)


def _children(pid: int) -> list[int]:
    """Live processes whose parent is ``pid``."""
    pids = [int(e.name) for e in Path("/proc").iterdir() if e.name.isdigit()]
    return [child for child in pids if _live_parent(child) == pid]


def _gone_within(pids: list[int], seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while any(_live_parent(pid) is not None for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


# -- the oracle: the fold as the queue's own threads used to produce it ------


def _thread_side_snapshot(tmp_path, solves: list[dict], grid: dict) -> dict:
    """The registry snapshot of a service that ran ``solves`` then
    ``grid`` *in its own process*: each job's private registry folded
    into the service's, the grid resumed from a journal pre-seeded with
    the cells the solves had published."""
    service = MetricsRegistry()
    published = {}
    for body in solves:
        job = MetricsRegistry()
        metrics = run_divisible(
            body["scheme"], body["total_work"], body["n_pes"], seed=body["seed"],
            obs=Observability(metrics=job),
        )
        key = cell_key(body["scheme"], body["total_work"], body["n_pes"], body["seed"])
        published[key] = GridRecord(
            metrics.scheme, body["n_pes"], body["total_work"], metrics
        )
        service.fold(job)
    args = (grid["schemes"], grid["works"], grid["pes"])
    journal_path = tmp_path / "oracle.jrnl"
    journal = CellJournal(journal_path)
    for plan in plan_grid(*args, base_seed=grid["base_seed"]):
        key = cell_key(plan.scheme.name, plan.total_work, plan.n_pes, plan.seed)
        if key in published:
            journal.append(key, plan.index, published[key])
    job = MetricsRegistry()
    records = run_grid(
        *args, base_seed=grid["base_seed"], journal=journal_path, resume=True,
        registry=job,
    )
    service.fold(job)
    hits, n = len(published), len(records)
    service.counter("serve.requests", {"endpoint": "solve"}).inc(len(solves))
    service.counter("serve.requests", {"endpoint": "grid"}).inc()
    service.counter("serve.cache", {"result": "miss"}).inc(len(solves) + n - hits)
    service.counter("serve.cache", {"result": "hit"}).inc(hits)
    return service.snapshot()


class TestSameAnswersAsThreads:
    def test_metrics_after_a_solve_and_a_partial_grid(self, tmp_path):
        """serve-cold's round in small: three solves, then a six-scheme
        grid whose first three cells are exactly those solves."""
        schemes = ["GP-DK", "GP-S0.75", "nGP-S0.75", "nGP-DP", "GP-DP", "nGP-DK"]
        grid = {"schemes": schemes, "works": [2000], "pes": [16], "base_seed": 77}
        solves = [
            {"scheme": s, "total_work": 2000, "n_pes": 16, "seed": cell_seed(77, i)}
            for i, s in enumerate(schemes[:3])
        ]
        service = ExperimentService(tmp_path / "serve", workers=2)
        try:
            for body in solves:
                view = service.wait(
                    service.submit_solve(parse_solve_request(body))["id"], timeout=60
                )
                assert view["status"] == "done", view
            view = service.wait(
                service.submit_grid(parse_grid_request(grid))["id"], timeout=60
            )
            assert (view["cached_cells"], view["computed_cells"]) == (3, 3), view
            served = service.metrics()
        finally:
            service.close()
        oracle = _thread_side_snapshot(tmp_path, solves, grid)
        assert served["counters"]["grid.resumed_cells"] == 3.0
        assert served == oracle

    def test_served_solve_bytes_are_golden(self, tmp_path):
        """Event stream and stored record of one solve, byte for byte
        what the service wrote when the job ran on a queue thread."""
        body = {"scheme": "GP-S0.75", "total_work": 400, "n_pes": 8, "seed": 7}
        service = ExperimentService(tmp_path / "serve", workers=1)
        try:
            view = service.wait(
                service.submit_solve(parse_solve_request(body))["id"], timeout=60
            )
            stream = service.job_events(view["id"])
        finally:
            service.close()
        assert stream.encode() == (GOLDEN / "solve_events.jsonl").read_bytes()
        # The key pins the code version; the payload under it must not move.
        golden = (GOLDEN / "solve_record.json").read_text()
        key = view["keys"][0]
        expected = golden.replace(json.loads(golden)["key"], key)
        assert service.store.path_for(key).read_text() == expected


# -- the pool's life -----------------------------------------------------------


def _serve_in_thread(service):
    server = create_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, thread, f"http://{host}:{port}"


def _healthy(base: str) -> bool:
    with urllib.request.urlopen(f"{base}/healthz", timeout=10) as resp:
        return json.loads(resp.read())["ok"] is True


def test_dead_worker_fails_its_job_not_the_service(tmp_path):
    service = ExperimentService(tmp_path / "serve", workers=1)
    server, thread, base = _serve_in_thread(service)
    try:
        assert _healthy(base)
        first_pool = service._pool
        run_solve = service._run_solve
        service._run_solve = lambda job: service._compute(os._exit, 1)
        doomed = service.submit_solve(
            parse_solve_request(
                {"scheme": "GP-DK", "total_work": 300, "n_pes": 4, "seed": 1}
            )
        )
        failed = service.wait(doomed["id"], timeout=60)
        assert failed["status"] == "failed"
        assert failed["error_type"] == "BrokenProcessPool"
        assert _healthy(base)

        service._run_solve = run_solve
        assert service._pool is not first_pool
        again = service.submit_solve(
            parse_solve_request(
                {"scheme": "GP-DK", "total_work": 300, "n_pes": 4, "seed": 2}
            )
        )
        done = service.wait(again["id"], timeout=60)
        assert done["status"] == "done" and done["computed_cells"] == 1
        assert _healthy(base)
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


@needs_proc
def test_close_leaves_no_worker_and_is_idempotent(tmp_path):
    before = set(_children(os.getpid()))
    service = ExperimentService(tmp_path / "serve", workers=2)
    workers = sorted(set(_children(os.getpid())) - before)
    assert len(workers) == 2
    service.close()
    assert _gone_within(workers, 2.0)
    service.close()


# What `python -m repro serve` runs, with a hook that reports the thread
# count of the forking process at every fork.
_SERVE_WITH_FORK_REPORT = """
import os, sys, threading
os.register_at_fork(
    before=lambda: print("fork with threads:", threading.active_count(), flush=True)
)
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _boot(tmp_path, workers: int = 2):
    """A ``repro serve`` subprocess and every line it printed up to and
    including its banner."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-c", _SERVE_WITH_FORK_REPORT, "serve", "--port", "0",
         "--store", str(tmp_path / "store"), "--workers", str(workers)],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    lines = []
    while not lines or not lines[-1].startswith("repro serve"):
        line = proc.stdout.readline()
        assert line, f"server exited before its banner: {lines}"
        lines.append(line.strip())
    return proc, lines


@needs_proc
@pytest.mark.slow
class TestServeSubprocess:
    def test_pool_is_forked_before_any_thread_and_sigterm_stops_it_all(
        self, tmp_path
    ):
        proc, lines = _boot(tmp_path)
        try:
            # Both workers were forked, from a single-threaded process,
            # before the banner (hence before the HTTP server) existed.
            assert lines[:-1] == ["fork with threads: 1"] * 2
            base = "http://" + lines[-1].rsplit("http://", 1)[1]
            assert _healthy(base)
            workers = _children(proc.pid)
            assert len(workers) == 2
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
            assert _gone_within(workers, 2.0)
        finally:
            proc.kill()
            proc.stdout.close()

    def test_sigkill_orphans_nothing(self, tmp_path):
        proc, _ = _boot(tmp_path)
        try:
            workers = _children(proc.pid)
            assert len(workers) == 2
            proc.kill()
            proc.wait(timeout=10)
            assert _gone_within(workers, 2.0)
        finally:
            proc.kill()
            proc.stdout.close()

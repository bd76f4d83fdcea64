"""The two serve workloads: a real ``repro serve`` subprocess, driven by
closed-loop clients over HTTP.

``serve-cold`` sends only cells the store has never seen (every layer
from HTTP down to the fsynced journal and store *writes*); ``serve-warm``
sends only cells it primed (the same layers' *read* side, no compute,
queue bypassed).  An optimisation of one side should leave the other
workload's numbers where they were.
"""

from __future__ import annotations

import os
import random
import re
import select
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro import PAPER_SCHEMES, SMALL_SCALE, run_divisible
from repro.experiments.runner import GridRecord, cell_seed, plan_grid
from repro.experiments.store import record_to_dict

import probes
import stats
from inproc import GRID_PES, GRID_SCHEMES, GRID_WORKS
from loadgen import HttpClient, closed_loop
from spec import CLIENTS, OUT, SRC

#: Pause between two ``GET /jobs/{id}`` polls of a running job.
POLL_S = 0.002
#: Rounds per client whose records enter ``sim_digest`` and the
#: ``simd.sim_*`` statistics — few enough that every run reaches them,
#: so the simulated numbers never depend on host speed.
DIGEST_ROUNDS = 2
STARTUP_TIMEOUT_S = 30.0
GOLDEN = 0.6180339887498949

#: serve-cold's cells: the six Table 1 schemes at the smallest Table 2
#: size.  The first three are a round's solves, all six its grid.
COLD_SCHEMES = list(PAPER_SCHEMES)
COLD_WORK = SMALL_SCALE.works[0]
COLD_PES = 512


class Server:
    """One ``python -m repro serve --store … --port 0 --workers 2`` with
    default knobs (no ``--backend``), on a fresh store under ``out/``.

    Ready — banner parsed, ``/healthz`` answering — when the constructor
    returns; ``close`` stops the process and removes the store, also
    after a failure or an interrupt.
    """

    def __init__(self) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="serve-", dir=OUT))
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
            ),
            PYTHONUNBUFFERED="1",  # the banner must not sit in a pipe buffer
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store",
             str(self.root / "store"), "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            self.banner = self._read_banner()
            match = re.search(r"\[(\w+)\] on http://([\w.]+):(\d+)\s*$", self.banner)
            if match is None or match.group(3) == "0":
                raise SystemExit(
                    f"benchmark: cannot learn the server's port from its "
                    f"banner {self.banner!r}"
                )
            self.backend, self.host = match.group(1), match.group(2)
            self.port = int(match.group(3))
            self._wait_ready()
        except BaseException:
            self.close()
            raise

    def _read_banner(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], STARTUP_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise SystemExit(
                "benchmark: repro serve printed no banner "
                f"(exit code {self.proc.poll()})"
            )
        return line.strip()

    def _wait_ready(self) -> None:
        deadline = time.perf_counter() + STARTUP_TIMEOUT_S
        while True:
            try:
                with HttpClient(self.host, self.port) as client:
                    if client.get("/healthz")[0] == 200:
                        return
            except OSError:
                pass
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise SystemExit("benchmark: repro serve never answered /healthz")
            time.sleep(0.01)

    def client(self) -> HttpClient:
        return HttpClient(self.host, self.port)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.root, ignore_errors=True)


def _recorder(seed: object = 0) -> dict:
    """What one client records; ``seed`` places its poll phases."""
    return {
        "solve_s": [], "grid_s": [], "solve_trips": [], "jobs": 0, "cells": 0,
        "nodes": 0, "rejected": 0, "failures": [], "digest": [], "samples": [],
        "phase": random.Random(str(seed)).random(),
    }


def _fail(rec: dict, what: str, status: int, body: object) -> None:
    if status == 429:
        rec["rejected"] += 1
    rec["failures"].append(f"{what}: HTTP {status} {body}")


def _submit_and_wait(client: HttpClient, rec: dict, path: str, body: dict):
    """POST a job, poll it to a settled state; its view, or ``None``
    (failure recorded) when it was refused or did not end ``done``."""
    t0 = time.perf_counter()
    status, view = client.post(path, body)
    rec["jobs"] += 1
    # The first poll waits a share of one request round trip, as a poll
    # timer not aligned with the submission would.  Polling at once puts
    # every look at the job on a grid of one round trip (the server
    # holds each response ~44 ms) anchored at its own submission: a job
    # lasting about one round trip then needs one poll or two, run by
    # run, and the median moves by a whole round trip; and two clients
    # with the same fixed period keep whatever phase they start in, so
    # their jobs collide every round or never.  The shares step by the
    # golden ratio from a seeded start, which covers [0, 1) evenly in
    # far fewer jobs than independent draws would.
    rec["phase"] = (rec["phase"] + GOLDEN) % 1.0
    time.sleep(rec["phase"] * (time.perf_counter() - t0))
    while status == 200 and view["status"] in ("queued", "running"):
        time.sleep(POLL_S)
        status, view = client.get("/jobs/" + view["id"])
    if status != 200 or view["status"] != "done":
        _fail(rec, f"POST {path} {body}", status, view)
        return None
    return view


def _counters(client: HttpClient) -> dict:
    status, snapshot = client.get("/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    return snapshot["counters"]


def direct_records(solves: list[dict]) -> list[GridRecord]:
    """What ``run_divisible`` itself returns for these solve bodies."""
    out = []
    for body in solves:
        metrics = run_divisible(
            body["scheme"], body["total_work"], body["n_pes"], seed=body["seed"]
        )
        out.append(GridRecord(metrics.scheme, body["n_pes"], body["total_work"], metrics))
    return out


class ServeCold:
    """Every cell new.  One round: three ``POST /solve`` (each polled to
    ``done``, then its record fetched), then one ``POST /grid`` over six
    schemes whose first three cells are exactly those solves — a
    3-hit / 3-miss partial grid that must resume from the store."""

    name = "serve-cold"

    def prime(self, server: Server, seed: int) -> None:
        """One untimed warm-up round on one connection, like the
        in-process workloads' warm-up pass.  It also keeps the measured
        loop clear of a start-up race in the program: two first jobs
        arriving together can find ``repro.kernels.dispatch`` half
        loaded (``_ensure_loaded`` raises its flag before its imports
        finish) and one then fails with ``KeyError: no kernel
        registered``."""
        self.seed = seed
        rec = _recorder(seed)
        with server.client() as client:
            self.run_round(rec, client, CLIENTS + 1, 0)
        if rec["failures"]:
            raise SystemExit(f"serve-cold: warm-up round failed: {rec['failures']}")

    def _base_seed(self, client_index: int, round_index: int) -> int:
        return (self.seed * CLIENTS + client_index) * 100_000 + round_index

    def solve_bodies(self, base_seed: int) -> list[dict]:
        return [
            {"scheme": scheme, "total_work": COLD_WORK, "n_pes": COLD_PES,
             "seed": cell_seed(base_seed, i)}
            for i, scheme in enumerate(COLD_SCHEMES[:3])
        ]

    def grid_body(self, base_seed: int) -> dict:
        return {"schemes": COLD_SCHEMES, "works": [COLD_WORK], "pes": [COLD_PES],
                "base_seed": base_seed}

    def run_round(self, rec: dict, client: HttpClient, c: int, r: int) -> None:
        base_seed = self._base_seed(c, r)
        for body in self.solve_bodies(base_seed):
            trips, t0 = client.requests, time.perf_counter()
            view = _submit_and_wait(client, rec, "/solve", body)
            if view is None:
                continue
            status, payload = client.get("/records/" + view["keys"][0])
            if status != 200:
                _fail(rec, "GET /records", status, payload)
                continue
            rec["solve_s"].append(time.perf_counter() - t0)
            rec["solve_trips"].append(client.requests - trips)
            rec["cells"] += 1
            rec["nodes"] += body["total_work"]
            if r < DIGEST_ROUNDS:
                rec["digest"].append(payload["record"])
            if r == 0:
                rec["samples"].append((body, payload["record"]))
        t0 = time.perf_counter()
        view = _submit_and_wait(client, rec, "/grid", self.grid_body(base_seed))
        if view is None:
            return
        rec["grid_s"].append(time.perf_counter() - t0)
        rec["cells"] += view["n_cells"]
        rec["nodes"] += view["n_cells"] * COLD_WORK
        if (view["cached_cells"], view["computed_cells"]) != (3, 3):
            rec["failures"].append(f"partial grid was not 3 hits + 3 misses: {view}")

    def checks(self, recs: list[dict], delta, n_rounds: int) -> list:
        results = [
            (f"/metrics counts {what} x {per_round} per round",
             delta(key) == per_round * n_rounds)
            for what, key, per_round in (
                ("misses", "serve.cache{result=miss}", 6),
                ("hits", "serve.cache{result=hit}", 3),
                ("resumed grid cells", "grid.resumed_cells", 3),
            )
        ]
        for rec in recs:
            bodies = [body for body, _ in rec["samples"]]
            for (body, got), want in zip(rec["samples"], direct_records(bodies)):
                results.append((
                    f"served {body['scheme']} record equals run_divisible's",
                    got == record_to_dict(want),
                ))
        return results

    def probe_requests(self) -> tuple[list[dict], dict]:
        base_seeds = [self._base_seed(CLIENTS, r) for r in range(3)]
        solves = [body for b in base_seeds for body in self.solve_bodies(b)]
        return solves, self.grid_body(base_seeds[0])


class ServeWarm:
    """Every cell hot.  Set-up submits the ``grid-table1`` grid once and
    waits for it; one round is then a seeded shuffle of eight
    ``POST /solve`` on hot cells, one ``POST /grid`` of the whole hot
    grid (36 store look-ups) and one ``GET /records/{key}``."""

    name = "serve-warm"

    def prime(self, server: Server, seed: int) -> None:
        self.seed = seed
        self.grid = {"schemes": GRID_SCHEMES, "works": GRID_WORKS, "pes": GRID_PES,
                     "base_seed": seed * 1000}
        rec = _recorder()
        with server.client() as client:
            view = _submit_and_wait(client, rec, "/grid", self.grid)
        if view is None:
            raise SystemExit(f"serve-warm: priming grid failed: {rec['failures']}")
        plans = plan_grid(GRID_SCHEMES, GRID_WORKS, GRID_PES, base_seed=seed * 1000)
        self.hot = [
            ({"scheme": p.scheme.name, "total_work": p.total_work,
              "n_pes": p.n_pes, "seed": p.seed}, key)
            for p, key in zip(plans, view["keys"])
        ]
        self.grid_nodes = sum(p.total_work for p in plans)

    def run_round(self, rec: dict, client: HttpClient, c: int, r: int) -> None:
        rng = random.Random(f"{self.seed}/{c}/{r}")
        ops = [("solve", rng.choice(self.hot)) for _ in range(8)]
        ops += [("grid", None), ("record", rng.choice(self.hot))]
        rng.shuffle(ops)
        for op, cell in ops:
            t0 = time.perf_counter()
            if op == "record":
                status, payload = client.get("/records/" + cell[1])
                if status != 200 or payload["key"] != cell[1]:
                    _fail(rec, "GET /records", status, payload)
                    continue
                rec["cells"] += 1
                rec["nodes"] += cell[0]["total_work"]
                if r < DIGEST_ROUNDS:
                    rec["digest"].append(payload["record"])
                continue
            path, body = ("/grid", self.grid) if op == "grid" else ("/solve", cell[0])
            status, view = client.post(path, body)
            rec["jobs"] += 1
            if status != 200 or not view["cache_hit"]:
                _fail(rec, f"POST {path} was not a cache hit", status, view)
                continue
            elapsed = time.perf_counter() - t0
            if op == "grid":
                rec["grid_s"].append(elapsed)
                rec["cells"] += view["n_cells"]
                rec["nodes"] += self.grid_nodes
            else:
                rec["solve_s"].append(elapsed)
                rec["solve_trips"].append(1)
                rec["cells"] += 1
                rec["nodes"] += body["total_work"]

    def checks(self, recs: list[dict], delta, n_rounds: int) -> list:
        return [
            ("the miss counter did not move", delta("serve.cache{result=miss}") == 0),
            ("/metrics counts 8 + 36 hits per round",
             delta("serve.cache{result=hit}") == (8 + len(self.hot)) * n_rounds),
        ]

    def probe_requests(self) -> tuple[list[dict], dict]:
        return [body for body, _ in self.hot[:9]], self.grid


WORKLOADS = {w.name: w for w in (ServeCold, ServeWarm)}


def measure(workload, server: Server, seconds: float) -> dict:
    """The closed loop, the ``/metrics`` deltas over it, and the
    end-to-end metrics.  Checks run after the loop, outside the timing."""
    recs = [_recorder(f"{workload.seed}/{c}") for c in range(CLIENTS)]
    with server.client() as control:
        before = _counters(control)
        loop = closed_loop(
            server.host, server.port, CLIENTS, seconds,
            lambda client, c, r: workload.run_round(recs[c], client, c, r),
        )
        after = _counters(control)
    rounds = [t for per_client in loop["round_s"] for t in per_client]
    solves = [t * 1e3 for rec in recs for t in rec["solve_s"]]
    grids = [t * 1e3 for rec in recs for t in rec["grid_s"]]
    wall = loop["wall_s"]
    # The tail latency goes beside the end-to-end metrics, at whatever
    # percentile this many solves support; compare.py bounds it.
    tail_p = stats.highest_supported_percentile(len(solves))
    tail = None
    if tail_p is not None and tail_p > 50:
        tail = {"percentile": tail_p, **stats.dist(solves, "ms", p=tail_p)}
    e2e = {
        "pass_p50_s": stats.dist(rounds, "s"),
        "cells_per_s": stats.scalar(sum(rec["cells"] for rec in recs) / wall, "1/s"),
        "nodes_per_s": stats.scalar(sum(rec["nodes"] for rec in recs) / wall, "1/s"),
        "requests_per_s": stats.scalar(loop["requests"] / wall, "1/s"),
        "solve_p50_ms": stats.dist(solves, "ms"),
        "grid_p50_ms": stats.dist(grids, "ms"),
        "peak_rss_mb": stats.scalar(server.peak_rss_mb(), "MiB"),
    }

    def delta(key: str) -> int:
        return int(after.get(key, 0) - before.get(key, 0))

    failures = [f for rec in recs for f in rec["failures"]]
    checks = workload.checks(recs, delta, len(rounds))
    return {
        "e2e": e2e,
        "tail": tail,
        "attempted": loop["requests"] + len(checks),
        "failures": failures + [what for what, ok in checks if not ok],
        "digest_cells": [{"record": r} for rec in recs for r in rec["digest"]],
        "recs": recs,
        "loop": loop,
        "delta": delta,
        "measured_s": wall,
        "n": {"rounds": len(rounds), "solves": len(solves), "grids": len(grids)},
    }


def layers(workload, server: Server, run: dict, n_probe: int) -> dict:
    """The per-layer numbers of a serve workload: the HTTP floor and
    cache counters measured on the live server, the layers beneath it
    probed in-process on the workload's own cells."""
    recs, loop, delta, e2e = run["recs"], run["loop"], run["delta"], run["e2e"]
    solves, grid = workload.probe_requests()
    with server.client() as client:
        def floor(_: int) -> None:
            if client.get("/healthz")[0] != 200:
                raise RuntimeError("GET /healthz failed")

        healthz_ms = probes.median_us(floor, range(max(10, n_probe // 6))) / 1e3
        # A hit on the live server: any cell it has already answered.
        hot = recs[0]["samples"][0][0] if recs[0]["samples"] else solves[0]

        def hit(_: int) -> None:
            status, view = client.post("/solve", hot)
            if status != 200 or not view["cache_hit"]:
                raise RuntimeError(f"probe hit answered {status} {view}")

        hit_ms = probes.median_us(hit, range(max(10, n_probe // 6))) / 1e3

    hits = delta("serve.cache{result=hit}")
    misses = delta("serve.cache{result=miss}")
    out = {
        "serve.app.healthz_p50_ms": healthz_ms,
        "serve.app.round_trips_per_job": loop["requests"] / sum(r["jobs"] for r in recs),
        "serve.service.cache_hits": float(hits),
        "serve.service.cache_misses": float(misses),
        "serve.service.hit_ratio": hits / (hits + misses),
        "serve.queue.rejected": float(sum(rec["rejected"] for rec in recs)),
        "experiments.journal.resumed_cells": float(delta("grid.resumed_cells")),
    }
    scratch = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT))
    try:
        records = direct_records(solves)
        out.update(probes.guarded(
            ["serve.service.miss_ms", "serve.service.hit_us",
             "serve.service.grid_hit_us"],
            probes.service_probe, scratch, solves, grid))
        out.update(probes.guarded(
            ["serve.queue.dispatch_us"], probes.queue_probe, n_probe))
        out.update(probes.guarded(
            ["serve.store.put_us", "serve.store.get_us", "serve.store.contains_us",
             "serve.store.bytes_per_record", "util.atomic.write_us"],
            probes.store_probe, scratch, records, n_probe))
        out.update(probes.guarded(
            ["experiments.journal.append_us",
             "experiments.journal.replay_us_per_frame",
             "experiments.journal.bytes_per_frame"],
            probes.journal_probe, scratch, records, n_probe))
        out.update(probes.guarded(
            ["experiments.runner.run_divisible_ms", "obs.event_stream_ratio"],
            probes.event_stream_probe, scratch, solves))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # What the HTTP adapter adds to a hit, and how much of the workload's
    # solve latency "round trips x HTTP floor + the service's own work"
    # explains (cold solves are misses, warm solves are hits).
    trips = [t for rec in recs for t in rec["solve_trips"]]
    inside_ms = (
        out["serve.service.miss_ms"] if misses else out["serve.service.hit_us"] / 1e3
    )
    if probes.GONE in (inside_ms, out["serve.service.hit_us"]):
        out["serve.app.self_p50_ms"] = probes.GONE
        out["serve.app.solve_explained_frac"] = probes.GONE
    else:
        out["serve.app.self_p50_ms"] = hit_ms - out["serve.service.hit_us"] / 1e3
        out["serve.app.solve_explained_frac"] = (
            stats.percentile(trips, 50) * healthz_ms + inside_ms
        ) / e2e["solve_p50_ms"]["value"]
    return out


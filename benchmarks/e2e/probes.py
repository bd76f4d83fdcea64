"""Outside probes of the layers under ``repro serve``.

The server is another process, so its layers cannot be split by spans.
Each probe instead calls one layer's public function directly, on the
serve workload's own cells and records against a scratch directory,
and reports the median cost of one call.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

#: What a probe reports when the public function it calls is gone.
GONE = -1.0


def median_us(fn, items) -> float:
    times = []
    for item in items:
        t0 = time.perf_counter()
        fn(item)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def service_probe(root: Path, solves: list[dict], grid: dict) -> dict:
    """``ExperimentService`` in-process: the cost of a miss (submit,
    queue, compute, publish), of a hit, and of an all-hit grid."""
    from repro.serve import ExperimentService
    from repro.serve.schemas import parse_grid_request, parse_solve_request

    service = ExperimentService(root / "service")
    try:
        requests = [parse_solve_request(body) for body in solves]

        def miss(request) -> None:
            view = service.wait(service.submit_solve(request)["id"], timeout=60)
            if view["status"] != "done" or view["cache_hit"]:
                raise RuntimeError(f"probe solve did not compute: {view}")

        miss_ms = median_us(miss, requests) / 1e3
        hit_us = median_us(service.submit_solve, requests * 5)
        grid_request = parse_grid_request(grid)
        service.wait(service.submit_grid(grid_request)["id"], timeout=60)
        grid_hit_us = median_us(service.submit_grid, [grid_request] * 10)
    finally:
        service.close()
    return {
        "serve.service.miss_ms": miss_ms,
        "serve.service.hit_us": hit_us,
        "serve.service.grid_hit_us": grid_hit_us,
    }


def queue_probe(n: int) -> dict:
    """``JobQueue``: submit a no-op and wait until it has settled."""
    from repro.serve.queue import Job, JobQueue

    queue = JobQueue(workers=2)
    try:
        def dispatch(_: int) -> None:
            job = Job(id=queue.new_id(), kind="solve", request={})
            queue.submit(job, lambda job: None)
            queue.wait(job.id, timeout=60)

        return {"serve.queue.dispatch_us": median_us(dispatch, range(n))}
    finally:
        queue.shutdown()


def store_probe(root: Path, records: list, n: int) -> dict:
    """``RecordStore`` put / get / contains, and the atomic publication
    under ``put``, on ``n`` records under distinct keys."""
    from repro.experiments.journal import cell_key
    from repro.serve.store import RecordStore
    from repro.util.atomic import atomic_write_text

    store = RecordStore(root / "cells")
    keyed = [
        (cell_key("probe", i, 1, i), records[i % len(records)]) for i in range(n)
    ]
    put_us = median_us(lambda kr: store.put(*kr), keyed)
    keys = [key for key, _ in keyed]
    text = store.path_for(keys[0]).read_text()
    (root / "atomic").mkdir()
    return {
        "serve.store.put_us": put_us,
        "serve.store.get_us": median_us(store.get, keys),
        "serve.store.contains_us": median_us(store.__contains__, keys),
        "serve.store.bytes_per_record": float(len(text.encode("utf-8"))),
        "util.atomic.write_us": median_us(
            lambda i: atomic_write_text(root / "atomic" / f"{i}.json", text), range(n)
        ),
    }


def journal_probe(root: Path, records: list, n: int) -> dict:
    """``CellJournal``: one fsynced append, and replay on reopen."""
    from repro.experiments.journal import CellJournal, cell_key

    path = root / "probe.jrnl"
    journal = CellJournal(path)
    header_bytes = path.stat().st_size
    keyed = [
        (cell_key("probe", i, 1, i), i, records[i % len(records)]) for i in range(n)
    ]
    append_us = median_us(lambda kir: journal.append(*kir), keyed)
    t0 = time.perf_counter()
    reopened = CellJournal(path)
    replay_s = time.perf_counter() - t0
    if len(reopened) != n:
        raise RuntimeError(f"journal replayed {len(reopened)} of {n} frames")
    return {
        "experiments.journal.append_us": append_us,
        "experiments.journal.replay_us_per_frame": replay_s / n * 1e6,
        "experiments.journal.bytes_per_frame": (path.stat().st_size - header_bytes) / n,
    }


def event_stream_probe(root: Path, solves: list[dict]) -> dict:
    """``run_divisible`` bare, and the factor that streaming its cycle
    events to a ``JsonlSink`` — what a served solve does — costs."""
    from repro import run_divisible
    from repro.obs import JsonlSink, Observability

    def bare(body: dict) -> None:
        run_divisible(body["scheme"], body["total_work"], body["n_pes"], seed=body["seed"])

    def streamed(body: dict) -> None:
        sink = JsonlSink(root / "events" / f"{body['seed']}.jsonl")
        try:
            run_divisible(
                body["scheme"], body["total_work"], body["n_pes"],
                seed=body["seed"], obs=Observability(events=sink),
            )
        finally:
            sink.close()

    bare_us = median_us(bare, solves)
    return {
        "experiments.runner.run_divisible_ms": bare_us / 1e3,
        # base: the bare run; 2.0 means the event stream doubles a solve
        "obs.event_stream_ratio": median_us(streamed, solves) / bare_us,
    }


def guarded(names: list[str], probe, *args) -> dict:
    """Run ``probe``; if the public entry point it calls has gone,
    report :data:`GONE` for its metrics with a warning instead of
    failing the benchmark (end-to-end metrics never depend on a probe).
    """
    try:
        return probe(*args)
    except (ImportError, AttributeError, TypeError) as exc:
        print(
            f"warning: probe {probe.__name__} could not run ({type(exc).__name__}: "
            f"{exc}); reporting {GONE:g} for {', '.join(names)}",
            file=sys.stderr,
        )
        return dict.fromkeys(names, GONE)


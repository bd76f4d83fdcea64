"""The framework-free service core: cache logic, workers, observability.

:class:`ExperimentService` is everything the HTTP adapters delegate to.
Its cache discipline, end to end:

1. A submission is expanded to its cells with the *same* planning code
   an offline sweep uses (:func:`~repro.experiments.runner.plan_grid`,
   :func:`~repro.experiments.runner.cell_seed`), and every cell gets its
   content-addressed :func:`~repro.experiments.journal.cell_key`.
2. Cells already in the shared :class:`~repro.serve.store.RecordStore`
   are cache **hits**; a job whose cells all hit completes immediately
   — ``cache_hit`` true, nothing queued, nothing recomputed.
3. Anything else enters the bounded queue.  A grid job with *partial*
   hits pre-seeds a per-job write-ahead journal with the cached records
   and runs ``run_grid(journal=..., resume=True)`` — the existing
   resume machinery skips every seeded cell, so cached cells are never
   recomputed even inside a mixed job (the ``grid.resumed_cells``
   counter proves it).
4. Completed cells are published back to the store, so the next
   identical submission — from any worker of any service process
   sharing the directory — hits.

Every hit/miss increments ``serve.cache{result=...}`` on the
service-wide :class:`~repro.obs.registry.MetricsRegistry` (per *cell*,
the unit of caching); per-job run metrics are recorded into a private
registry and folded in afterwards, so worker threads never write one
registry concurrently.  Each job also streams a JSONL event file —
lifecycle :class:`~repro.serve.schemas.JobEvent` transitions, plus the
scheduler's own per-cycle events for solve jobs — served verbatim by
``GET /jobs/{id}/events``.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.errors import QueueFullError, RecordNotFoundError
from repro.obs import JsonlSink, MetricsRegistry, Observability
from repro.serve.queue import Job, JobQueue
from repro.serve.schemas import GridRequest, JobEvent, SolveRequest
from repro.serve.store import RecordStore

__all__ = ["ExperimentService"]


class ExperimentService:
    """Submit experiments, cache by content address, serve records.

    ``root`` holds everything the service persists: the shared record
    store under ``root/cells`` and per-job artifacts (event stream,
    write-ahead journal) under ``root/jobs/<job-id>``.  Several service
    processes may share one ``root`` — the store is concurrency-safe by
    construction.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        workers: int = 2,
        max_pending: int = 32,
    ) -> None:
        self.root = Path(root)
        self.store = RecordStore(self.root / "cells")
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.queue = JobQueue(workers=workers, max_pending=max_pending)
        self.registry = MetricsRegistry()
        self._registry_lock = threading.Lock()

    # -- metrics -----------------------------------------------------------

    def _count(self, name: str, labels: dict | None = None, n: float = 1) -> None:
        with self._registry_lock:
            self.registry.counter(name, labels).inc(n)

    def _fold(self, job_registry: MetricsRegistry) -> None:
        with self._registry_lock:
            self.registry.fold(job_registry)

    def metrics(self) -> dict:
        """The service-wide registry snapshot (``GET /metrics``)."""
        with self._registry_lock:
            return self.registry.snapshot()

    # -- job plumbing ------------------------------------------------------

    def _new_job(self, kind: str, request: dict, keys: list[str]) -> Job:
        """A job whose artifact directory this call created.

        Ids restart with the service and other service processes may
        share ``root``, so an id is taken only once ``mkdir`` proves
        nobody — an earlier incarnation or a concurrent one — owns
        ``jobs/<id>``: a job never appends to another job's event
        stream or reopens its journal.
        """
        while True:
            job_id = self.queue.new_id()
            try:
                (self.jobs_dir / job_id).mkdir()
            except FileExistsError:
                continue
            return Job(
                id=job_id, kind=kind, request=request, keys=keys, n_cells=len(keys)
            )

    def _emit(self, job: Job, status: str, detail: str = "") -> None:
        """Append one lifecycle event to the job's JSONL stream."""
        if job.events_path is None:
            job.events_path = self.jobs_dir / job.id / "events.jsonl"
        sink = JsonlSink(job.events_path)
        sink.emit(JobEvent(cycle=job.next_seq(), status=status, detail=detail))
        sink.close()

    def _cell_keys(self, plans: list) -> list[str]:
        from repro.experiments.journal import cell_key

        return [
            cell_key(p.scheme.name, p.total_work, p.n_pes, p.seed)
            for p in plans
        ]

    # -- solve -------------------------------------------------------------

    def submit_solve(self, request: SolveRequest) -> dict:
        """Run (or serve from cache) one ``(scheme, W, P, seed)`` cell."""
        from repro.experiments.journal import cell_key

        self._count("serve.requests", {"endpoint": "solve"})
        key = cell_key(
            request.scheme, request.total_work, request.n_pes, request.seed
        )
        job = self._new_job("solve", request.to_dict(), [key])
        if key in self.store:
            job.status = "done"
            job.cache_hit = True
            job.cached_cells = 1
            self._count("serve.cache", {"result": "hit"})
            self.queue.register(job)
            self._emit(job, "cache-hit", f"record {key[:12]} served from store")
            self._emit(job, "finished", "0 of 1 cells computed")
        else:
            # The "queued" event is written *before* the pool can start
            # the job, so the worker thread is the only writer of the
            # stream from here on (no interleaved appends).
            self._emit(job, "queued")
            self._submit(job, self._run_solve)
            self._count("serve.cache", {"result": "miss"})
        return job.view()

    def _submit(self, job: Job, fn) -> None:
        """Admit ``job`` to the queue; scrub its provisional event
        stream when backpressure refuses it (no orphan artifacts, no
        cache counters for a request that was never accepted)."""
        try:
            self.queue.submit(job, fn)
        except QueueFullError:
            if job.events_path is not None and job.events_path.exists():
                job.events_path.unlink()
            raise

    def _run_solve(self, job: Job) -> None:
        from repro.experiments.runner import GridRecord, run_divisible

        request = SolveRequest(**job.request)
        self._emit(job, "started")
        registry = MetricsRegistry()
        # One persistent sink for the whole run: the scheduler streams
        # its per-cycle/LB events into the same file the lifecycle
        # events use, in order, from this one thread.
        sink = JsonlSink(job.events_path)
        try:
            metrics = run_divisible(
                request.scheme,
                request.total_work,
                request.n_pes,
                seed=request.seed,
                obs=Observability(events=sink, metrics=registry),
            )
        finally:
            sink.close()
        record = GridRecord(
            metrics.scheme, request.n_pes, request.total_work, metrics
        )
        self.store.put(job.keys[0], record)
        job.computed_cells = 1
        self._fold(registry)
        self._emit(job, "finished", "1 of 1 cells computed")

    # -- grid --------------------------------------------------------------

    def submit_grid(self, request: GridRequest) -> dict:
        """Run (or serve from cache) a ``schemes x works x pes`` grid."""
        from repro.experiments.runner import plan_grid

        self._count("serve.requests", {"endpoint": "grid"})
        plans = plan_grid(
            list(request.schemes),
            list(request.works),
            list(request.pes),
            base_seed=request.base_seed,
        )
        keys = self._cell_keys(plans)
        job = self._new_job("grid", request.to_dict(), keys)
        hits = sum(1 for key in keys if key in self.store)
        misses = len(keys) - hits
        if misses == 0:
            job.status = "done"
            job.cache_hit = True
            job.cached_cells = hits
            self._count("serve.cache", {"result": "hit"}, hits)
            self.queue.register(job)
            self._emit(
                job, "cache-hit", f"all {hits} cells served from store"
            )
            self._emit(job, "finished", f"0 of {hits} cells computed")
        else:
            job.cached_cells = hits
            self._emit(
                job, "queued", f"{hits} of {len(keys)} cells already cached"
            )
            self._submit(job, self._run_grid)
            if hits:
                self._count("serve.cache", {"result": "hit"}, hits)
            self._count("serve.cache", {"result": "miss"}, misses)
        return job.view()

    def _run_grid(self, job: Job) -> None:
        from repro.experiments.journal import CellJournal
        from repro.experiments.runner import plan_grid, run_grid

        request = GridRequest(
            schemes=tuple(job.request["schemes"]),
            works=tuple(job.request["works"]),
            pes=tuple(job.request["pes"]),
            base_seed=job.request["base_seed"],
        )
        plans = plan_grid(
            list(request.schemes),
            list(request.works),
            list(request.pes),
            base_seed=request.base_seed,
        )
        journal_path = self.jobs_dir / job.id / "journal.jrnl"
        journal = CellJournal(journal_path)
        # Pre-seed the job's write-ahead journal with every cached cell;
        # run_grid(resume=True) then skips exactly those — cached cells
        # are never recomputed, even inside a partially cached job.
        seeded = 0
        for plan, key in zip(plans, job.keys):
            record = self.store.get(key)
            if record is not None and key not in journal:
                journal.append(key, plan.index, record)
                seeded += 1
        self._emit(
            job,
            "started",
            f"{seeded} of {len(plans)} cells resumed from cache",
        )
        registry = MetricsRegistry()
        records = run_grid(
            list(request.schemes),
            list(request.works),
            list(request.pes),
            base_seed=request.base_seed,
            journal=journal_path,
            resume=True,
            registry=registry,
        )
        for key, record in zip(job.keys, records):
            if key not in self.store:
                self.store.put(key, record)
        job.cached_cells = seeded
        job.computed_cells = len(records) - seeded
        self._fold(registry)
        self._emit(
            job,
            "finished",
            f"{job.computed_cells} of {len(records)} cells computed",
        )

    # -- reads -------------------------------------------------------------

    def job(self, job_id: str) -> dict:
        """``GET /jobs/{id}`` — the job's current view (typed 404)."""
        self._count("serve.requests", {"endpoint": "jobs"})
        return self.queue.get(job_id).view()

    def job_events(self, job_id: str) -> str:
        """``GET /jobs/{id}/events`` — the raw JSONL stream so far."""
        self._count("serve.requests", {"endpoint": "events"})
        job = self.queue.get(job_id)
        if job.events_path is None or not job.events_path.exists():
            return ""
        return job.events_path.read_text()

    def record(self, key: str) -> dict:
        """``GET /records/{key}`` — the stored payload (typed 404)."""
        self._count("serve.requests", {"endpoint": "records"})
        payload = self.store.get_payload(key)
        if payload is None:
            raise RecordNotFoundError(f"no record under key {key!r}")
        return payload

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        """Testing/CLI helper: block until a job settles; return its view."""
        return self.queue.wait(job_id, timeout=timeout).view()

    def close(self) -> None:
        """Stop the worker pool (idempotent)."""
        self.queue.shutdown()

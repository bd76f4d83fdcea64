"""The framework-free service core: cache logic, workers, observability.

:class:`ExperimentService` is everything the HTTP adapters delegate to.
Its cache discipline, end to end:

1. A submission is expanded to its cells with the *same* planning code
   an offline sweep uses (:func:`~repro.experiments.runner.plan_grid`,
   :func:`~repro.experiments.runner.cell_seed`), and every cell gets its
   content-addressed :func:`~repro.experiments.keys.plan_key` — the
   key ``run_grid(store=...)`` itself reads and publishes it under (a
   solve is a one-cell plan, so it shares a grid cell's key).  A
   request's keys are a pure function of the request and of the
   process's ``code_version()``, so they are planned once and memoised
   (:data:`MAX_MEMO_CELLS` keys held in all, solves and grids alike,
   least recently used out first); a resubmitted request costs one
   ``stat`` per cell.
2. Cells already in the shared :class:`~repro.serve.store.RecordStore`
   are cache **hits** — checked on disk at every submission, never
   memoised, so a record another process publishes or deletes changes
   the very next answer; a job whose cells all hit completes immediately
   — ``cache_hit`` true, nothing queued, nothing recomputed.
3. Anything else enters the bounded queue.  A grid job runs
   ``run_grid(store=...)`` on the shared store: the grid takes every
   cell already there and publishes each cell it computes the moment it
   finishes, so cached cells are never recomputed even inside a mixed
   job (the ``grid.resumed_cells`` counter proves it, and is where the
   job's cached/computed split comes from), and the next identical
   submission — from any worker of any service process sharing the
   directory — hits.

Every hit/miss increments ``serve.cache{result=...}`` on the
service-wide :class:`~repro.obs.registry.MetricsRegistry` (per *cell*,
the unit of caching); per-job run metrics are recorded into a private
registry and folded in afterwards, so workers never write one registry
concurrently.  Each queued job also streams a JSONL event file —
lifecycle :class:`~repro.serve.schemas.JobEvent` transitions, plus the
scheduler's own per-cycle events for solve jobs — served verbatim by
``GET /jobs/{id}/events``.  A whole-job hit touches no file at all: its
two lifecycle events stay on the :class:`~repro.serve.queue.Job` and
are served from memory.

**Where jobs compute.**  Threads dispatch, processes compute.  The
:class:`~repro.serve.queue.JobQueue` thread that picks a job up emits
``started``, hands the body (:func:`_solve_cell` / :func:`_grid_cells`)
to a persistent pool of *forked* worker processes, blocks on the future
without holding the GIL, folds the registry the child returns and emits
``finished``.  The pool is forked and warmed in ``__init__``, before
the queue or an HTTP server has started a single thread, so the
children start from a single-threaded image.  One writer at a time owns
a job's event file: the parent closes it before the child appends, the
child before the parent's ``finished``.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable

from repro.errors import JobNotFoundError, QueueFullError, RecordNotFoundError
from repro.core.config import make_scheme
from repro.experiments.batched import CellPlan
from repro.experiments.keys import plan_key
from repro.experiments.runner import GridRecord, default_init_threshold, plan_grid
from repro.experiments.runner import run_divisible, run_grid
from repro.obs import JsonlSink, MetricsRegistry, Observability
from repro.serve.queue import Job, JobQueue
from repro.serve.schemas import GridRequest, JobEvent, SolveRequest
from repro.serve.store import RecordStore

__all__ = ["ExperimentService"]

#: How many cell keys the request memo holds across all its entries,
#: a solve's one key included.  Bounded by cells, not requests, because
#: one request may carry up to ``MAX_CELLS_PER_GRID`` keys: 8 192
#: 64-char keys are ~1 MiB.
MAX_MEMO_CELLS = 8192


# -- what runs in a worker process -------------------------------------------


def _exit_with_parent(alive_r: int) -> None:
    """Block until every write end of the liveness pipe is closed —
    the service closed it, or died without the chance to — then exit."""
    os.read(alive_r, 1)
    os._exit(0)


def _worker_init(alive_r: int, alive_w: int) -> None:
    """Once per forked worker, before its first job."""
    # The service holds the pipe's only write end once each worker has
    # closed its inherited copy, so EOF on the read end means the
    # service is gone — also after a SIGKILL, which runs no close().
    os.close(alive_w)
    threading.Thread(target=_exit_with_parent, args=(alive_r,), daemon=True).start()
    # A terminal's Ctrl-C goes to the whole process group and a rebuilt
    # pool inherits the server's SIGTERM handler; shutdown is the
    # service's call, through the pool, not a signal's.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _solve_plan(request: SolveRequest) -> CellPlan:
    """A solve as a one-cell plan: its seed verbatim, and the init
    threshold and cost model ``plan_grid`` defaults to."""
    threshold = default_init_threshold(request.scheme)
    scheme = make_scheme(request.scheme)
    return CellPlan(0, scheme, request.n_pes, request.total_work, request.seed, threshold)


def _solve_cell(
    request: dict, events_path: Path, store_root: Path, key: str
) -> MetricsRegistry:
    """One solve job's compute: run the cell with its per-cycle events
    streaming into the job's file, publish the record.  Returns the
    run's registry."""
    plan = _solve_plan(SolveRequest(**request))
    registry = MetricsRegistry()
    sink = JsonlSink(events_path)
    try:
        metrics = run_divisible(
            plan.scheme, plan.total_work, plan.n_pes, cost_model=plan.cost_model,
            seed=plan.seed, init_threshold=plan.init_threshold,
            obs=Observability(events=sink, metrics=registry),
        )
    finally:
        sink.close()
    record = GridRecord(plan.scheme.name, plan.n_pes, plan.total_work, metrics)
    RecordStore(store_root).put(key, record)
    return registry


def _grid_cells(
    request: dict, store_root: Path
) -> tuple[int, int, MetricsRegistry]:
    """One grid job's compute: ``run_grid`` on the shared store takes
    the cached cells from it and publishes the rest as they finish.
    Returns ``(cached, computed, registry)``."""
    registry = MetricsRegistry()
    records = run_grid(
        request["schemes"],
        request["works"],
        request["pes"],
        base_seed=request["base_seed"],
        store=RecordStore(store_root),
        registry=registry,
    )
    cached = int(registry.snapshot()["counters"].get("grid.resumed_cells", 0))
    return cached, len(records) - cached, registry


def _plan_keys(request: SolveRequest | GridRequest) -> tuple[str, ...]:
    """Every cell key of ``request``, scheme-major — what ``run_grid``
    stores the same cells under."""
    if isinstance(request, SolveRequest):
        return (plan_key(_solve_plan(request)),)
    plans = plan_grid(
        list(request.schemes),
        list(request.works),
        list(request.pes),
        base_seed=request.base_seed,
    )
    return tuple(plan_key(p) for p in plans)


class _KeyMemo:
    """``SolveRequest | GridRequest -> cell keys``, holding at most
    :data:`MAX_MEMO_CELLS` keys in all, least recently used out first.

    An entry never goes stale: its keys depend on nothing but the
    request and ``code_version()``.  It holds no store state at all.
    Handler threads share one memo, so every access takes its lock.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[SolveRequest | GridRequest, tuple[str, ...]] = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        #: Keys held across all entries.
        self.cells = 0

    def get(self, request: SolveRequest | GridRequest) -> tuple[str, ...] | None:
        with self._lock:
            keys = self._entries.get(request)
            if keys is not None:
                self._entries.move_to_end(request)
            return keys

    def plan(self, request: SolveRequest | GridRequest) -> tuple[tuple[str, ...], bool]:
        """``request``'s keys, planned and held on a miss; and whether
        they were already held."""
        keys = self.get(request)
        if keys is not None:
            return keys, True
        keys = _plan_keys(request)
        self.put(request, keys)
        return keys, False

    def put(self, request: SolveRequest | GridRequest, keys: tuple[str, ...]) -> None:
        """Hold ``keys`` for ``request``, evicting the least recently
        used entries until the budget holds; a grid larger than the
        whole budget is not held."""
        if len(keys) > MAX_MEMO_CELLS:
            return
        with self._lock:
            if request in self._entries:  # another thread planned it too
                return
            self._entries[request] = keys
            self.cells += len(keys)
            while self.cells > MAX_MEMO_CELLS:
                _, evicted = self._entries.popitem(last=False)
                self.cells -= len(evicted)


# -- the service --------------------------------------------------------------


class ExperimentService:
    """Submit experiments, cache by content address, serve records.

    ``root`` holds everything the service persists: the shared record
    store under ``root/cells`` and each queued job's event stream under
    ``root/jobs/<job-id>``.  Several service
    processes may share one ``root`` — the store is concurrency-safe by
    construction.

    Construct it before the process starts any thread (an HTTP server,
    say): ``workers`` compute processes are forked here.
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
        # Validates ``workers``; its dispatch threads start lazily, on
        # the first queued job — after the fork below.
        self.queue = JobQueue(workers=workers, max_pending=max_pending)
        self.registry = MetricsRegistry()
        self._registry_lock = threading.Lock()
        self._keys = _KeyMemo()
        self._alive: tuple[int, ...] = os.pipe()
        self._pool_lock = threading.Lock()
        self._pool = self._start_pool()

    # -- the compute pool --------------------------------------------------

    def _start_pool(self) -> ProcessPoolExecutor:
        """Fork ``workers`` processes now and wait until they answer.

        With the ``fork`` context the executor launches every worker on
        its first submit, before it starts its own management thread —
        so the warm-up no-ops are what makes the fork happen *here*.
        """
        # Parent and children share every page until one side writes to
        # it, and a full collection writes into the GC header of every
        # object: unfrozen, a worker's first collection copied the whole
        # inherited heap.
        gc.freeze()
        pool = ProcessPoolExecutor(
            self.queue.workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init,
            initargs=self._alive,
        )
        for warm in [pool.submit(os.getpid) for _ in range(self.queue.workers)]:
            warm.result()
        return pool

    def _compute(self, fn: Callable[..., Any], *args: object) -> Any:
        """Run ``fn(*args)`` in a worker process and wait for its result.

        A worker that dies takes the pool with it: every job then in
        flight fails with :class:`BrokenProcessPool` as its typed
        error, and the first of them to notice forks a fresh pool —
        from the live, threaded server this time; the children touch
        none of its locks — for the submissions that follow.
        """
        with self._pool_lock:
            pool = self._pool
        try:
            return pool.submit(fn, *args).result()
        except BrokenProcessPool:
            with self._pool_lock:
                if self._pool is pool:
                    pool.shutdown(wait=False)
                    self._pool = self._start_pool()
            raise

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
        stream.
        """
        while True:
            job_id = self.queue.new_id()
            job_dir = self.jobs_dir / job_id
            try:
                job_dir.mkdir()
            except FileExistsError:
                continue
            return Job(
                id=job_id,
                kind=kind,
                request=request,
                keys=keys,
                n_cells=len(keys),
                events_path=job_dir / "events.jsonl",
            )

    def _hit(self, kind: str, request: dict, keys: list[str], detail: str) -> Job:
        """A whole-job hit: settled on arrival, nothing queued, nothing
        on disk — no ``jobs/<id>/``, so its id needs no ``mkdir`` proof
        (ids are unique within the process, and only a job that owns a
        directory ever writes or removes one)."""
        n = len(keys)
        job = Job(
            id=self.queue.new_id(),
            kind=kind,
            request=request,
            keys=keys,
            status="done",
            cache_hit=True,
            n_cells=n,
            cached_cells=n,
        )
        self._count("serve.cache", {"result": "hit"}, n)
        self._emit(job, "cache-hit", detail)
        self._emit(job, "finished", f"0 of {n} cells computed")
        return self.queue.register(job)

    def _emit(self, job: Job, status: str, detail: str = "") -> None:
        """Add one lifecycle event to the job's stream: its JSONL file
        when it owns one, else the job itself."""
        event = JobEvent(cycle=job.next_seq(), status=status, detail=detail)
        if job.events_path is None:
            job.events.append(event)
            return
        sink = JsonlSink(job.events_path)
        sink.emit(event)
        sink.close()

    def _submit(self, job: Job, fn: Callable[[Job], None]) -> None:
        """Admit ``job`` to the queue; scrub its provisional artifacts
        when backpressure refuses it (no orphan artifacts, no cache
        counters for a request that was never accepted)."""
        try:
            self.queue.submit(job, fn)
        except QueueFullError:
            job.discard()
            raise

    # -- solve -------------------------------------------------------------

    def submit_solve(self, request: SolveRequest) -> dict:
        """Run (or serve from cache) one ``(scheme, W, P, seed)`` cell."""
        self._count("serve.requests", {"endpoint": "solve"})
        (key,), _ = self._keys.plan(request)
        if key in self.store:
            job = self._hit(
                "solve",
                request.to_dict(),
                [key],
                f"record {key[:12]} served from store",
            )
        else:
            job = self._new_job("solve", request.to_dict(), [key])
            # The "queued" event is written *before* the pool can start
            # the job, so the worker is the only writer of the stream
            # from here on (no interleaved appends).
            self._emit(job, "queued")
            self._submit(job, self._run_solve)
            self._count("serve.cache", {"result": "miss"})
        return job.view()

    def _run_solve(self, job: Job) -> None:
        self._emit(job, "started")
        registry = self._compute(
            _solve_cell, job.request, job.events_path, self.store.root, job.keys[0]
        )
        job.computed_cells = 1
        self._fold(registry)
        self._emit(job, "finished", "1 of 1 cells computed")

    # -- grid --------------------------------------------------------------

    def submit_grid(self, request: GridRequest) -> dict:
        """Run (or serve from cache) a ``schemes x works x pes`` grid."""
        self._count("serve.requests", {"endpoint": "grid"})
        memoised, held = self._keys.plan(request)
        self._count("serve.plan_memo", {"result": "hit" if held else "miss"})
        keys = list(memoised)
        hits = sum(1 for key in keys if key in self.store)
        misses = len(keys) - hits
        if misses == 0:
            job = self._hit(
                "grid", request.to_dict(), keys, f"all {hits} cells served from store"
            )
        else:
            job = self._new_job("grid", request.to_dict(), keys)
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
        self._emit(
            job,
            "started",
            f"{job.cached_cells} of {job.n_cells} cells resumed from cache",
        )
        # The child re-reads the store, so a cell some other service
        # published since submission is resumed too, not recomputed.
        job.cached_cells, job.computed_cells, registry = self._compute(
            _grid_cells, job.request, self.store.root
        )
        self._fold(registry)
        self._emit(
            job,
            "finished",
            f"{job.computed_cells} of {job.n_cells} cells computed",
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
        if job.events_path is None:
            return "".join(event.to_jsonl() for event in job.events)
        try:
            return job.events_path.read_text()
        except FileNotFoundError:
            # Evicted, directory and all, since the look-up above.
            raise JobNotFoundError(f"unknown job id {job_id!r}") from None

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
        """Stop the dispatch threads, then the worker processes
        (running jobs finish first; idempotent)."""
        self.queue.shutdown()
        with self._pool_lock:
            self._pool.shutdown(wait=True)
        # Closing the write end is also what tells a worker that
        # somehow outlived the shutdown to exit.
        alive, self._alive = self._alive, ()
        for fd in alive:
            os.close(fd)

"""Bounded job queue: jobs, states, and the dispatch pool.

Jobs are *dispatched* on a fixed
:class:`~concurrent.futures.ThreadPoolExecutor`; what a job's callable
does there is the submitter's business.  It should not be the compute:
the cells are many small numpy calls at P = 512 and do **not** release
the GIL well enough to share an interpreter — two concurrent jobs on
two of these threads measured 2.2x the CPU and 3.5-4.2x the wall time
of one — so :class:`~repro.serve.service.ExperimentService` hands each
job's compute to a forked worker process and its queue thread only
waits on the future.  Admission is bounded: at most ``max_pending``
jobs may be queued-or-running, and the next submission raises
:class:`~repro.errors.QueueFullError` — explicit backpressure instead
of an unbounded backlog.  Cache hits bypass the queue entirely (they
are registered already-done), so a saturated worker pool never blocks
the cheap path.

A failed job is never lost: the exception's type and message land on
the job (``status="failed"``), and the HTTP layer serves them from
``GET /jobs/{id}`` — typed error reporting, not a dropped future.

Memory is bounded too: the registry keeps the :data:`MAX_SETTLED_JOBS`
most recently settled jobs.  Beyond that the oldest settled job is
forgotten together with its event file, and its id answers the
same typed 404 as one that never existed.  Queued and running jobs are
never evicted.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigError, JobNotFoundError, QueueFullError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import TraceEvent

__all__ = ["Job", "JobQueue"]

#: The job states ``GET /jobs/{id}`` reports.
JOB_STATES = ("queued", "running", "done", "failed")

#: Settled (``done`` / ``failed``) jobs kept for status and event
#: look-ups.  A cached re-submission settles at once and a server
#: answers thousands a second, so an unbounded registry is a leak.
MAX_SETTLED_JOBS = 256


@dataclass
class Job:
    """One submitted experiment and its lifecycle bookkeeping.

    ``keys`` holds the content-addressed cell key of every cell the job
    covers (one for a solve, the scheme-major list for a grid);
    ``cached_cells`` / ``computed_cells`` split them by how they were
    satisfied.  ``cache_hit`` is true only for the *whole-job* hit —
    every cell served from the store, nothing queued.

    A job that owns an artifact has ``events_path`` set: the
    ``jobs/<id>.jsonl`` file its creator made for it, its one artifact;
    a whole-job hit owns none and keeps its lifecycle events in
    ``events``.
    """

    id: str
    kind: str  # "solve" | "grid"
    request: dict
    keys: list[str] = field(default_factory=list)
    status: str = "queued"
    cache_hit: bool = False
    n_cells: int = 0
    cached_cells: int = 0
    computed_cells: int = 0
    error: str | None = None
    error_type: str | None = None
    events_path: Path | None = None
    events: list[TraceEvent] = field(default_factory=list)
    _seq: itertools.count = field(default_factory=itertools.count, repr=False)

    def next_seq(self) -> int:
        """Monotone sequence number for this job's lifecycle events."""
        return next(self._seq)

    def discard(self) -> None:
        """Remove the event file this job owns, if it owns one."""
        if self.events_path is not None:
            self.events_path.unlink(missing_ok=True)

    def view(self) -> dict:
        """The job as its stable JSON response shape."""
        out = {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "request": self.request,
            "cache_hit": self.cache_hit,
            "n_cells": self.n_cells,
            "cached_cells": self.cached_cells,
            "computed_cells": self.computed_cells,
            "keys": list(self.keys),
        }
        if self.error is not None:
            out["error"] = self.error
            out["error_type"] = self.error_type
        return out


class JobQueue:
    """A registry of jobs plus a bounded worker pool.

    ``max_pending`` bounds queued-plus-running jobs (admission control);
    the last :data:`MAX_SETTLED_JOBS` settled jobs stay in the registry
    for status/result lookups.
    """

    def __init__(self, workers: int = 2, max_pending: int = 32) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if max_pending < 1:
            raise ConfigError(f"max_pending must be >= 1, got {max_pending}")
        self.workers = workers
        self.max_pending = max_pending
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._futures: dict[str, Future] = {}
        self._settled: deque[str] = deque()
        self._active = 0
        self._ids = itertools.count(1)

    def new_id(self) -> str:
        return f"job-{next(self._ids):06d}"

    def register(self, job: Job) -> Job:
        """Track a job that never enters the pool (a whole-job cache hit)."""
        with self._lock:
            self._jobs[job.id] = job
            evicted = self._settle(job)
        if evicted is not None:
            evicted.discard()
        return job

    def _settle(self, job: Job) -> Job | None:
        """Note (under the lock) that ``job`` has settled.  Returns the
        oldest settled job when this pushes it out of the registry, for
        the caller to :meth:`~Job.discard` once the lock is released."""
        self._settled.append(job.id)
        if len(self._settled) <= MAX_SETTLED_JOBS:
            return None
        old_id = self._settled.popleft()
        self._futures.pop(old_id, None)
        return self._jobs.pop(old_id, None)

    def submit(self, job: Job, fn: Callable[[Job], None]) -> Job:
        """Admit ``job`` and run ``fn(job)`` on the pool.

        Raises :class:`~repro.errors.QueueFullError` when ``max_pending``
        jobs are already queued or running — the job is *not* registered
        in that case, so a rejected submission leaves no trace.
        """
        with self._lock:
            if self._active >= self.max_pending:
                raise QueueFullError(
                    f"job queue is full ({self._active} of {self.max_pending} "
                    "slots busy); retry later — cached re-submissions are "
                    "never queued"
                )
            self._active += 1
            self._jobs[job.id] = job
        future = self._pool.submit(self._run, job, fn)
        with self._lock:
            if job.id in self._jobs:  # not already settled and evicted
                self._futures[job.id] = future
        return job

    def _run(self, job: Job, fn: Callable[[Job], None]) -> None:
        job.status = "running"
        try:
            fn(job)
            job.status = "done"
        except Exception as exc:  # typed error reporting, never a lost future
            job.status = "failed"
            job.error = str(exc)
            job.error_type = type(exc).__name__
        finally:
            with self._lock:
                self._active -= 1
                evicted = self._settle(job)
            if evicted is not None:
                evicted.discard()

    def get(self, job_id: str) -> Job:
        """The job under ``job_id``; typed 404 when unknown."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"unknown job id {job_id!r}")
        return job

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until ``job_id`` leaves the pool; return it.

        Failures are reported on the job (``status="failed"``), not
        re-raised — callers inspect the view, exactly like HTTP clients.
        """
        job = self.get(job_id)
        with self._lock:
            future = self._futures.get(job_id)
        if future is not None:
            future.result(timeout=timeout)
        return job

    def shutdown(self) -> None:
        """Stop the pool (running jobs finish; queued ones are dropped)."""
        self._pool.shutdown(wait=True, cancel_futures=True)

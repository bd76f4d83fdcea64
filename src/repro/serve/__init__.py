"""repro.serve — the content-addressed experiment service.

The ROADMAP's "millions of users" path: experiments are pure functions
of their content-addressed :func:`~repro.experiments.journal.cell_key`
``(scheme spec, W, P, seed, code_version)``, so a service that caches
records under that key serves traffic that scales with *distinct*
experiments, not with requests.  Identical re-submissions are answered
from the shared :class:`~repro.serve.store.RecordStore` — bit-identical
to a direct :func:`~repro.experiments.runner.run_grid` run, by the same
repr-float round-trip identity the write-ahead journal's resume
guarantee rests on — and never enter the worker queue.

Layers (each usable on its own):

- :mod:`repro.serve.store` — :class:`RecordStore`, the shared on-disk
  cache of per-cell records (durable writes via
  :mod:`repro.util.atomic`; safe under concurrent writers);
- :mod:`repro.serve.queue` — :class:`Job` / :class:`JobQueue`, a
  bounded worker pool with explicit :class:`~repro.errors.
  QueueFullError` backpressure;
- :mod:`repro.serve.service` — :class:`ExperimentService`, the
  framework-free core: submit/lookup/cache logic, per-job JSONL event
  streams, ``serve.*`` metrics;
- :mod:`repro.serve.schemas` — request parsing/validation and the
  :class:`JobEvent` lifecycle trace event;
- :mod:`repro.serve.app` — the HTTP adapter: a dependency-free
  ``http.server`` backend.

See ``docs/serve.md`` for the endpoint reference and deployment notes.
"""

from repro.serve.app import create_server
from repro.serve.queue import Job, JobQueue
from repro.serve.schemas import (
    GridRequest,
    JobEvent,
    SolveRequest,
    parse_grid_request,
    parse_solve_request,
)
from repro.serve.service import ExperimentService
from repro.serve.store import RecordStore

__all__ = [
    "ExperimentService",
    "RecordStore",
    "Job",
    "JobQueue",
    "JobEvent",
    "SolveRequest",
    "GridRequest",
    "parse_solve_request",
    "parse_grid_request",
    "create_server",
]

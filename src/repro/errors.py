"""Typed exception hierarchy for the whole library.

Every error the library raises deliberately derives from
:class:`ReproError`, so callers can catch one base class at the top of a
long experiment instead of guessing which stdlib exception a given layer
uses.  Configuration mistakes additionally subclass :class:`ValueError`
(via :class:`ConfigError`) so historical ``except ValueError`` call sites
and tests keep working unchanged.

The hardened grid (:func:`repro.experiments.runner.run_grid`) raises
:class:`GridCellError` when one or more cells failed permanently after
the bounded retry budget; it carries the structured per-cell report,
every *completed* record, and a typed quarantine summary, so a partially
failed sweep degrades gracefully instead of discarding finished work.

The persistence layer (:mod:`repro.experiments.store`,
:mod:`repro.obs.registry`) raises :class:`RecordStoreError` for corrupt
or version-mismatched payloads.

The experiment service (:mod:`repro.serve`) adds a :class:`ServeError`
family that maps one-to-one onto HTTP responses:
:class:`BadRequestError` (400), :class:`JobNotFoundError` /
:class:`RecordNotFoundError` (404), and :class:`QueueFullError` (429,
the bounded job queue's backpressure signal).

Two :class:`UserWarning` categories accompany the hierarchy so silent
degradations become visible without aborting a sweep:
:class:`ExecutorFallbackWarning` (``run_grid(executor="auto")`` runs some
schemes serially instead of in the batched arena) and
:class:`TimeoutUnenforcedWarning` (a per-cell timeout was requested on a
platform without ``signal.SIGALRM`` and cannot be enforced).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "GridCellError",
    "RecordStoreError",
    "ServeError",
    "BadRequestError",
    "JobNotFoundError",
    "RecordNotFoundError",
    "QueueFullError",
    "ExecutorFallbackWarning",
    "TimeoutUnenforcedWarning",
]


class ReproError(Exception):
    """Base class of every deliberate error raised by this library."""


class ConfigError(ReproError, ValueError):
    """Invalid configuration (bad sizes, thresholds, spec strings).

    Subclasses :class:`ValueError` so pre-hierarchy call sites that catch
    ``ValueError`` continue to work.
    """


class RecordStoreError(ReproError, ValueError):
    """A record file or metrics snapshot is corrupt or version-mismatched.

    Subclasses :class:`ValueError` so pre-hierarchy call sites that catch
    ``ValueError`` around ``load_records`` continue to work.
    """


class GridCellError(ReproError):
    """One or more ``run_grid`` cells failed after all retries.

    ``failures`` holds the structured :class:`~repro.experiments.runner.
    GridFailure` records when raised by the grid driver; a single-cell
    instance raised inside a worker (e.g. a per-cell timeout) carries an
    empty tuple.

    When the grid driver raises after quarantining poison cells it also
    attaches ``completed`` — every :class:`~repro.experiments.runner.
    GridRecord` that *did* finish, in scheme-major order — and
    ``quarantine``, a typed :class:`~repro.experiments.runner.
    QuarantineReport`.  Together with ``run_grid(store=...)`` this makes
    a failed sweep resumable instead of lost.
    """

    def __init__(
        self,
        message: str,
        failures: tuple = (),
        completed: tuple = (),
        quarantine: object | None = None,
    ) -> None:
        super().__init__(message)
        self.failures = tuple(failures)
        self.completed = tuple(completed)
        self.quarantine = quarantine

    def __reduce__(self):
        # Keep worker-raised instances picklable across the process pool.
        return (
            type(self),
            (self.args[0], self.failures, self.completed, self.quarantine),
        )


class ServeError(ReproError):
    """Base of the experiment service's typed request/queue failures.

    Every subclass carries ``status`` — the HTTP status code the serve
    adapters answer with — so the framework-specific handlers contain
    no error-classification logic of their own.
    """

    status = 500


class BadRequestError(ServeError, ValueError):
    """A submitted job payload is malformed or fails validation (400)."""

    status = 400


class JobNotFoundError(ServeError):
    """``GET /jobs/{id}`` named a job the service has never seen (404)."""

    status = 404


class RecordNotFoundError(ServeError):
    """``GET /records/{key}`` named a key the store does not hold (404)."""

    status = 404


class QueueFullError(ServeError):
    """The bounded job queue refused a submission (429).

    Backpressure is explicit by design: when ``max_pending`` jobs are
    already queued or running, new work is rejected with this error
    instead of growing an unbounded backlog — the client retries, and
    cached re-submissions still succeed because cache hits never enter
    the queue.
    """

    status = 429


class ExecutorFallbackWarning(UserWarning):
    """``run_grid(executor="auto")`` runs some cells outside the arena.

    Names the schemes the batched executor cannot replicate — their
    cells run serially in the calling process, out of reach of
    ``timeout``/``chaos`` — so the slow-path pick is visible; the same
    reason is recorded in the grid's metrics registry when one is
    attached.
    """


class TimeoutUnenforcedWarning(UserWarning):
    """A per-cell grid timeout cannot be enforced on this platform.

    The in-worker watchdog uses ``signal.SIGALRM`` (POSIX only); where
    it is missing the timeout bound silently did not hold historically.
    Now the first affected ``run_grid`` call warns once per process and
    the grid metadata records ``grid.timeout_enforced = 0``.
    """

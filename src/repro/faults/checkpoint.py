"""Checkpoint/resume for scheduled runs.

A checkpoint is the *complete* state of a run at a cycle boundary:
workload arrays (stacks, arena windows, RNG streams), machine ledger and
counters, the matcher (GP pointer included), the trigger's accumulators
and the live fault runtime (alive mask, quarantine, drop/dup RNG).
Restoring it and continuing the loop is bit-identical to never having
stopped — the resume-vs-straight-through equivalence the test suite
asserts.  Observers are not part of it: a resumed run's events start at
the checkpointed cycle, in whatever sink the caller attaches.

On-disk format::

    MAGIC (11 bytes) | crc32 (u32 LE) | payload length (u64 LE) | payload

where the payload is a pickle of one dict.  The scheme is stored as its
spec string and rebuilt on load (``Scheme`` objects close over factory
functions and do not pickle — the same reason ``run_grid`` workers
rebuild schemes from specs).  Writes go through
:func:`repro.util.atomic.atomic_write_bytes` — a unique fsynced temp
file in the target directory, ``os.replace``, then a parent-directory
fsync — so a crash mid-write can never clobber the previous good
checkpoint, and a crash right after the write cannot lose the new one
either.  Any framing or CRC mismatch on
load raises :class:`~repro.errors.CheckpointCorruptError` — a torn or
truncated file is refused, never half-restored.  This is the
repository's one framed file format; grid cells persist as JSON records
in the content-addressed :class:`~repro.serve.store.RecordStore`.

This module must not import :mod:`repro.core` at module level (the
scheduler imports us for :class:`CheckpointConfig`); the loader imports
it lazily.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import CheckpointCorruptError, ConfigError
from repro.util.atomic import atomic_write_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.metrics import RunMetrics
    from repro.core.scheduler import Scheduler

__all__ = [
    "CheckpointConfig",
    "write_checkpoint",
    "load_checkpoint",
    "load_scheduler",
    "resume_run",
]

MAGIC = b"REPROCKPT1\n"
#: The frame header after :data:`MAGIC`: crc32 of the payload (u32 LE),
#: payload length (u64 LE).
_FRAME = struct.Struct("<IQ")
#: v2 dropped the ``charge_collectives`` scheduler keyword; a v1 file
#: would carry it in ``kwargs`` and fail to rebuild its scheduler.  v3
#: packs each search stack entry into two int64 words; a v2 search
#: workload's planes and kernel fields no longer match the kernel.  v4
#: drops the scheduler's ``Trace`` recorder (``trace_obj`` and the
#: ``trace`` keyword); a v3 file's kwargs would not rebuild a scheduler.
#: v5 stores each ``DFSStack`` entry's heuristic (``StackEntry.h``); a
#: v4 search workload's entries lack it.
_VERSION = 5


def _frame(blob: bytes) -> bytes:
    """A checkpoint file's bytes: ``MAGIC | crc32 | length | blob``."""
    return MAGIC + _FRAME.pack(zlib.crc32(blob), len(blob)) + blob


def _unframe(raw: bytes, path: Path) -> bytes:
    """The payload of a checkpoint file's one frame: the magic, the
    exact length (nothing missing, nothing trailing) and the CRC must
    all hold, else :class:`~repro.errors.CheckpointCorruptError`."""
    if not raw.startswith(MAGIC):
        raise CheckpointCorruptError(
            f"{path} is not a checkpoint file (bad magic)"
        )
    start = len(MAGIC) + _FRAME.size
    if len(raw) < start:
        raise CheckpointCorruptError(f"{path} is truncated (no frame header)")
    crc, length = _FRAME.unpack_from(raw, len(MAGIC))
    end = start + length
    if len(raw) < end:
        raise CheckpointCorruptError(
            f"{path} is truncated ({len(raw) - start} of {length} payload bytes)"
        )
    if len(raw) > end:
        raise CheckpointCorruptError(
            f"{path} has {len(raw) - end} trailing bytes after its frame"
        )
    blob = raw[start:end]
    if zlib.crc32(blob) != crc:
        raise CheckpointCorruptError(f"{path} failed its CRC check")
    return blob


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often a scheduled run checkpoints itself.

    ``every`` counts expansion cycles on the machine ledger; the file at
    ``path`` is atomically replaced at each write, so it always holds the
    latest complete checkpoint.
    """

    path: str | Path
    every: int = 100

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ConfigError(f"checkpoint every must be >= 1, got {self.every}")


def write_checkpoint(scheduler: "Scheduler", path: str | Path) -> None:
    """Serialize a scheduler's full run state to ``path`` atomically."""
    scheme = scheduler.scheme
    payload: dict[str, Any] = {
        "version": _VERSION,
        "scheme": scheme.name if hasattr(scheme, "name") else str(scheme),
        "workload": scheduler.workload,
        "machine": scheduler.machine,
        "matcher": scheduler.matcher,
        "trigger": scheduler.trigger,
        "n_init_lb": scheduler._n_init_lb,
        "fault_runtime": scheduler._faults,
        "kwargs": {
            "init_threshold": scheduler.init_threshold,
            "max_cycles": scheduler.max_cycles,
            "sanitize": scheduler.sanitize,
        },
    }
    framed = _frame(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    atomic_write_bytes(Path(path), framed)
    # Observability is optional and strictly observational; getattr keeps
    # this callable for scheduler-like objects without an obs field.
    obs = getattr(scheduler, "obs", None)
    if obs is not None and obs.metrics is not None:
        obs.metrics.counter("checkpoint.writes").inc()
        obs.metrics.counter("checkpoint.bytes").inc(len(framed))
        obs.metrics.gauge("checkpoint.last_bytes").set(len(framed))


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read and validate a checkpoint file; return its payload dict."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointCorruptError(
            f"cannot read checkpoint {path}: {exc}"
        ) from exc
    blob = _unframe(raw, path)
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointCorruptError(
            f"{path} payload does not unpickle: {exc}"
        ) from exc
    if not isinstance(payload, dict) or payload.get("version") != _VERSION:
        raise CheckpointCorruptError(
            f"{path} has unsupported checkpoint version "
            f"{payload.get('version') if isinstance(payload, dict) else '?'}"
        )
    return payload


def load_scheduler(
    path: str | Path, *, checkpoint: CheckpointConfig | None = None
) -> "Scheduler":
    """Rebuild a :class:`~repro.core.scheduler.Scheduler` mid-run.

    The returned scheduler's :meth:`run` continues the loop from the
    checkpointed cycle.  Pass ``checkpoint`` to keep checkpointing the
    resumed run (defaults to off); set ``obs`` on it before ``run`` to
    observe the rest of the run.
    """
    from repro.core.scheduler import Scheduler

    payload = load_checkpoint(path)
    scheduler = Scheduler(
        payload["workload"],
        payload["machine"],
        payload["scheme"],
        faults=payload["fault_runtime"],
        checkpoint=checkpoint,
        **payload["kwargs"],
    )
    scheduler.matcher = payload["matcher"]
    scheduler.trigger = payload["trigger"]
    scheduler._n_init_lb = payload["n_init_lb"]
    scheduler._resumed = True
    scheduler._last_checkpoint_cycle = payload["machine"].n_cycles
    return scheduler


def resume_run(
    path: str | Path, *, checkpoint: CheckpointConfig | None = None
) -> "RunMetrics":
    """Load a checkpoint and run it to completion; return the metrics."""
    return load_scheduler(path, checkpoint=checkpoint).run()

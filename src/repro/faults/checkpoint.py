"""Checkpoint/resume for scheduled runs.

A checkpoint is the *complete* state of a run at a cycle boundary:
workload arrays (stacks, arena windows, RNG streams), machine ledger and
counters, the matcher (GP pointer included), the trigger's accumulators,
the trace so far, and the live fault runtime (alive mask, quarantine,
drop/dup RNG).  Restoring it and continuing the loop is bit-identical to
never having stopped — the resume-vs-straight-through equivalence the
test suite asserts.

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
truncated file is refused, never half-restored.

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
    "FRAME_HEADER",
    "frame_payload",
    "try_parse_frame",
    "parse_frame",
    "write_checkpoint",
    "load_checkpoint",
    "load_scheduler",
    "resume_run",
]

MAGIC = b"REPROCKPT1\n"
#: One CRC frame header: crc32 of the payload (u32 LE), payload length
#: (u64 LE).  Shared by checkpoints (one frame per file) and the
#: write-ahead cell journal (many frames per file).
FRAME_HEADER = struct.Struct("<IQ")
#: v2 dropped the ``charge_collectives`` scheduler keyword; a v1 file
#: would carry it in ``kwargs`` and fail to rebuild its scheduler.  v3
#: packs each search stack entry into two int64 words; a v2 search
#: workload's planes and kernel fields no longer match the kernel.
_VERSION = 3


def frame_payload(blob: bytes) -> bytes:
    """CRC-frame one payload: ``crc32 | length | payload`` bytes."""
    return FRAME_HEADER.pack(zlib.crc32(blob), len(blob)) + blob


def try_parse_frame(raw: bytes, offset: int) -> tuple[str, bytes | None, int]:
    """Parse one CRC frame at ``offset`` without raising.

    Returns ``(status, payload, next_offset)`` where status is:

    - ``"ok"`` — intact frame; ``payload`` is its bytes and
      ``next_offset`` the first byte after it;
    - ``"short"`` — the buffer ends before the frame does (a torn tail:
      the only artifact an interrupted append can leave);
    - ``"crc"`` — the frame is complete but its payload fails the CRC
      (bit rot or an interleaved writer — never a clean crash).

    On non-``"ok"`` statuses ``payload`` is ``None`` and ``next_offset``
    echoes ``offset`` (the last known-good boundary).
    """
    header_end = offset + FRAME_HEADER.size
    if header_end > len(raw):
        return "short", None, offset
    crc, length = FRAME_HEADER.unpack_from(raw, offset)
    payload_end = header_end + length
    if payload_end > len(raw):
        return "short", None, offset
    payload = raw[header_end:payload_end]
    if zlib.crc32(payload) != crc:
        return "crc", None, offset
    return "ok", payload, payload_end


def parse_frame(
    raw: bytes,
    offset: int,
    *,
    where: str,
    error: type[CheckpointCorruptError] = CheckpointCorruptError,
) -> tuple[bytes, int]:
    """Like :func:`try_parse_frame` but raising ``error`` on any defect."""
    status, payload, next_offset = try_parse_frame(raw, offset)
    if status == "short":
        raise error(f"{where} is truncated (incomplete frame at byte {offset})")
    if status == "crc":
        raise error(f"{where} failed its CRC check (frame at byte {offset})")
    assert payload is not None
    return payload, next_offset


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
        "trace_obj": scheduler._trace_obj,
        "n_init_lb": scheduler._n_init_lb,
        "fault_runtime": scheduler._faults,
        "kwargs": {
            "init_threshold": scheduler.init_threshold,
            "trace": scheduler.trace,
            "max_cycles": scheduler.max_cycles,
            "sanitize": scheduler.sanitize,
        },
    }
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    framed = MAGIC + frame_payload(blob)
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
    if not raw.startswith(MAGIC):
        raise CheckpointCorruptError(
            f"{path} is not a checkpoint file (bad magic)"
        )
    blob, end = parse_frame(raw, len(MAGIC), where=str(path))
    if end != len(raw):
        raise CheckpointCorruptError(
            f"{path} has {len(raw) - end} trailing bytes after its frame"
        )
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
    resumed run (defaults to off).
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
    scheduler._trace_obj = payload["trace_obj"]
    scheduler._n_init_lb = payload["n_init_lb"]
    scheduler._resumed = True
    scheduler._last_checkpoint_cycle = payload["machine"].n_cycles
    return scheduler


def resume_run(
    path: str | Path, *, checkpoint: CheckpointConfig | None = None
) -> "RunMetrics":
    """Load a checkpoint and run it to completion; return the metrics."""
    return load_scheduler(path, checkpoint=checkpoint).run()

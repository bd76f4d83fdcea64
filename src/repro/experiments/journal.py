"""Write-ahead cell journal: durable, crash-resumable ``run_grid`` sweeps.

The paper's experiments are long parameter sweeps (Tables 2-6: six
schemes x work sizes x machine sizes).  Before this module, a grid that
died mid-sweep lost every completed cell; now ``run_grid(journal=path)``
durably records each cell the moment it completes, and
``run_grid(..., resume=True)`` replays the journal and skips finished
cells — producing records **bit-identical** to an uninterrupted run,
because each cell is a pure function of its content-addressed key and
the record dict round-trips floats exactly
(:func:`repro.experiments.store.record_to_dict`).

On-disk format — append-only, CRC-framed (the checkpoint layer's frame,
:data:`repro.faults.checkpoint.FRAME_HEADER`)::

    MAGIC (11 bytes) | frame | frame | ...
    frame := crc32 (u32 LE) | payload length (u64 LE) | payload (JSON)

The first frame is the header ``{"schema", "code_version"}``; every
later frame is one completed cell ``{"key", "index", "record"}``.  The
file is *created* durably via :func:`repro.util.atomic.
atomic_write_bytes` (unique staged temp, file fsync, ``os.replace``,
parent-directory fsync); each append is a single framed write followed
by ``fsync``, so
an interrupted append can only ever leave a **torn tail** — a prefix of
the final frame.  Opening an existing journal replays every intact
frame, then truncates the torn tail away so the next append starts at a
clean frame boundary.  Anything worse — bad magic, an unreadable
header, an unsupported schema, or a CRC mismatch on an *interior*
frame (bit rot; a second writer) — raises
:class:`~repro.errors.JournalCorruptError` and the file is refused,
never half-replayed.

Entries are keyed by :func:`cell_key` — a SHA-256 over
``(scheme spec, W, P, cell_seed, code_version)``.  ``code_version``
folds the package version and both persistence schema versions in, so a
code change that could alter records invalidates every cached cell
instead of resuming stale results.  The same content-addressed key is
the substrate the ROADMAP's ``repro serve`` result cache reuses:
identical re-submissions hit the journal/store instead of recomputing.

The journal is **single-writer** by construction: only the ``run_grid``
parent process appends (workers return results over the pool), so
frames never interleave.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import JournalCorruptError, RecordStoreError
from repro.experiments.store import (
    SCHEMA_VERSION as RECORD_SCHEMA_VERSION,
    record_from_dict,
    record_to_dict,
)
from repro.faults.checkpoint import frame_payload, try_parse_frame
from repro.obs.profile import span
from repro.util.atomic import atomic_write_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.metrics import RunMetrics
    from repro.experiments.batched import CellPlan
    from repro.experiments.runner import GridRecord

__all__ = [
    "MAGIC",
    "SCHEMA_VERSION",
    "code_version",
    "cell_key",
    "CellJournal",
    "replay_journal",
]

MAGIC = b"REPROJRNL1\n"

#: Journal file schema.  Bumping it refuses old files loudly.
SCHEMA_VERSION = 1


def code_version() -> str:
    """The code identity folded into every :func:`cell_key`.

    A pure function of the installed package version and the
    record/journal schema versions — any of them changing means a
    journaled record may no longer equal what the current code would
    compute, so the key changes and stale cells are recomputed instead
    of resumed.
    """
    from repro import __version__

    return (
        f"repro-{__version__}"
        f"+records-v{RECORD_SCHEMA_VERSION}+journal-v{SCHEMA_VERSION}"
    )


def cell_key(
    scheme: str,
    total_work: int,
    n_pes: int,
    seed: int,
    *,
    version: str | None = None,
) -> str:
    """Content-addressed identity of one grid cell's result.

    A SHA-256 hex digest of ``(spec string, W, P, cell_seed,
    code_version)`` — everything that determines the record bit-for-bit
    and nothing that doesn't (executor choice, shard layout, retry
    history and observability are all record-invariant by the grid's
    identity contract).
    """
    if version is None:
        version = code_version()
    text = "|".join(
        [scheme, f"W={total_work}", f"P={n_pes}", f"seed={seed}", version]
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _decode_payload(payload: bytes, path: Path, what: str) -> dict:
    try:
        data = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise JournalCorruptError(
            f"{path} has an undecodable {what} frame: {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise JournalCorruptError(f"{path} has a malformed {what} frame")
    return data


def replay_journal(
    path: str | Path, *, recover: bool = True
) -> tuple[dict, dict[str, "GridRecord"], int, bool]:
    """Read a journal; return ``(header, records_by_key, end, torn)``.

    ``end`` is the byte offset after the last intact frame and ``torn``
    whether a torn tail followed it.  With ``recover=False`` a torn tail
    raises :class:`~repro.errors.JournalCorruptError` instead of being
    reported — the strict mode the corruption tests drive.  Interior
    CRC failures always raise, recover or not: a clean crash cannot
    damage bytes that were already written, so they mean real corruption.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise JournalCorruptError(f"cannot read journal {path}: {exc}") from exc
    if not raw.startswith(MAGIC):
        raise JournalCorruptError(f"{path} is not a cell journal (bad magic)")

    payloads: list[bytes] = []
    offset = len(MAGIC)
    torn = False
    while offset < len(raw):
        status, payload, next_offset = try_parse_frame(raw, offset)
        if status == "ok":
            assert payload is not None
            payloads.append(payload)
            offset = next_offset
            continue
        if status == "crc":
            raise JournalCorruptError(
                f"{path} frame at byte {offset} failed its CRC check"
            )
        # A short tail: the one artifact an interrupted append leaves.
        if not recover:
            raise JournalCorruptError(
                f"{path} is truncated (torn frame at byte {offset})"
            )
        torn = True
        break

    if not payloads:
        # The header is written atomically at creation, so a journal
        # without one was never valid — refuse even in recover mode.
        raise JournalCorruptError(f"{path} has no intact header frame")
    header = _decode_payload(payloads[0], path, "header")
    if header.get("schema") != SCHEMA_VERSION:
        raise JournalCorruptError(
            f"{path} has unsupported journal schema "
            f"{header.get('schema')!r} (expected {SCHEMA_VERSION})"
        )

    records: dict[str, GridRecord] = {}
    for payload in payloads[1:]:
        entry = _decode_payload(payload, path, "cell")
        try:
            key = entry["key"]
            record = record_from_dict(entry["record"])
        except (KeyError, RecordStoreError) as exc:
            raise JournalCorruptError(
                f"{path} has a malformed cell frame: {exc}"
            ) from exc
        # Duplicate keys (a sweep re-run without resume) keep the last
        # entry — identical by the determinism contract either way.
        records[key] = record
    return header, records, offset, torn


class CellJournal:
    """Append-only write-ahead journal of completed grid cells.

    Opening a path that does not exist creates it (header written
    atomically via tmp + ``os.replace``); opening an existing journal
    replays it, exposes the recovered records through :meth:`get` /
    :meth:`lookup`, and truncates a torn tail so appends resume at a
    clean boundary (``recovered_torn_tail`` records that this happened).

    ``version`` defaults to :func:`code_version`; tests override it to
    model resuming under changed code (keys stop matching, cells rerun).
    """

    def __init__(self, path: str | Path, *, version: str | None = None) -> None:
        self.path = Path(path)
        self.version = code_version() if version is None else version
        self._records: dict[str, GridRecord] = {}
        self.recovered_torn_tail = False
        if self.path.exists():
            self._replay_existing()
        else:
            self._create()

    # -- open/create -------------------------------------------------------

    def _create(self) -> None:
        header = json.dumps(
            {"schema": SCHEMA_VERSION, "code_version": self.version},
            sort_keys=True,
        ).encode("utf-8")
        framed = MAGIC + frame_payload(header)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Unique staged temp + file fsync + replace + directory fsync:
        # concurrent creators of the same journal path cannot clobber
        # each other's staging, and a crash right after creation cannot
        # lose the file (the "survives any crash" contract append()
        # documents starts at the header frame).
        atomic_write_bytes(self.path, framed)

    def _replay_existing(self) -> None:
        with span("journal.replay", cat="grid"):
            _, records, end, torn = replay_journal(self.path, recover=True)
            self._records = records
            if torn:
                self.recovered_torn_tail = True
                with open(self.path, "r+b") as fh:
                    fh.truncate(end)

    # -- keys --------------------------------------------------------------

    def key_for(self, plan: "CellPlan") -> str:
        """The :func:`cell_key` of a planned cell under this journal's
        code version."""
        return cell_key(
            plan.scheme.name,
            plan.total_work,
            plan.n_pes,
            plan.seed,
            version=self.version,
        )

    # -- writes ------------------------------------------------------------

    def append(self, key: str, index: int, record: "GridRecord") -> None:
        """Durably record one completed cell (idempotent per key).

        The frame is written in one call and fsynced before returning,
        so once this method returns the cell survives any crash.
        """
        if key in self._records:
            return
        with span("journal.append", cat="grid"):
            entry = {
                "key": key,
                "index": index,
                "record": record_to_dict(record),
            }
            blob = json.dumps(entry, sort_keys=True).encode("utf-8")
            with open(self.path, "ab") as fh:
                fh.write(frame_payload(blob))
                fh.flush()
                os.fsync(fh.fileno())
        self._records[key] = record

    def record_cell(self, plan: "CellPlan", metrics: "RunMetrics") -> None:
        """Journal a just-finished planned cell (the run_grid hook)."""
        from repro.experiments.runner import GridRecord

        record = GridRecord(
            plan.scheme.name, plan.n_pes, plan.total_work, metrics
        )
        self.append(self.key_for(plan), plan.index, record)

    # -- reads -------------------------------------------------------------

    def get(self, key: str) -> "GridRecord | None":
        """The journaled record under ``key``, or ``None``."""
        return self._records.get(key)

    def lookup(self, plan: "CellPlan") -> "GridRecord | None":
        """The journaled record of a planned cell, or ``None``.

        Misses when the cell never completed *or* when the journal was
        written under a different code version — the key encodes both.
        """
        return self._records.get(self.key_for(plan))

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

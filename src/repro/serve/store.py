"""The shared, content-addressed record store behind the service cache.

One file per cell record, named by the cell's
:func:`~repro.experiments.keys.plan_key` (a SHA-256 hex digest over
every record-determining field of the cell's plan and ``code_version``)
and sharded into 256
two-hex-character subdirectories so a store holding millions of cells
never puts them all in one directory.  Payloads reuse the ``store.py``
record schema verbatim (:func:`~repro.experiments.store.record_to_dict`
— repr-float round-trip, so a cached record reloads bit-identical to
the run that produced it).

**Concurrent-writer contract.**  Every ``put`` goes through
:func:`repro.util.atomic.atomic_write_bytes`: a unique staged temp
file, fsync, ``os.replace``, directory fsync.  Any number of service
workers (threads *or* processes on a shared filesystem) may put the
same key simultaneously; the winner is one *complete* payload — and by
the determinism contract all writers of one key carry identical bytes
anyway, so the race is invisible.  Readers see either the old record,
the new record, or (first write) nothing — never a torn file.

Corrupt or version-mismatched payloads raise the same typed
:class:`~repro.errors.RecordStoreError` as the offline store; a missing
key is simply a cache miss (``get`` returns ``None``).
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

from repro.errors import BadRequestError, RecordStoreError
from repro.experiments.runner import GridRecord
from repro.experiments.store import (
    SCHEMA_VERSION,
    record_from_dict,
    record_to_dict,
)
from repro.util.atomic import atomic_write_text, fsync_dir

__all__ = ["RecordStore"]

#: A cell key is a SHA-256 hex digest — anything else is refused before
#: it can touch the filesystem (the HTTP layer passes keys verbatim).
_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


def _check_key(key: str) -> str:
    if not isinstance(key, str) or not _KEY_RE.match(key):
        raise BadRequestError(
            f"record key must be a 64-char lowercase hex digest, got {key!r}"
        )
    return key


class RecordStore:
    """Content-addressed ``key -> GridRecord`` store on a shared directory.

    ``root`` is created on first use.  The store is safe for concurrent
    readers and writers (see the module docstring); it holds no open
    handles and no in-memory state beyond the root path, so any number
    of service processes can share one directory.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Membership is the warm path's per-cell cost: one ``stat`` of a
        # string path, with no ``Path`` object built per key.
        self._prefix = os.path.join(os.fspath(self.root), "")

    def path_for(self, key: str) -> Path:
        """Where ``key``'s record lives (whether or not it exists yet)."""
        _check_key(key)
        return self.root / key[:2] / f"{key}.json"

    # -- writes ------------------------------------------------------------

    def put(self, key: str, record: GridRecord) -> Path:
        """Durably publish ``record`` under ``key`` (idempotent).

        The shard directory's entry in the store root is fsynced on
        first creation, completing the directory-durability chain from
        payload bytes up to the root.
        """
        path = self.path_for(key)
        existed = path.parent.is_dir()
        path.parent.mkdir(exist_ok=True)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "key": key,
            "record": record_to_dict(record),
        }
        atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True))
        if not existed:
            fsync_dir(self.root)
        return path

    # -- reads -------------------------------------------------------------

    def get_payload(self, key: str) -> dict | None:
        """The raw JSON payload under ``key``, or ``None`` on a miss.

        Raises :class:`~repro.errors.RecordStoreError` when the file
        exists but is unreadable, not valid JSON, structurally wrong, or
        written under an unsupported record schema.
        """
        path = self.path_for(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise RecordStoreError(f"cannot read record {path}: {exc}") from exc
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RecordStoreError(f"{path} is not valid JSON: {exc}") from exc
        if (
            not isinstance(payload, dict)
            or payload.get("key") != key
            or "record" not in payload
        ):
            raise RecordStoreError(f"{path} is not a record payload for {key}")
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise RecordStoreError(
                f"{path} has unsupported record schema version "
                f"{payload.get('schema_version')!r} (expected {SCHEMA_VERSION})"
            )
        return payload

    def get(self, key: str) -> GridRecord | None:
        """The record under ``key``, or ``None`` on a miss (typed
        ``RecordStoreError`` on corruption, like the offline store)."""
        payload = self.get_payload(key)
        if payload is None:
            return None
        return record_from_dict(payload["record"])

    def keys(self) -> list[str]:
        """Every key currently in the store, sorted."""
        return sorted(p.stem for p in self.root.glob("??/*.json"))

    def __contains__(self, key: str) -> bool:
        _check_key(key)
        return os.path.isfile(f"{self._prefix}{key[:2]}{os.sep}{key}.json")

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.json"))

"""Crash- and concurrency-safe file publication.

Every durable artifact in this repository (saved record lists,
checkpoints, metrics snapshots, the content-addressed record store that
grid cells are published to) is published the same way: stage the
complete payload in a temp file, ``fsync`` it, ``os.replace`` it into
place, then ``fsync`` the parent directory.  This module is the single
implementation of that sequence, because the historical copy-pasted
pattern had two real bugs that only bite under concurrency or a crash:

- **Fixed-name temp files** — staging to ``<name>.tmp`` means two
  concurrent savers write the *same* sibling; one ``os.replace`` can
  publish the other's half-written payload, and the loser's replace
  fails with ``FileNotFoundError``.  :func:`atomic_write_bytes` stages
  through ``tempfile.mkstemp(dir=path.parent)``, whose name is unique
  per call, so any number of concurrent writers race only on *which
  complete payload wins*, never on partial content.
- **Missing fsyncs** — ``os.replace`` orders the rename, not the data:
  a crash right after replace can leave an empty or short target (data
  never hit disk), and a crash before the directory entry is durable
  can lose the *file itself* even though its bytes were synced.  The
  helper fsyncs the staged file before the replace and the parent
  directory after it (:func:`fsync_dir`).

The write is all-or-nothing: on any failure the staged temp file is
unlinked and the previous target (if any) is untouched.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["fsync_dir", "atomic_write_bytes", "atomic_write_text"]


def fsync_dir(path: str | Path) -> None:
    """Flush directory ``path``'s entry table to disk.

    ``os.replace`` makes a rename *atomic*, not *durable*: until the
    containing directory is fsynced, a crash can forget the new entry
    entirely — the failure mode the record store's and the
    checkpoint's "survives any crash" contracts both rule out.
    Call this after every ``os.replace`` that publishes durable state.

    Platforms whose directories cannot be opened (e.g. Windows) make
    this a silent no-op — there the rename-durability gap is unfixable
    from userspace, and refusing to save would be strictly worse.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory semantics
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Durably publish ``data`` at ``path`` via a unique staged temp file.

    The payload is written to a ``tempfile.mkstemp`` sibling (unique per
    call — concurrent writers can never clobber each other's staging),
    flushed and fsynced, moved into place with ``os.replace``, and the
    parent directory is fsynced so the entry survives a crash.  On any
    failure the temp file is removed and the previous ``path`` is left
    intact.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_dir(path.parent)
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """:func:`atomic_write_bytes` for UTF-8 text."""
    return atomic_write_bytes(path, text.encode("utf-8"))

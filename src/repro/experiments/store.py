"""JSON persistence for experiment records.

Isoefficiency studies (Figures 4/7) need grids of runs that are cheap
to re-analyze without re-running; this module round-trips
:class:`~repro.experiments.runner.GridRecord` lists through a stable
JSON schema, versioned so stale files fail loudly instead of silently
misparsing.

Two durability guarantees:

- **Atomic, concurrency-safe replace** — :func:`save_records` stages
  the payload through :func:`repro.util.atomic.atomic_write_text`: a
  *unique* ``mkstemp`` temp file (concurrent savers to the same path
  can never clobber each other's staging), fsynced before the
  ``os.replace`` and with the parent directory fsynced after it — so a
  crash mid-write leaves the previous file intact, a crash right after
  the replace cannot leave a short or unsynced target, and any number
  of concurrent writers race only on which *complete* payload wins.
  This is the concurrent-writer contract the serve layer's shared
  :class:`~repro.serve.store.RecordStore` builds on.
- **Typed load errors** — :func:`load_records` raises
  :class:`~repro.errors.RecordStoreError` (a ``ReproError`` that also
  subclasses ``ValueError``) on unreadable, corrupt, or
  version-mismatched payloads, never a bare ``json.JSONDecodeError``
  (nor a bare ``ValueError``/``AttributeError`` from a structurally
  valid payload holding malformed values: :func:`record_from_dict`
  types those itself, for every reader of the schema).

Traces are not persisted (a full per-cycle series dwarfs the record it
annotates); a ``"trace"`` key in an older file is ignored on load.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from pathlib import Path

from repro.core.metrics import RunMetrics
from repro.errors import RecordStoreError
from repro.experiments.runner import GridRecord
from repro.simd.machine import TimeLedger
from repro.util.atomic import atomic_write_text

__all__ = [
    "SCHEMA_VERSION",
    "record_to_dict",
    "record_from_dict",
    "save_records",
    "load_records",
    "to_triples",
]

#: Written by :func:`save_records`.  v2 added ``t_recovery`` and
#: ``n_recovery``.  Public because the cell key folds it into its
#: content-addressed ``code_version`` (a record-schema bump must
#: invalidate cached cells).
SCHEMA_VERSION = 2

#: Accepted by :func:`load_records` (v1 files predate the recovery
#: ledger line).
_SUPPORTED_VERSIONS = frozenset({1, 2})


def record_to_dict(record: GridRecord) -> dict:
    """One record as its stable JSON-schema dict (shared with the record store).

    The dict round-trips **bit-identically** through
    :func:`record_from_dict`: ints are exact and floats serialize via
    ``repr`` (shortest round-trip), so a reloaded ledger equals the
    original float-for-float — the property ``run_grid(store=...)``'s
    resume-identity guarantee rests on.
    """
    m = record.metrics
    return {
        "scheme": record.scheme,
        "n_pes": record.n_pes,
        "total_work": record.total_work,
        "n_expand": m.n_expand,
        "n_lb": m.n_lb,
        "n_transfers": m.n_transfers,
        "n_init_lb": m.n_init_lb,
        "n_recovery": m.n_recovery,
        "ledger": {
            "t_calc": m.ledger.t_calc,
            "t_idle": m.ledger.t_idle,
            "t_lb": m.ledger.t_lb,
            "t_recovery": m.ledger.t_recovery,
            "elapsed": m.ledger.elapsed,
        },
    }


def record_from_dict(data: dict) -> GridRecord:
    """Rebuild a :class:`GridRecord` written by :func:`record_to_dict`.

    Raises
    ------
    RecordStoreError
        When ``data`` is missing a field or holds a malformed value (a
        ledger that is not a mapping of the five ledger lines, say).
        Every reader of the schema — the offline store and the record
        store — gets this one typed error.
    """
    try:
        ledger_data = dict(data["ledger"])
        ledger_data.setdefault("t_recovery", 0.0)  # absent in v1 files
        metrics = RunMetrics(
            scheme=data["scheme"],
            n_pes=data["n_pes"],
            total_work=data["total_work"],
            n_expand=data["n_expand"],
            n_lb=data["n_lb"],
            n_transfers=data["n_transfers"],
            n_init_lb=data["n_init_lb"],
            ledger=TimeLedger(**ledger_data),
            n_recovery=data.get("n_recovery", 0),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        # A structurally valid payload can still hold malformed values:
        # a ledger serialized as a string raises ValueError from dict().
        raise RecordStoreError(f"malformed record: {exc!r}") from exc
    return GridRecord(
        scheme=metrics.scheme,
        n_pes=metrics.n_pes,
        total_work=metrics.total_work,
        metrics=metrics,
    )


def save_records(records: Iterable[GridRecord], path: str | Path) -> Path:
    """Write records to ``path`` as versioned JSON, atomically.

    Traces are dropped.  The payload is staged in a *unique* fsynced
    temp file and moved into place with ``os.replace`` (parent directory
    fsynced after), so an interrupted save never clobbers ``path``, a
    crash never loses the replace, and concurrent savers to the same
    path are safe — see
    :func:`repro.util.atomic.atomic_write_bytes`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "records": [record_to_dict(r) for r in records],
    }
    return atomic_write_text(path, json.dumps(payload, indent=1))


def load_records(path: str | Path) -> list[GridRecord]:
    """Read records written by :func:`save_records`.

    Raises
    ------
    RecordStoreError
        When the file is unreadable, not valid JSON, structurally not a
        record payload, carries an unsupported schema version, or holds
        a malformed record.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise RecordStoreError(f"cannot read record file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise RecordStoreError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "records" not in payload:
        raise RecordStoreError(f"{path} is not a record payload")
    version = payload.get("schema_version")
    if version not in _SUPPORTED_VERSIONS:
        supported = sorted(_SUPPORTED_VERSIONS)
        raise RecordStoreError(
            f"unsupported record schema version {version!r} "
            f"(expected one of {supported})"
        )
    return [record_from_dict(d) for d in payload["records"]]


def to_triples(records: Iterable[GridRecord]) -> list[tuple[int, float, float]]:
    """``(P, W, E)`` triples — the input of
    :func:`repro.analysis.isoefficiency.isoefficiency_points`."""
    return [(r.n_pes, float(r.total_work), r.efficiency) for r in records]

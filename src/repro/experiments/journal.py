"""Content-addressed identity of a grid cell's record.

The paper's experiments are long parameter sweeps (Tables 2-6: six
schemes x work sizes x machine sizes), and each cell is a pure function
of ``(scheme spec, W, P, cell_seed)`` under a given build of the code.
:func:`cell_key` hashes exactly that into one SHA-256 hex digest, so a
content-addressed record store keyed by it
(:class:`repro.serve.store.RecordStore`) is all a sweep needs to be
durable and resumable: ``run_grid(store=...)`` publishes each cell under
its key the moment it finishes and takes any cell already there instead
of recomputing it — bit-identical to an uninterrupted run, because the
record dict round-trips floats exactly
(:func:`repro.experiments.store.record_to_dict`).  The service's cache
and offline sweeps share the same keys.

``code_version`` folds the package version and the record schema
version in, so a code change that could alter records invalidates every
stored cell instead of resuming stale results.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from repro.experiments.store import SCHEMA_VERSION as RECORD_SCHEMA_VERSION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.batched import CellPlan

__all__ = ["code_version", "cell_key", "plan_key"]


def code_version() -> str:
    """The code identity folded into every :func:`cell_key`.

    A pure function of the installed package version and the record
    schema version — either changing means a stored record may no
    longer equal what the current code would compute, so the key
    changes and stale cells are recomputed instead of resumed.
    """
    from repro import __version__

    return f"repro-{__version__}+records-v{RECORD_SCHEMA_VERSION}"


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


def plan_key(plan: "CellPlan") -> str:
    """The :func:`cell_key` of a planned grid cell — the one expression
    both ``run_grid`` and the service derive a plan's key with."""
    return cell_key(plan.scheme.name, plan.total_work, plan.n_pes, plan.seed)

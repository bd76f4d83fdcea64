"""Deterministic crash injection for the ``run_grid`` process pool.

:class:`GridChaos` is a test hook shipped inside the worker payload: it
names one grid cell (by flat index) and a crash ``kind``, and fires on
the configured attempt numbers only.  Because the trigger is a pure
function of ``(index, attempt)`` — no randomness, no clocks — chaos runs
are exactly reproducible and the retried attempt is guaranteed clean,
which is what lets the hardened grid assert that a retried cell's record
equals the serial oracle's.

Every pooled unit honors it through the one pool worker: under the
armed watchdog and before any simulation starts, it calls
:meth:`GridChaos.maybe_trigger` for every cell the unit carries (a
cost-cut shard, or one cell when a failed shard's cells are retried)
with that cell's own attempt number — so the same
``GridChaos(index=...)`` crashes the same logical work however the grid
is cut, and the retried cell runs clean.

Kinds:

- ``"exit"`` — hard-kill the worker process (``os._exit``), which the
  parent observes as ``BrokenProcessPool``; exercises pool respawn;
- ``"raise"`` — raise a :class:`~repro.errors.GridCellError` inside the
  worker; exercises per-cell retry accounting;
- ``"hang"`` — sleep past any per-cell timeout; exercises the in-worker
  alarm path (the serial executor has none and rejects chaos).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.errors import ConfigError, GridCellError

__all__ = ["GridChaos", "CHAOS_KINDS"]

CHAOS_KINDS = ("exit", "raise", "hang")

# How long a "hang" sleeps; far past any sane per-cell timeout but small
# enough that an un-timed-out test still finishes.
_HANG_SECONDS = 120.0


@dataclass(frozen=True)
class GridChaos:
    """Crash cell ``index`` with ``kind`` on the listed ``attempts``."""

    index: int
    kind: str = "exit"
    attempts: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ConfigError(
                f"chaos kind must be one of {CHAOS_KINDS}, got {self.kind!r}"
            )
        if self.index < 0:
            raise ConfigError(f"chaos cell index must be >= 0, got {self.index}")
        if not self.attempts or any(a < 0 for a in self.attempts):
            raise ConfigError(
                f"chaos attempts must be non-empty and >= 0, got {self.attempts}"
            )

    def maybe_trigger(self, index: int, attempt: int) -> None:
        """Fire the configured crash if ``(index, attempt)`` matches.

        Runs inside the pool worker, before the unit's simulation starts.
        """
        if index != self.index or attempt not in self.attempts:
            return
        if self.kind == "exit":
            # Bypass all cleanup so the parent sees an abrupt worker death,
            # exactly like an OOM kill or segfault would look.
            os._exit(1)
        if self.kind == "raise":
            raise GridCellError(
                f"chaos: injected failure in cell {index} (attempt {attempt})"
            )
        time.sleep(_HANG_SECONDS)

"""Cell-packed flat storage: many (scheme, W, P) grid cells in one arena.

A grid run is a set of *independent* divisible-workload cells, each a
1-D int64 ``work`` vector of its own width ``P_c``.  Advancing them one
at a time (the serial path) pays the numpy dispatch overhead of every
kernel call per cell per cycle; on small cells that overhead dwarfs the
O(P) work.  :class:`MegaArena` packs all cells onto **one flat PE axis**
— cell ``c`` owns rows ``offsets[c]:offsets[c+1]`` — so a single
full-width ``expand_cycle`` call runs every cell's lock-step
node-expansion cycle at once and returns the per-cell expanding and
busy counts, each one segmented reduction.

This is the storage layer of the batched grid executor
(:mod:`repro.experiments.batched`); the lock-step *semantics* — when a
cell expands, triggers, balances — live there.  The kernels here are
deliberately dumb: full-width elementwise ops plus ``np.add.reduceat``
segment counts, bit-identical per cell to what
:class:`~repro.workmodel.divisible.DivisibleWorkload` computes on its
own private vector.

A cell that finishes leaves the arena (:meth:`keep`), so a grid whose
cells finish at different cycles stops paying for the rows of the ones
already done: every kernel call scans only the cells still running.

Cross-cell isolation is structural: every write is either full-width
elementwise (masked by each row's own state, so row ``i`` only
ever depends on row ``i``) or goes through :meth:`cell`, a slice view
bounded by the owning cell's offsets.  The fuzz suite locks this in by
mutating single cells and asserting every other cell's bytes unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.util.validation import check_positive_int

__all__ = ["MegaArena"]


class MegaArena:
    """Int64 work counts of many independent cells on one flat PE axis.

    Parameters
    ----------
    pes:
        Machine width ``P_c`` of each cell (all >= 1).
    roots:
        Optional per-cell initial root work ``W_c``; when given, cell
        ``c`` starts with ``W_c`` on its first PE (the paper's "root on
        one processor" setting).  Omitted, every cell starts empty.

    Attributes
    ----------
    work:
        The flat ``(sum of P_c,)`` int64 array holding every cell's
        per-PE node counts, cell ``c`` in rows ``offsets[c]:offsets[c+1]``.
    offsets:
        ``(n_cells + 1,)`` row-offset table; ``offsets[0] == 0``.
    """

    def __init__(
        self,
        pes: Sequence[int],
        *,
        roots: Sequence[int] | None = None,
    ) -> None:
        widths = [check_positive_int(int(p), "cell width") for p in pes]
        if not widths:
            raise ValueError("MegaArena needs at least one cell")
        self.offsets = np.zeros(len(widths) + 1, dtype=np.int64)
        np.cumsum(widths, out=self.offsets[1:])
        self._starts = self.offsets[:-1]
        self.work = np.zeros(int(self.offsets[-1]), dtype=np.int64)
        self._expanded = np.zeros(len(widths), dtype=np.int64)
        if roots is not None:
            if len(roots) != len(widths):
                raise ValueError(
                    f"got {len(roots)} root work sizes for {len(widths)} cells"
                )
            for c, w in enumerate(roots):
                check_positive_int(int(w), "cell root work")
            self.work[self._starts] = np.asarray(roots, dtype=np.int64)

    # -- shape ------------------------------------------------------------

    @property
    def n_cells(self) -> int:
        return len(self._starts)

    @property
    def total_width(self) -> int:
        """Sum of all cell widths — the flat PE-axis length."""
        return int(self.offsets[-1])

    def widths(self) -> np.ndarray:
        """Per-cell machine widths ``P_c``."""
        return np.diff(self.offsets)

    # -- per-cell access --------------------------------------------------

    def cell(self, c: int) -> np.ndarray:
        """The ``work`` rows of cell ``c`` as a bounds-checked slice view.

        Writes through the view mutate the arena (this is how per-cell
        LB transfers are applied); the view cannot reach another cell's
        rows by construction.
        """
        if not 0 <= c < self.n_cells:
            raise IndexError(f"cell {c} out of range [0, {self.n_cells})")
        return self.work[int(self.offsets[c]) : int(self.offsets[c + 1])]

    def views(self) -> list[np.ndarray]:
        """Every cell's ``work`` rows as slice views, in cell order, as
        :meth:`cell` returns them; valid until the next :meth:`keep`."""
        return np.split(self.work, self.offsets[1:-1])

    def expanded(self) -> np.ndarray:
        """Per-cell cumulative expansion counts (copy)."""
        return self._expanded.copy()

    def unpack(self) -> list[np.ndarray]:
        """Each cell's work vector as an independent copy."""
        return [self.cell(c).copy() for c in range(self.n_cells)]

    def keep(self, mask: Sequence[bool] | np.ndarray) -> None:
        """Drop every cell whose ``mask`` entry is False, in place.

        The survivors keep their order, their rows and their expansion
        counts; cell indices renumber to ``0..n_kept-1``.  The flat axis
        shrinks to the survivors' widths, so the full-width kernels stop
        scanning rows of cells that are gone.  Views from :meth:`cell`
        taken before the call no longer alias the arena.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self._expanded.shape:
            raise ValueError(
                f"got a mask of {mask.shape[0]} entries for {self.n_cells} cells"
            )
        if not mask.any():
            raise ValueError("MegaArena needs at least one cell")
        widths = self.widths()
        self.work = self.work[np.repeat(mask, widths)]
        self._expanded = self._expanded[mask]
        self.offsets = np.zeros(len(self._expanded) + 1, dtype=np.int64)
        np.cumsum(widths[mask], out=self.offsets[1:])
        self._starts = self.offsets[:-1]

    # -- full-width kernels ----------------------------------------------

    def expand_cycle(self) -> tuple[np.ndarray, np.ndarray]:  # repro: kernel
        """One lock-step node-expansion cycle for **every** cell at once.

        Full-width and unmasked across cells: each row with ``work > 0``
        expands exactly one node, exactly as
        ``DivisibleWorkload.expand_cycle`` does per cell — rows of
        finished cells are all zero and therefore self-masking.  Returns
        two per-cell vectors: the count of rows that expanded (cell
        ``c``'s ``n_expanding`` for this cycle) and the count of busy
        (splittable, ``work >= 2``) rows after the expansion.
        """
        work = self.work
        active = work > 0
        counts = np.add.reduceat(active, self._starts, dtype=np.int64)
        # Subtracting the 0/1 mask decrements exactly the active rows.
        np.subtract(work, active, out=work)
        self._expanded += counts
        return counts, np.add.reduceat(work > 1, self._starts, dtype=np.int64)

    def nonzero_counts(self) -> np.ndarray:  # repro: kernel
        """Per-cell count of non-idle (``work >= 1``) PEs.

        Full-width read-only reduction over the unmasked flat axis.
        """
        return np.add.reduceat(self.work > 0, self._starts, dtype=np.int64)

    def remaining(self) -> np.ndarray:  # repro: kernel
        """Per-cell unexpanded node totals (conservation observable)."""
        return np.add.reduceat(self.work, self._starts)

    # -- invariants -------------------------------------------------------

    def check_conservation(self, total_work: Sequence[int]) -> bool:
        """``expanded + remaining == W`` per cell, at every instant."""
        totals = np.asarray(total_work, dtype=np.int64)
        if totals.shape != self._expanded.shape:
            raise ValueError(
                f"got {totals.shape[0]} work totals for {self.n_cells} cells"
            )
        return bool(np.all(self._expanded + self.remaining() == totals))

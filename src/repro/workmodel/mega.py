"""Cell-packed flat storage: many (scheme, W, P) grid cells in one arena.

A grid run is a set of *independent* divisible-workload cells, each a
1-D int64 ``work`` vector of its own width ``P_c``.  Advancing them one
at a time (the serial path) pays the numpy dispatch overhead of every
kernel call per cell per cycle; on small cells that overhead dwarfs the
O(P) work.  :class:`MegaArena` packs all cells onto **one flat PE axis**
— cell ``c`` owns rows ``offsets[c]:offsets[c+1]`` — so a single
full-width ``expand_all`` call runs every cell's lock-step
node-expansion cycle at once, and per-cell observables (expanding /
busy / non-idle counts) come back as one segmented reduction each.

This is the storage layer of the batched grid executor
(:mod:`repro.experiments.batched`); the lock-step *semantics* — when a
cell expands, triggers, balances — live there.  The kernels here are
deliberately dumb: full-width elementwise ops plus ``np.add.reduceat``
segment counts, bit-identical per cell to what
:class:`~repro.workmodel.divisible.DivisibleWorkload` computes on its
own private vector.

Cross-cell isolation is structural: every write is either full-width
elementwise (``where``-masked on each row's own state, so row ``i`` only
ever depends on row ``i``) or goes through :meth:`cell`, a slice view
bounded by the owning cell's offsets.  The fuzz suite locks this in by
mutating single cells and asserting every other cell's bytes unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.kernels.dispatch import (
    DEFAULT_KERNEL_BACKEND,
    get_kernel,
    resolve_backend,
)
from repro.kernels.workspace import KernelWorkspace
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
    kernel_backend:
        Tier for the four grid kernels — ``"numpy"`` (reference),
        ``"fused"`` (scratch-backed; count vectors come back as
        *borrowed* workspace views, valid until the same kernel's next
        call), ``"jit"`` or ``"auto"`` (default).
    workspace:
        Optional shared :class:`~repro.kernels.KernelWorkspace`; one is
        created per arena when a non-numpy tier needs it.

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
        kernel_backend: str = DEFAULT_KERNEL_BACKEND,
        workspace: KernelWorkspace | None = None,
    ) -> None:
        resolved = resolve_backend(kernel_backend)
        self.kernel_backend = resolved
        if workspace is None and resolved != "numpy":
            workspace = KernelWorkspace()
        self._kernel_ws = workspace
        self._expand_kernel = get_kernel("mega.expand_all", resolved)
        self._busy_kernel = get_kernel("mega.busy_counts", resolved)
        self._nonzero_kernel = get_kernel("mega.nonzero_counts", resolved)
        self._remaining_kernel = get_kernel("mega.remaining", resolved)
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

    def expanded(self) -> np.ndarray:
        """Per-cell cumulative expansion counts (copy)."""
        return self._expanded.copy()

    def unpack(self) -> list[np.ndarray]:
        """Each cell's work vector as an independent copy."""
        return [self.cell(c).copy() for c in range(self.n_cells)]

    # -- full-width kernels ----------------------------------------------

    def expand_all(self) -> np.ndarray:  # repro: kernel
        """One lock-step node-expansion cycle for **every** cell at once.

        Full-width and unmasked across cells: each row with ``work > 0``
        expands exactly one node, exactly as
        ``DivisibleWorkload.expand_cycle`` does per cell — rows of
        finished cells are all zero and therefore self-masking.  Returns
        the per-cell count of rows that expanded (cell ``c``'s
        ``n_expanding`` for this cycle).  Fused tier: the returned counts
        are a borrowed workspace view — consume before the next call.
        """
        return self._expand_kernel(
            self.work, self._starts, self._expanded, self._kernel_ws
        )

    def busy_counts(self) -> np.ndarray:  # repro: kernel
        """Per-cell count of busy (splittable, ``work >= 2``) PEs.

        Full-width read-only reduction over the unmasked flat axis.
        """
        return self._busy_kernel(self.work, self._starts, self._kernel_ws)

    def nonzero_counts(self) -> np.ndarray:  # repro: kernel
        """Per-cell count of non-idle (``work >= 1``) PEs.

        Full-width read-only reduction over the unmasked flat axis.
        """
        return self._nonzero_kernel(self.work, self._starts, self._kernel_ws)

    def remaining(self) -> np.ndarray:  # repro: kernel
        """Per-cell unexpanded node totals (conservation observable)."""
        return self._remaining_kernel(self.work, self._starts, self._kernel_ws)

    # -- invariants -------------------------------------------------------

    def check_conservation(self, total_work: Sequence[int]) -> bool:
        """``expanded + remaining == W`` per cell, at every instant."""
        totals = np.asarray(total_work, dtype=np.int64)
        if totals.shape != self._expanded.shape:
            raise ValueError(
                f"got {totals.shape[0]} work totals for {self.n_cells} cells"
            )
        return bool(np.all(self._expanded + self.remaining() == totals))

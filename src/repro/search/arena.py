"""Flat-arena storage for real per-PE DFS search stacks.

For a general problem :class:`~repro.search.parallel.SearchWorkload`
keeps one :class:`~repro.search.stack.DFSStack` of ``StackEntry`` objects
per PE and pays a Python-level loop — pop, goal test, expand, heuristic,
push — per PE per lock-step cycle.  At machine width (P >= 1024) that
loop dominates the 15-puzzle experiment's wall clock the same way the
deque loop dominated the synthetic stack model before
:class:`~repro.workmodel.arena.StackArena`.

:class:`SearchArena` is the real-search analogue: every PE's stack lives
in one pair of packed arrays —

- ``tiles``: ``(n_pes, capacity, state_width)`` uint8 — one encoded
  puzzle state per slot;
- ``meta``: ``(n_pes, capacity, 4)`` int32 — the parallel ``g``, ``h``,
  blank-position and previous-blank columns

— with per-PE ``bottom``/``top`` pointers.  The live stack of PE ``p``
is the slot window ``[bottom[p], top[p])``; pushes and pops move ``top``
on the right, bottom-of-stack donation (the paper's 15-puzzle policy,
Section 5) advances ``bottom`` on the left in O(1) per pair.  All
operations are full-width numpy kernels; none iterates over PEs.

Why a flat window is *exactly* a ``DFSStack``: the level structure of
a ``DFSStack`` concatenates, in level order, to one flat sequence.
``pop_next`` removes the flat tail (the deepest level's last entry),
``push_level`` appends to the flat tail, and ``split_bottom`` removes
the flat head (level 0's first entry).  Every workload operation reads
or writes only the two ends, so storing the flat sequence loses nothing
— and the cross-storage suite asserts the resulting searches are
expansion-count- and solution-identical, scheme for scheme.

The expansion *kernel* (move tables, delta-``h``, bound pruning) lives
with the workload in :mod:`repro.search.parallel`; this module is pure
storage, mirroring the ``stackmodel``/``arena`` split of the work model.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive_int

__all__ = ["SearchArena", "G_COL", "H_COL", "BLANK_COL", "PREV_COL"]

#: Columns of the ``meta`` plane, in storage order.
G_COL, H_COL, BLANK_COL, PREV_COL = 0, 1, 2, 3


class SearchArena:
    """``P`` bounded-depth search stacks packed into two arrays.

    Parameters
    ----------
    n_pes:
        ``P`` — one stack (row) per processing element.
    state_width:
        Cells per encoded state (``side^2`` for sliding puzzles).
    capacity:
        Initial slots per PE; grows by compact-then-double when a push
        would overflow, so amortized push cost stays O(1) per entry.
    """

    def __init__(self, n_pes: int, state_width: int, *, capacity: int = 64) -> None:
        self.n_pes = check_positive_int(n_pes, "n_pes")
        self.state_width = check_positive_int(state_width, "state_width")
        self._capacity = check_positive_int(capacity, "capacity")
        self.tiles = np.zeros((n_pes, capacity, state_width), dtype=np.uint8)
        self.meta = np.zeros((n_pes, capacity, 4), dtype=np.int32)
        self.bottom = np.zeros(n_pes, dtype=np.int64)
        self.top = np.zeros(n_pes, dtype=np.int64)
        # Optional KernelWorkspace: when set (fused/jit tiers), growth
        # leases pooled planes and compaction reuses the cached iota
        # instead of allocating fresh arrays every doubling.
        self.workspace = None

    @property
    def capacity(self) -> int:
        return self._capacity

    # -- queries -----------------------------------------------------------

    def counts(self) -> np.ndarray:
        """Live entries per PE — one vector subtraction."""
        return self.top - self.bottom

    def entry_rows(self, pe: int) -> tuple[np.ndarray, np.ndarray]:
        """Copies of PE ``pe``'s live window, bottom to top:
        ``(tiles (k, state_width), meta (k, 4))``."""
        window = slice(self.bottom[pe], self.top[pe])
        return self.tiles[pe, window].copy(), self.meta[pe, window].copy()

    # -- stack operations ---------------------------------------------------

    def push_root(self, pe: int, tiles_row: np.ndarray, meta_row: np.ndarray) -> None:
        """Seed one PE with a single entry (the root on PE 0).

        Unmasked single-PE setup write: runs once before the lock-step
        loop starts, so no alive mask exists to guard it yet.
        """
        self.tiles[pe, self.top[pe]] = tiles_row
        self.meta[pe, self.top[pe]] = meta_row
        self.top[pe] += 1

    def pop_tops(self, pes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pop and return the top entry of every listed (non-empty) PE."""
        self.top[pes] -= 1
        slots = self.top[pes]
        return self.tiles[pes, slots], self.meta[pes, slots]

    def push_segments(
        self,
        pes: np.ndarray,
        lens: np.ndarray,
        tiles_flat: np.ndarray,
        meta_flat: np.ndarray,
    ) -> None:
        """Push ``lens[i]`` entries from the flat arrays (CSR order) onto
        ``pes[i]``.

        Each PE appears at most once per call (one expansion per PE per
        lock-step cycle), so the scatter never writes a slot twice.
        """
        total = int(lens.sum())
        if total == 0:
            return
        self._ensure_capacity(pes, lens)
        starts = np.repeat(self.top[pes], lens)
        offsets = np.cumsum(lens) - lens  # exclusive prefix, per segment
        within = np.arange(total, dtype=np.int64) - np.repeat(offsets, lens)
        rows = np.repeat(pes, lens)
        self.tiles[rows, starts + within] = tiles_flat
        self.meta[rows, starts + within] = meta_flat
        self.top[pes] += lens

    # -- work splitting ------------------------------------------------------

    def donate_bottoms(self, donors: np.ndarray, receivers: np.ndarray) -> None:
        """Move each donor's bottom entry to its (empty) receiver.

        Donors and receivers must be disjoint index sets pairing
        one-to-one; every donor must hold >= 2 entries and every receiver
        zero (the caller filters) — the paper's donation invariant.
        """
        slots = self.bottom[donors]
        moved_tiles = self.tiles[donors, slots]
        moved_meta = self.meta[donors, slots]
        self.bottom[donors] += 1
        # Receivers are empty; restart their windows at slot 0.
        self.bottom[receivers] = 0
        self.tiles[receivers, 0] = moved_tiles
        self.meta[receivers, 0] = moved_meta
        self.top[receivers] = 1

    def donate_half(self, donor: int, receiver: int) -> int:
        """Move the bottom ``count // 2`` entries to an empty receiver,
        re-ordered shallow-to-deep by ``g`` (stable), matching the
        ``DFSStack`` path's ``split_half`` receiver rebuild.  Returns the
        number of entries moved (the caller checks donor >= 2, receiver
        empty).

        Unmasked scalar-pair helper: the "half" ablation drives it one
        validated donor/receiver pair at a time from Python.
        """
        take = int(self.top[donor] - self.bottom[donor]) // 2
        if take == 0:
            return 0
        window = slice(self.bottom[donor], self.bottom[donor] + take)
        tiles = self.tiles[donor, window].copy()
        meta = self.meta[donor, window].copy()
        self.bottom[donor] += take
        order = np.argsort(meta[:, G_COL], kind="stable")
        self.tiles[receiver, :take] = tiles[order]
        self.meta[receiver, :take] = meta[order]
        self.bottom[receiver] = 0
        self.top[receiver] = take
        return take

    def extract_window(self, pe: int) -> tuple[np.ndarray, np.ndarray]:
        """Remove and return PE ``pe``'s live window (bottom -> top order).

        The PE is left empty with its pointers rewound to slot 0.  Used by
        the fault layer to quarantine a dead PE's frontier; the returned
        ``(tiles, meta)`` pair round-trips through :meth:`inject_window`.
        Unmasked single-PE operation — the target PE is already dead, so
        the alive mask excludes rather than selects it.
        """
        tiles, meta = self.entry_rows(pe)
        self.bottom[pe] = 0
        self.top[pe] = 0
        return tiles, meta

    def inject_window(self, pe: int, tiles: np.ndarray, meta: np.ndarray) -> int:
        """Append extracted entries (bottom -> top order) onto PE ``pe``.

        The inverse of :meth:`extract_window`; the receiving PE need not
        be empty.  Returns the number of entries delivered.
        """
        k = int(len(meta))
        if k == 0:
            return 0
        self.push_segments(
            np.array([pe], dtype=np.int64),
            np.array([k], dtype=np.int64),
            tiles,
            meta,
        )
        return k

    def reset_empty_windows(self) -> None:
        """Rewind exhausted PEs' pointers to slot 0, reclaiming the dead
        slots their ``bottom`` consumed (cheap: two masked stores)."""
        empty = self.top == self.bottom
        self.bottom[empty] = 0
        self.top[empty] = 0

    # -- growth ------------------------------------------------------------

    def _ensure_capacity(self, pes: np.ndarray, lens: np.ndarray) -> None:
        need = int((self.top[pes] + lens).max())
        if need <= self._capacity:
            return
        self._compact()
        need = int((self.top[pes] + lens).max())
        if need <= self._capacity:
            return
        new_capacity = self._capacity
        while new_capacity < need:
            new_capacity *= 2
        ws = self.workspace
        if ws is not None:
            # Pooled growth: lease zero-filled planes from the workspace
            # pool and return the outgrown ones, so repeated doublings in
            # a long run recycle buffers instead of hitting the allocator.
            grown_tiles = ws.lease(
                (self.n_pes, new_capacity, self.state_width), np.dtype(np.uint8)
            )
            grown_meta = ws.lease((self.n_pes, new_capacity, 4), np.dtype(np.int32))
        else:
            grown_tiles = np.zeros(
                (self.n_pes, new_capacity, self.state_width), dtype=np.uint8
            )
            grown_meta = np.zeros((self.n_pes, new_capacity, 4), dtype=np.int32)
        grown_tiles[:, : self._capacity] = self.tiles
        grown_meta[:, : self._capacity] = self.meta
        if ws is not None:
            ws.release(self.tiles)
            ws.release(self.meta)
        self.tiles = grown_tiles
        self.meta = grown_meta
        self._capacity = new_capacity

    def _compact(self) -> None:
        """Shift every live window to slot 0 (vectorized gather/scatter)."""
        counts = self.top - self.bottom
        shifted = np.flatnonzero((counts > 0) & (self.bottom > 0))
        if len(shifted):
            seg = counts[shifted]
            total = int(seg.sum())
            offsets = np.cumsum(seg) - seg
            iota = (
                self.workspace.iota(total)
                if self.workspace is not None
                else np.arange(total, dtype=np.int64)
            )
            within = iota - np.repeat(offsets, seg)
            rows = np.repeat(shifted, seg)
            src = np.repeat(self.bottom[shifted], seg) + within
            # Fancy-index RHS gathers into a temp before the scatter, so
            # overlapping source/destination windows are safe.
            self.tiles[rows, within] = self.tiles[rows, src]
            self.meta[rows, within] = self.meta[rows, src]
        self.top[:] = counts
        self.bottom[:] = 0

"""Per-PE windowed stacks packed into flat planes.

In the paper every PE holds a DFS stack: it expands from the top and
donates from the bottom (Section 5's 15-puzzle policy).  Whether an entry
is a pending subtree size or an encoded puzzle state does not change that
data structure, so :class:`WindowArena` is the one storage both stack
workloads hold.  They differ only in the per-entry rows they declare:

- ``StackWorkload``: ``(((), int64),)`` — one subtree size per entry;
- ``SearchWorkload``: ``(((), int64), ((), int64))`` — a puzzle board
  packed 4 bits a cell plus its ``g``/``h``/move-key ``info`` word
  (:mod:`repro.search.kernel`).

Each row gets one *plane* shaped ``(n_pes, capacity, *shape)``; the
``bottom``/``top`` pointers are shared, and the live stack of PE ``p`` is
the slot window ``[bottom[p], top[p])`` of every plane::

        slot:    0   1   2   3   4   5   ...  capacity-1
      PE 0      [.] [.] [#] [#] [#] [.]  ...
                     bottom-^       ^-top (one past the live window)
      PE 1      [#] [#] [.] [.] [.] [.]  ...

Expansion pops and pushes on the right (``top`` moves); donation consumes
slots on the left (``bottom`` advances) in O(1) per pair.  A push that
would overflow first compacts every window back to slot 0 and only then
doubles ``capacity``, so the amortized cost per pushed entry stays O(1).

Every method takes and returns one array per plane, in ``rows`` order;
the arena has no column names and knows nothing about the payload.  The
vector operations are full-width numpy kernels; none iterates over PEs.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive_int

__all__ = ["WindowArena"]


def _csr_slots(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Slot of every element of a CSR payload whose segment ``s`` fills
    ``starts[s] .. starts[s] + lens[s] - 1`` (at least one segment; empty
    segments allowed)."""
    ends = np.cumsum(lens)
    # Element i of segment s sits at starts[s] + i - begin[s].
    within = np.arange(int(ends[-1]), dtype=np.int64)
    return np.repeat(starts - ends + lens, lens) + within


class WindowArena:
    """``P`` bounded-depth stacks over one plane per per-entry row.

    Parameters
    ----------
    n_pes:
        ``P`` — one window per processing element.
    rows:
        Per-entry ``(shape, dtype)`` pairs, one plane each.
    capacity:
        Initial slots per PE; grows by compact-then-double.
    """

    def __init__(self, n_pes: int, rows, *, capacity: int) -> None:
        self.n_pes = check_positive_int(n_pes, "n_pes")
        self._capacity = check_positive_int(capacity, "capacity")
        self.planes = tuple(
            np.zeros((self.n_pes, self._capacity, *shape), dtype=dtype)
            for shape, dtype in rows
        )
        self.bottom = np.zeros(self.n_pes, dtype=np.int64)
        self.top = np.zeros(self.n_pes, dtype=np.int64)

    @property
    def capacity(self) -> int:
        return self._capacity

    # -- queries -----------------------------------------------------------

    def counts(self) -> np.ndarray:
        """Live entries per PE — one vector subtraction."""
        return self.top - self.bottom

    def window(self, pe: int) -> tuple[np.ndarray, ...]:
        """Copies of PE ``pe``'s live window, bottom to top."""
        live = slice(self.bottom[pe], self.top[pe])
        return tuple(plane[pe, live].copy() for plane in self.planes)

    # -- stack operations ---------------------------------------------------

    def push_root(self, pe: int, *values) -> None:
        """Seed one PE with a single entry (the root on PE 0).

        Unmasked single-PE setup write: runs once before the lock-step
        loop starts, so no alive mask exists to guard it yet.
        """
        for plane, value in zip(self.planes, values):
            plane[pe, self.top[pe]] = value
        self.top[pe] += 1

    def pop_tops(self, pes: np.ndarray) -> tuple[np.ndarray, ...]:
        """Pop and return the top entry of every listed (non-empty) PE."""
        self.top[pes] -= 1
        slots = self.top[pes]
        return tuple([plane[pes, slots] for plane in self.planes])

    def push_segments(self, pes: np.ndarray, lens: np.ndarray, *flats) -> None:
        """Push ``lens[i]`` entries from the flat arrays (CSR order) onto
        ``pes[i]``.

        Each PE appears at most once per call (one expansion per PE per
        lock-step cycle), so the scatter never writes a slot twice.
        """
        if not lens.any():
            return
        self.reserve(pes, lens)
        rows = np.repeat(pes, lens)
        slots = _csr_slots(self.top[pes], lens)
        for plane, flat in zip(self.planes, flats):
            plane[rows, slots] = flat
        self.top[pes] += lens

    # -- work splitting ------------------------------------------------------

    def donate_bottoms(self, donors: np.ndarray, receivers: np.ndarray) -> None:
        """Move each donor's bottom entry to its (empty) receiver.

        Donors and receivers must be disjoint index sets pairing
        one-to-one; every donor must be non-empty and every receiver
        empty (the caller filters).
        """
        slots = self.bottom[donors]
        # Receivers are empty; restart their windows at slot 0.
        for plane in self.planes:
            plane[receivers, 0] = plane[donors, slots]
        self.bottom[donors] += 1
        self.bottom[receivers] = 0
        self.top[receivers] = 1

    def take_bottoms(self, pe: int, k: int) -> tuple[np.ndarray, ...]:
        """Remove and return PE ``pe``'s bottom ``k`` entries (bottom ->
        top order; ``k`` at most its count).

        Unmasked scalar-PE operation: a caller that splits more than one
        entry per donor drives it one validated donor at a time.
        """
        start = self.bottom[pe]
        taken = tuple(plane[pe, start : start + k].copy() for plane in self.planes)
        self.bottom[pe] += k
        return taken

    def inject_window(self, pe: int, *values) -> int:
        """Append entries (bottom -> top order) onto PE ``pe``.

        The receiving PE need not be empty.  Returns the number of entries
        delivered.
        """
        k = len(values[0])
        if k:
            self.push_segments(
                np.array([pe], dtype=np.int64), np.array([k], dtype=np.int64), *values
            )
        return k

    def reset_empty_windows(self) -> None:
        """Rewind exhausted PEs' pointers to slot 0, reclaiming the dead
        slots their ``bottom`` consumed (cheap: two masked stores)."""
        empty = self.top == self.bottom
        self.bottom[empty] = 0
        self.top[empty] = 0

    # -- growth ------------------------------------------------------------

    def reserve(self, pes: np.ndarray, lens: np.ndarray) -> None:
        """Make room for ``lens[i]`` more entries above ``top[pes[i]]``:
        compact every window to slot 0 first, then double if still short."""
        need = int((self.top[pes] + lens).max())
        if need <= self._capacity:
            return
        self._compact()
        need = int((self.top[pes] + lens).max())
        if need <= self._capacity:
            return
        capacity = self._capacity
        while capacity < need:
            capacity *= 2
        grown = []
        for plane in self.planes:
            bigger = np.zeros((self.n_pes, capacity) + plane.shape[2:], plane.dtype)
            bigger[:, : self._capacity] = plane
            grown.append(bigger)
        self.planes = tuple(grown)
        self._capacity = capacity

    def _compact(self) -> None:
        """Shift every live window to slot 0 (vectorized gather/scatter)."""
        counts = self.top - self.bottom
        shifted = np.flatnonzero((counts > 0) & (self.bottom > 0))
        if len(shifted):
            seg = counts[shifted]
            rows = np.repeat(shifted, seg)
            dst = _csr_slots(np.zeros_like(seg), seg)
            src = _csr_slots(self.bottom[shifted], seg)
            # Fancy-index RHS gathers into a temp before the scatter, so
            # overlapping source/destination windows are safe.
            for plane in self.planes:
                plane[rows, dst] = plane[rows, src]
        self.top[:] = counts
        self.bottom[:] = 0

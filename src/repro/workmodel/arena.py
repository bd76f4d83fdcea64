"""Flat-arena stack storage and the batched stick-breaking sampler.

The mid-fidelity :class:`~repro.workmodel.stackmodel.StackWorkload` keeps
one DFS stack of pending subtree sizes per PE.  Stored as ``P`` Python
deques, a lock-step cycle is a Python-level loop that at paper scale
(P = 8192) dominates the wall clock by orders of magnitude.

This module holds the two pieces that remove it:

- :func:`draw_children_batch` — one cycle's worth of branching factors
  and stick-breaking partitions for *all* expanding PEs, drawn in a fixed
  sequence of batched RNG calls.  The test-side deque reference
  (``tests/oracles``) routes its draws through it too, which is what
  makes the two bit-identical seed for seed: same generator, same call
  sequence, same values.
- :class:`StackArena` — all per-PE stacks in a single ``(P, capacity)``
  int64 array with per-PE ``bottom``/``top`` pointers.  Pushes and pops
  are fancy-indexed scatters/gathers, counts are one vector subtraction,
  and bottom-of-stack donation (the paper's 15-puzzle policy) is O(1)
  per pair: read ``arena[d, bottom[d]]`` and advance ``bottom``.

Arena layout (one row per PE; ``.`` = dead, ``#`` = live entry)::

        column:  0   1   2   3   4   5   ...  capacity-1
      PE 0      [.] [.] [#] [#] [#] [.]  ...
                     bottom-^       ^-top (one past the live window)
      PE 1      [#] [#] [.] [.] [.] [.]  ...
      ...

Donation consumes columns on the left (``bottom`` advances); expansion
pushes and pops on the right (``top`` moves).  Rows are compacted back to
column 0 and the arena doubled only when a push would overflow, so the
amortized cost per pushed entry stays O(1).
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive_int

__all__ = ["draw_children_batch", "StackArena"]


def draw_children_batch(
    rng: np.random.Generator,
    sizes: np.ndarray,
    max_branching: int,
    leaf_probability: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw children for one cycle's popped subtree sizes, batched.

    For every entry ``i`` the ``sizes[i] - 1`` nodes remaining below the
    expanded root are partitioned into at most ``max_branching`` child
    subtrees by stick-breaking: a Dirichlet weight vector followed by a
    multinomial split (zero-sized parts are dropped).  With probability
    ``leaf_probability`` an entry instead yields a single chain child.

    The RNG call sequence is fixed and depends only on ``sizes`` and the
    parameters — one uniform batch (if ``leaf_probability > 0``), one
    branching-factor batch, then one Dirichlet + one multinomial batch
    per branching-factor group in ascending order — so any two callers
    with equal generator state and equal inputs consume identical
    streams and produce identical children.

    Returns
    -------
    (lens, flat):
        ``lens[i]`` is entry ``i``'s child count; the children of entry
        ``i`` are ``flat[lens[:i].sum() : lens[:i].sum() + lens[i]]`` in
        push order (CSR layout, zeros already dropped).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n = len(sizes)
    rest = sizes - 1
    parts = np.zeros((n, max_branching), dtype=np.int64)
    active = np.flatnonzero(rest > 0)
    if len(active):
        if leaf_probability:
            leaf = rng.random(len(active)) < leaf_probability
        else:
            leaf = np.zeros(len(active), dtype=bool)
        chain = active[leaf]
        parts[chain, 0] = rest[chain]
        nonleaf = active[~leaf]
        if len(nonleaf):
            b = rng.integers(1, max_branching + 1, size=len(nonleaf))
            b = np.minimum(b, rest[nonleaf])
            single = nonleaf[b == 1]
            parts[single, 0] = rest[single]
            for bv in range(2, max_branching + 1):
                idx = nonleaf[b == bv]
                if len(idx) == 0:
                    continue
                weights = rng.dirichlet(np.ones(bv), size=len(idx))
                parts[idx, :bv] = rng.multinomial(rest[idx], weights)
    live = parts > 0
    # Row-major boolean indexing keeps each entry's children in push order.
    return live.sum(axis=1, dtype=np.int64), parts[live]


class StackArena:
    """``P`` bounded-depth stacks packed into one int64 array.

    The live window of PE ``p`` is ``data[p, bottom[p]:top[p]]``; its top
    entry is ``data[p, top[p] - 1]`` and its bottom (donation) entry is
    ``data[p, bottom[p]]``.  All operations below are full-width numpy
    kernels; none iterates over PEs in Python.
    """

    def __init__(self, n_pes: int, *, capacity: int = 32) -> None:
        self.n_pes = check_positive_int(n_pes, "n_pes")
        self._capacity = check_positive_int(capacity, "capacity")
        self.data = np.zeros((n_pes, capacity), dtype=np.int64)
        self.bottom = np.zeros(n_pes, dtype=np.int64)
        self.top = np.zeros(n_pes, dtype=np.int64)

    @property
    def capacity(self) -> int:
        return self._capacity

    def counts(self) -> np.ndarray:
        """Live entries per PE — one vector subtraction."""
        return self.top - self.bottom

    def push_root(self, pe: int, value: int) -> None:
        """Seed one PE with a single entry (the whole tree on PE 0).

        Unmasked single-PE setup write: runs once before the lock-step
        loop starts, so no alive mask exists to guard it yet.
        """
        self.data[pe, self.top[pe]] = value
        self.top[pe] += 1

    def pop_tops(self, pes: np.ndarray) -> np.ndarray:
        """Pop and return the top entry of every listed (non-empty) PE."""
        self.top[pes] -= 1
        return self.data[pes, self.top[pes]]

    def push_segments(self, pes: np.ndarray, lens: np.ndarray, flat: np.ndarray) -> None:
        """Push ``lens[i]`` values from ``flat`` (CSR order) onto ``pes[i]``.

        Each PE appears at most once per call (one expansion per PE per
        lock-step cycle), so the scatter below never writes a cell twice.
        """
        total = int(lens.sum())
        if total == 0:
            return
        self._ensure_capacity(pes, lens)
        starts = np.repeat(self.top[pes], lens)
        offsets = np.cumsum(lens) - lens  # exclusive prefix, per segment
        within = np.arange(total, dtype=np.int64) - np.repeat(offsets, lens)
        self.data[np.repeat(pes, lens), starts + within] = flat
        self.top[pes] += lens

    def donate_bottoms(self, donors: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        """Move each donor's bottom entry to its (empty) receiver.

        Donors and receivers must be disjoint index sets pairing
        one-to-one; every donor must hold >= 2 entries and every receiver
        zero (the caller filters).  Returns the moved values.
        """
        values = self.data[donors, self.bottom[donors]]
        self.bottom[donors] += 1
        # Receivers are empty; restart their windows at column 0.
        self.bottom[receivers] = 0
        self.data[receivers, 0] = values
        self.top[receivers] = 1
        return values

    def extract_window(self, pe: int) -> np.ndarray:
        """Remove and return PE ``pe``'s live window (bottom -> top order).

        The PE is left empty with its pointers rewound to column 0.  Used
        by the fault layer to quarantine a dead PE's frontier.  Unmasked
        single-PE operation — the target PE is already dead, so the alive
        mask excludes rather than selects it.
        """
        values = self.data[pe, self.bottom[pe] : self.top[pe]].copy()
        self.bottom[pe] = 0
        self.top[pe] = 0
        return values

    def inject_window(self, pe: int, values: np.ndarray) -> int:
        """Append ``values`` (bottom -> top order) onto PE ``pe``'s stack.

        The inverse of :meth:`extract_window`; the receiving PE need not
        be empty.  Returns the number of entries delivered.
        """
        values = np.asarray(values, dtype=np.int64)
        if len(values) == 0:
            return 0
        self.push_segments(
            np.array([pe], dtype=np.int64),
            np.array([len(values)], dtype=np.int64),
            values,
        )
        return int(len(values))

    def reset_empty_windows(self) -> None:
        """Rewind exhausted PEs' pointers to column 0, reclaiming the dead
        columns their ``bottom`` consumed (cheap: two masked stores)."""
        empty = self.top == self.bottom
        self.bottom[empty] = 0
        self.top[empty] = 0

    def to_lists(self) -> list[list[int]]:
        """Materialize the live windows as plain lists (oracle snapshots)."""
        return [
            self.data[p, self.bottom[p] : self.top[p]].tolist()
            for p in range(self.n_pes)
        ]

    def total_pending(self) -> int:
        """Sum of all live entries (the conservation invariant's RHS)."""
        mask = (
            np.arange(self._capacity, dtype=np.int64)[None, :] >= self.bottom[:, None]
        ) & (np.arange(self._capacity, dtype=np.int64)[None, :] < self.top[:, None])
        return int(self.data[mask].sum())

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
        grown = np.zeros((self.n_pes, new_capacity), dtype=np.int64)
        grown[:, : self._capacity] = self.data
        self.data = grown
        self._capacity = new_capacity

    def _compact(self) -> None:
        """Shift every live window to column 0 (vectorized gather/scatter)."""
        counts = self.top - self.bottom
        shifted = np.flatnonzero((counts > 0) & (self.bottom > 0))
        if len(shifted):
            seg = counts[shifted]
            total = int(seg.sum())
            offsets = np.cumsum(seg) - seg
            within = np.arange(total, dtype=np.int64) - np.repeat(offsets, seg)
            rows = np.repeat(shifted, seg)
            # Fancy-index RHS gathers into a temp before the scatter, so
            # overlapping source/destination windows are safe.
            self.data[rows, within] = self.data[
                rows, np.repeat(self.bottom[shifted], seg) + within
            ]
        self.top[:] = counts
        self.bottom[:] = 0

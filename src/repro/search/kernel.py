"""The arena search workload's expand-cycle kernel on packed entries.

One lock-step cycle of the real 15-puzzle search = pop every non-empty
PE's top entry, goal-test it, generate its table-driven moves with the
incremental Manhattan delta, prune against the cost bound (recording the
next-iteration bound) and push the surviving children in reversed
generation order.

Every stack entry is two ``int64`` words, one per
:class:`~repro.simd.arena.WindowArena` plane:

- ``word`` — the board, the tile at cell ``i`` in bits ``4i .. 4i+3``
  (a tile >= 8 in cell 15 makes the word negative, two's-complement);
  the goal test is one ``word == goal_word`` comparison;
- ``info`` — ``g << G_SHIFT | h << H_SHIFT | key``, where
  ``key = blank * (n + 1) + prev + 1`` names the blank and the blank it
  came from (``n`` cells, ``prev = -1`` at the root).

The key selects one row of the puzzle's per-key move tables
(:meth:`~repro.problems.npuzzle.SlidingPuzzle.packed_moves`), so a
child is two additions: ``word + moved * lift`` slides tile ``moved``
into the blank, and ``info + info_step`` advances ``g``, applies the
Manhattan delta to ``h`` and swaps in the child's key.

:func:`expand_cycle` picks one of two bodies by the frontier width it
observes — the busy-PE count, never a caller's choice:

- ``<=`` :data:`SPARSE_THRESHOLD` busy PEs: :func:`_expand_rows`, a
  scalar row loop.  At a near-idle frontier (the full-IDA* tail) the
  fixed cost of the vector body's ~40 numpy calls dwarfs the work;
- above it: :func:`_expand_vector`, allocating 1-D numpy calls over
  flat views of the two planes.

Both write a PE's kept children over its popped slot onward and leave
the workload in the same state, bit for bit; the split is a pure
performance decision.  ``tests/kernels`` runs both in lock-step against
the per-PE ``DFSStack`` storage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.search.parallel import SearchWorkload

__all__ = ["expand_cycle", "G_SHIFT", "H_SHIFT", "KEY_MASK", "INVALID_STEP"]

#: Bit offsets of ``g`` and ``h`` in an entry's ``info`` word; the key
#: fills the bits below ``H_SHIFT``.
G_SHIFT, H_SHIFT = 20, 10
KEY_MASK = (1 << H_SHIFT) - 1

#: Busy-PE count at or below which a cycle runs the scalar row loop
#: (measured crossover, ``docs/performance.md``).
SPARSE_THRESHOLD = 9

#: ``f_step`` of a column that is no move (a ``-1`` pad, the parent-undo
#: move, a popped goal): far above any bound, so it is never kept and
#: never the next bound.  Bounds are clamped below it; no real ``f``
#: comes near either.
INVALID_STEP = 1 << 40
_MAX_BOUND = INVALID_STEP >> 1

#: Times a row of four 0/1 bytes read as one little-endian uint32: byte
#: ``j`` of the product is the row's inclusive prefix count at column j.
_PREFIX = np.uint32(0x01010101)
#: Python ints do not wrap: the row band folds each child word back into
#: the int64 range, as the vector body's numpy arithmetic does.
_WRAP = 1 << 63


def expand_cycle(wl: SearchWorkload) -> int:  # repro: kernel
    """One lock-step expansion cycle of an arena-stored search workload.

    Selects the expanding PEs itself (``flatnonzero`` of the non-empty
    mask), so every write lands in an expanding PE's own window; owns
    the count-cache invalidation and the expansion bookkeeping.  Returns
    the number of PEs that expanded.
    """
    pes = np.flatnonzero(wl._counts() > 0)
    n = len(pes)
    if n == 0:
        return 0
    wl._cached_counts = None
    wl.expanded += n
    if n <= SPARSE_THRESHOLD:
        _expand_rows(wl, pes)
    else:
        _expand_vector(wl, pes)
    wl._arena.reset_empty_windows()
    return n


def _expand_vector(wl: SearchWorkload, pes) -> None:
    """Vector body: 1-D gathers and scatters on the flat planes."""
    arena = wl._arena
    moves = wl.problem.packed_moves()
    top = arena.top
    tops = top[pes] - 1
    slots = pes * arena.capacity + tops
    words_plane, infos_plane = arena.planes
    words = words_plane.reshape(-1).take(slots)
    infos = infos_plane.reshape(-1).take(slots)

    # Tile ``moved`` slides from each child's blank into the parent's;
    # the (key, column, tile) index names its f step and info step.
    keys = infos & KEY_MASK
    words4 = words.repeat(4)
    moved = (words4 >> moves.shift.take(keys, axis=0).reshape(-1)) & 15
    idx = moves.base.take(keys, axis=0).reshape(-1) + moved
    # excess = child f - (bound + 1): a child is kept when it is < 0.
    bound = min(wl.bound, _MAX_BOUND)
    slack = (infos >> G_SHIFT) + ((infos >> H_SHIFT) & KEY_MASK) - (bound + 1)
    excess = slack[:, None] + moves.f_step.take(idx).reshape(-1, 4)
    goal = words == moves.goal_word
    if goal.any():
        wl.solutions += int(goal.sum())
        wl.goal_depths.extend((infos[goal] >> G_SHIFT).tolist())
        excess[goal] = INVALID_STEP  # a goal is popped, never expanded
    keep = excess < 0
    # Read as unsigned, kept (negative) excesses sort last: the minimum
    # is the smallest pruned child's, or an invalid column's.
    smallest = bound + 1 + int(excess.view(np.uint64).min())
    if smallest < INVALID_STEP and (
        wl.next_bound is None or smallest < wl.next_bound
    ):
        wl.next_bound = smallest

    # Kept children fill the popped slot onward, in push order.
    cum = (keep.view("<u4") * _PREFIX).astype("<u4", copy=False).view(np.uint8)
    lens = cum[:, 3]
    capacity = arena.capacity
    if int(tops.max()) + 4 > capacity and int((tops + lens).max()) > capacity:
        # A window would overflow: pop, make room (compacting or
        # growing the planes), then address the children afresh.
        top[pes] = tops
        arena.reserve(pes, lens)
        tops = top[pes]
        slots = pes * arena.capacity + tops
        words_plane, infos_plane = arena.planes
    kept = keep.reshape(-1).nonzero()[0]
    if len(kept):
        dst = ((slots - 1)[:, None] + cum).reshape(-1).take(kept)
        child_words = words4 + moved * moves.lift.take(keys, axis=0).reshape(-1)
        child_infos = infos[:, None] + moves.info_step.take(idx).reshape(-1, 4)
        words_plane.reshape(-1)[dst] = child_words.take(kept)
        infos_plane.reshape(-1)[dst] = child_infos.reshape(-1).take(kept)
    top[pes] = tops + lens


def _expand_rows(wl: SearchWorkload, pes) -> None:
    """Sparse band: pop + goal test + moves + push, one PE at a time.

    Unmasked by construction: ``pes`` is the non-empty selection, so
    every write lands in an expanding PE's own window.
    """
    arena = wl._arena
    top = arena.top
    pe_list = pes.tolist()
    # Worst case net growth is +3 per PE (pop one, push <= 4): make room
    # before the first write, which may compact or grow the planes.
    if max(top.item(pe) for pe in pe_list) + 3 > arena.capacity:
        arena.reserve(pes, np.full(len(pe_list), 3, dtype=np.int64))
    capacity = arena.capacity
    words, infos = (plane.reshape(-1) for plane in arena.planes)
    moves = wl.problem.packed_moves()
    shift, lift, base = moves.shift, moves.lift, moves.base
    f_step, info_step = moves.f_step, moves.info_step
    bound = wl.bound
    next_bound = wl.next_bound
    for pe in pe_list:
        t = top.item(pe) - 1
        slot = pe * capacity + t
        word = words.item(slot)
        info = infos.item(slot)
        if word == moves.goal_word:
            wl.solutions += 1
            wl.goal_depths.append(info >> G_SHIFT)
            top[pe] = t
            continue
        key = info & KEY_MASK
        parent_f = (info >> G_SHIFT) + ((info >> H_SHIFT) & KEY_MASK)
        # Children overwrite slots from the popped parent's onward.
        dst = slot
        for j in range(4):
            moved = (word >> shift.item(key, j)) & 15
            i = base.item(key, j) + moved
            step = f_step.item(i)
            if step == INVALID_STEP:
                continue
            f = parent_f + step
            if f > bound:
                if next_bound is None or f < next_bound:
                    next_bound = f
                continue
            child = word + moved * lift.item(key, j)
            words[dst] = ((child + _WRAP) & (2 * _WRAP - 1)) - _WRAP
            infos[dst] = info + info_step.item(i)
            dst += 1
        top[pe] = t + dst - slot
    wl.next_bound = next_bound

"""The arena search workload's expand-cycle kernel and its scratch.

One lock-step cycle of the real 15-puzzle search = pop every non-empty
PE's top entry, goal-test it, generate its table-driven moves with the
incremental Manhattan delta, prune against the cost bound (recording the
next-iteration bound) and push the surviving children in reversed
generation order.  :func:`expand_cycle` picks one of three
implementations of that cycle by the frontier width it observes — the
busy-PE count, never a caller's choice:

- ``<=`` :data:`SPARSE_THRESHOLD` busy PEs: :func:`_expand_rows`, a
  scalar row loop.  At a near-idle frontier (the full-IDA* tail) the
  ~40 us of fixed numpy-call overhead per cycle dwarfs the work.
- mid-width: :func:`_expand_reference`, a handful of allocating
  full-width numpy calls.
- ``>=`` :data:`DENSE_THRESHOLD` busy PEs: :func:`_expand_dense`, the
  same arithmetic with every temporary (popped rows, masks, move
  tables, child rows) in :class:`KernelWorkspace` scratch; gathers
  use ``np.take(..., out=)`` and arithmetic runs through ufunc ``out=``.
  It makes more, smaller numpy calls than the reference and only pays
  off once per-element work dominates per-call overhead.

All three leave the workload in the same state, bit for bit; the bands
are a pure performance decision.  ``tests/kernels`` runs each band in
lock-step against the per-PE ``DFSStack`` storage.

The workload's :class:`~repro.simd.arena.WindowArena` holds two planes:
encoded states (``tiles``, one uint8 row per entry) and ``meta``, whose
int32 columns are named below.  Every band resets exhausted windows
through the arena; the reference and dense bands push through
``push_segments``, and the row band, which writes children in place,
reserves their slots through ``reserve``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.search.parallel import SearchWorkload

__all__ = [
    "KernelWorkspace",
    "expand_cycle",
    "G_COL",
    "H_COL",
    "BLANK_COL",
    "PREV_COL",
]

#: Columns of the ``meta`` plane, in storage order.
G_COL, H_COL, BLANK_COL, PREV_COL = 0, 1, 2, 3

#: Busy-PE count at or below which a cycle runs the scalar row loop.
SPARSE_THRESHOLD = 3

#: Busy-PE count from which a cycle runs the scratch-backed dense path
#: (measured crossover ~700 busy PEs on the 15-puzzle tables).
DENSE_THRESHOLD = 512


def _grow_to(n: int) -> int:
    """Smallest power of two >= max(n, 16) — geometric growth floor."""
    return max(16, 1 << (max(n, 1) - 1).bit_length())


class KernelWorkspace:
    """Named scratch buffers and a shared iota for one search workload.

    - **named scratch** (:meth:`scratch` / :meth:`scratch2d`): a buffer
      per logical role (``"search.keep"``, ...), grown geometrically and
      returned as a leading-slice view.  Reused buffers come back
      *dirty*; the kernel overwrites every element it reads.  A view is
      valid until the next request for the *same name*.
    - **the iota** (:meth:`iota`): one cached, read-only ``arange`` for
      ``0..n`` row/flat indexing.
    """

    __slots__ = ("_named", "_iota")

    def __init__(self) -> None:
        self._named: dict[str, np.ndarray] = {}
        self._iota = np.arange(16, dtype=np.int64)
        self._iota.setflags(write=False)

    def scratch(self, name: str, n: int, dtype=np.int64) -> np.ndarray:
        """A 1-D buffer of ``n`` elements under ``name`` (dirty on reuse)."""
        want = np.dtype(dtype)
        buf = self._named.get(name)
        if buf is None or buf.ndim != 1 or buf.dtype != want or buf.shape[0] < n:
            buf = np.empty(_grow_to(n), dtype=want)
            self._named[name] = buf
        return buf[:n]

    def scratch2d(self, name: str, rows: int, cols: int, dtype=np.int64) -> np.ndarray:
        """A ``(rows, cols)`` buffer under ``name`` (dirty on reuse).

        The row capacity grows geometrically; a change of ``cols`` or
        dtype reallocates (column widths are fixed per logical role).
        """
        want = np.dtype(dtype)
        buf = self._named.get(name)
        if (
            buf is None
            or buf.ndim != 2
            or buf.dtype != want
            or buf.shape[1] != cols
            or buf.shape[0] < rows
        ):
            buf = np.empty((_grow_to(rows), cols), dtype=want)
            self._named[name] = buf
        return buf[:rows]

    def iota(self, n: int) -> np.ndarray:
        """Read-only ``arange(n)`` view backed by one cached array."""
        if n > len(self._iota):
            fresh = np.arange(_grow_to(n), dtype=np.int64)
            fresh.setflags(write=False)
            self._iota = fresh
        return self._iota[:n]


def expand_cycle(wl: SearchWorkload, ws: KernelWorkspace) -> int:  # repro: kernel
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
    if n <= SPARSE_THRESHOLD:
        return _expand_rows(wl, pes, ws)
    if n < DENSE_THRESHOLD:
        return _expand_reference(wl, pes, ws)
    return _expand_dense(wl, pes, ws)


def _expand_reference(wl: SearchWorkload, pes, ws: KernelWorkspace) -> int:
    """Mid-width band: allocating full-width numpy over the arena methods."""
    arena = wl._arena
    n = len(pes)
    tiles, meta = arena.pop_tops(pes)
    wl.expanded += n

    goal = (tiles == wl._goal_row).all(axis=1)
    if goal.any():
        wl.solutions += int(goal.sum())
        wl.goal_depths.extend(int(d) for d in meta[goal, G_COL])
        live = ~goal
        if not live.any():
            arena.reset_empty_windows()
            return n
        pes_l = pes[live]
        tiles_l = tiles[live]
        g_l = meta[live, G_COL]
        h_l = meta[live, H_COL]
        blank_l = meta[live, BLANK_COL]
        prev_l = meta[live, PREV_COL]
    else:
        # No goal popped this cycle (the overwhelmingly common case):
        # every row is live, so column *views* replace six fancy-index
        # copies — same values, zero copies, bit-identical downstream.
        pes_l = pes
        tiles_l = tiles
        g_l = meta[:, G_COL]
        h_l = meta[:, H_COL]
        blank_l = meta[:, BLANK_COL]
        prev_l = meta[:, PREV_COL]
    m = len(pes_l)

    # Candidate moves: columns of the move table are the problem's
    # generation order; -1 pads positions with fewer than 4 moves and
    # the move undoing the parent's is forbidden (2-cycle pruning).
    dests = wl._move_table[blank_l]  # (m, 4)
    valid = (dests >= 0) & (dests != prev_l[:, None])
    safe = np.where(valid, dests, 0)
    rows = ws.iota(m)
    moved = tiles_l[rows[:, None], safe]  # (m, 4) moved-tile values
    # Incremental Manhattan: tile `moved` slides from `safe` into the
    # blank, so h changes by D[moved, blank] - D[moved, safe].
    dist = wl._dist_table
    child_h = h_l[:, None] + dist[moved, blank_l[:, None]] - dist[moved, safe]
    child_f = g_l[:, None] + 1 + child_h
    keep = valid & (child_f <= wl.bound)
    pruned = valid & ~keep
    if pruned.any():
        smallest = int(child_f[pruned].min())
        if wl.next_bound is None or smallest < wl.next_bound:
            wl.next_bound = smallest

    # Push in *reversed* generation order (walk the move columns
    # right-to-left), so popping the flat tail visits children in
    # generation order — same as the ``DFSStack`` path's level reversal.
    keep_r = keep[:, ::-1]
    lens = keep_r.sum(axis=1, dtype=np.int64)
    total = int(lens.sum())
    if total:
        ii, jj = np.nonzero(keep_r)  # row-major: per-parent reversed order
        dest_sel = dests[:, ::-1][ii, jj]
        flat = ws.iota(total)
        flat_tiles = tiles_l[ii]  # fancy indexing copies
        flat_tiles[flat, blank_l[ii]] = flat_tiles[flat, dest_sel]
        flat_tiles[flat, dest_sel] = 0
        flat_meta = np.empty((total, 4), dtype=np.int32)
        flat_meta[:, G_COL] = g_l[ii] + 1
        flat_meta[:, H_COL] = child_h[:, ::-1][ii, jj]
        flat_meta[:, BLANK_COL] = dest_sel
        flat_meta[:, PREV_COL] = blank_l[ii]
        arena.push_segments(pes_l, lens, flat_tiles, flat_meta)
    arena.reset_empty_windows()
    return n


def _expand_search_rows(
    tiles, meta, top, pes, move_table, dist, goal_row, bound, next_bound, goal_depths, parent
):
    """Scalar row loop: pop + goal test + moves + push, one PE at a time.

    Plain loops over the caller's index set, a preallocated ``parent``
    row buffer, a ``-1`` sentinel for an unset next bound and results
    written into ``goal_depths``.  The caller has already ensured per-PE
    capacity for the worst case (+3 net entries) and owns all
    bookkeeping.  Returns ``(n_goals, next_bound)``.

    Unmasked by construction: ``pes`` is the non-empty selection, so
    every write lands in an expanding PE's own window.
    """
    width = tiles.shape[2]
    nmoves = move_table.shape[1]
    n_goals = 0
    for k in range(pes.shape[0]):
        pe = pes[k]
        t = top[pe] - 1
        g = meta[pe, t, 0]
        h = meta[pe, t, 1]
        blank = meta[pe, t, 2]
        prev = meta[pe, t, 3]
        is_goal = True
        for c in range(width):
            parent[c] = tiles[pe, t, c]
            if parent[c] != goal_row[c]:
                is_goal = False
        if is_goal:
            goal_depths[n_goals] = g
            n_goals += 1
            top[pe] = t
            continue
        # Children overwrite slots starting at the popped parent's —
        # the parent row lives on in the scratch buffer.
        dst = t
        for j in range(nmoves - 1, -1, -1):
            d = move_table[blank, j]
            if d < 0 or d == prev:
                continue
            moved = parent[d]
            ch = h + dist[moved, blank] - dist[moved, d]
            cf = g + 1 + ch
            if cf > bound:
                if next_bound < 0 or cf < next_bound:
                    next_bound = cf
                continue
            for c in range(width):
                tiles[pe, dst, c] = parent[c]
            tiles[pe, dst, blank] = moved
            tiles[pe, dst, d] = 0
            meta[pe, dst, 0] = g + 1
            meta[pe, dst, 1] = ch
            meta[pe, dst, 2] = d
            meta[pe, dst, 3] = blank
            dst += 1
        top[pe] = dst
    return n_goals, next_bound


def _expand_rows(wl: SearchWorkload, pes, ws: KernelWorkspace) -> int:
    """Sparse band: bookkeeping around the scalar row loop."""
    arena = wl._arena
    n = len(pes)
    # Worst case net growth is +3 per PE (pop one, push <= 4); ensure
    # runs pre-pop, so top + 3 covers the deepest child slot.
    lens3 = ws.scratch("search.rows.lens", n)
    lens3.fill(3)
    arena.reserve(pes, lens3)
    tiles, meta = arena.planes  # read after reserve: growth rebinds them
    goal_depths = ws.scratch("search.rows.goals", n)
    parent = ws.scratch("search.rows.parent", tiles.shape[2], dtype=np.uint8)
    nb = wl.next_bound if wl.next_bound is not None else -1
    n_goals, nb = _expand_search_rows(
        tiles,
        meta,
        arena.top,
        pes,
        wl._move_table,
        wl._dist_table,
        wl._goal_row,
        wl.bound,
        nb,
        goal_depths,
        parent,
    )
    wl.expanded += n
    if n_goals:
        wl.solutions += int(n_goals)
        wl.goal_depths.extend(int(goal_depths[i]) for i in range(n_goals))
    if nb >= 0:
        wl.next_bound = int(nb)
    arena.reset_empty_windows()
    return n


def _expand_dense(wl: SearchWorkload, pes, ws: KernelWorkspace) -> int:
    """Dense band: scratch-backed gathers, ufunc ``out=`` math."""
    arena = wl._arena
    n = len(pes)
    tiles_plane, meta_plane = arena.planes
    width = tiles_plane.shape[2]
    top = arena.top

    # -- pop: pointer update + two flat row gathers ------------------------
    tops = ws.scratch("search.tops", n)
    np.take(top, pes, out=tops)
    np.subtract(tops, 1, out=tops)
    top[pes] = tops
    slots = ws.scratch("search.slots", n)
    np.multiply(pes, arena.capacity, out=slots)
    np.add(slots, tops, out=slots)
    tiles = ws.scratch2d("search.tiles", n, width, dtype=np.uint8)
    np.take(tiles_plane.reshape(-1, width), slots, axis=0, out=tiles)
    meta = ws.scratch2d("search.meta", n, 4, dtype=np.int32)
    np.take(meta_plane.reshape(-1, 4), slots, axis=0, out=meta)
    wl.expanded += n

    # -- goal test ---------------------------------------------------------
    eq = ws.scratch2d("search.eq", n, width, dtype=bool)
    np.equal(tiles, wl._goal_row, out=eq)
    goal = ws.scratch("search.goal", n, dtype=bool)
    np.all(eq, axis=1, out=goal)
    if goal.any():
        # Rare branch — mirror the reference band's allocating filter so
        # goal-cycle state stays bit-identical.
        wl.solutions += int(goal.sum())
        wl.goal_depths.extend(int(d) for d in meta[goal, G_COL])
        live = ~goal
        if not live.any():
            arena.reset_empty_windows()
            return n
        pes_l = pes[live]
        tiles_l = np.ascontiguousarray(tiles[live])
        meta_l = meta[live]
        g_l = meta_l[:, G_COL]
        h_l = meta_l[:, H_COL]
        blank_l = meta_l[:, BLANK_COL]
        prev_l = meta_l[:, PREV_COL]
    else:
        pes_l = pes
        tiles_l = tiles
        g_l = meta[:, G_COL]
        h_l = meta[:, H_COL]
        blank_l = meta[:, BLANK_COL]
        prev_l = meta[:, PREV_COL]
    m = len(pes_l)

    # -- moves: table gather + 2-cycle pruning mask ------------------------
    dests = ws.scratch2d("search.dests", m, 4, dtype=np.int32)
    np.take(wl._move_table, blank_l, axis=0, out=dests)
    valid = ws.scratch2d("search.valid", m, 4, dtype=bool)
    np.greater_equal(dests, 0, out=valid)
    notprev = ws.scratch2d("search.notprev", m, 4, dtype=bool)
    np.not_equal(dests, prev_l[:, None], out=notprev)
    np.logical_and(valid, notprev, out=valid)
    # dests * valid == where(valid, dests, 0): invalid slots (-1 pads and
    # the parent-undo move) zero out, exactly the reference `safe`.
    safe = ws.scratch2d("search.safe", m, 4, dtype=np.int32)
    np.multiply(dests, valid, out=safe)

    # -- incremental Manhattan: h' = h + D[moved, blank] - D[moved, dest] --
    gidx = ws.scratch2d("search.gidx", m, 4)
    np.multiply(ws.iota(m)[:, None], width, out=gidx)
    np.add(gidx, safe, out=gidx)
    moved = ws.scratch2d("search.moved", m, 4, dtype=np.uint8)
    np.take(tiles_l.reshape(-1), gidx, out=moved)
    moved64 = ws.scratch2d("search.moved64", m, 4)
    np.copyto(moved64, moved)
    dist_flat = wl._dist_table.reshape(-1)
    np.multiply(moved64, width, out=gidx)
    np.add(gidx, blank_l[:, None], out=gidx)
    gain = ws.scratch2d("search.gain", m, 4, dtype=np.int32)
    np.take(dist_flat, gidx, out=gain)
    np.multiply(moved64, width, out=gidx)
    np.add(gidx, safe, out=gidx)
    loss = ws.scratch2d("search.loss", m, 4, dtype=np.int32)
    np.take(dist_flat, gidx, out=loss)
    child_h = ws.scratch2d("search.child_h", m, 4, dtype=np.int32)
    np.add(h_l[:, None], gain, out=child_h)
    np.subtract(child_h, loss, out=child_h)
    child_f = ws.scratch2d("search.child_f", m, 4, dtype=np.int32)
    np.add(g_l[:, None], 1, out=child_f)
    np.add(child_f, child_h, out=child_f)

    # -- bound pruning + next-bound tracking -------------------------------
    keep = ws.scratch2d("search.keep", m, 4, dtype=bool)
    np.less_equal(child_f, wl.bound, out=keep)
    np.logical_and(keep, valid, out=keep)
    pruned = ws.scratch2d("search.pruned", m, 4, dtype=bool)
    np.logical_not(keep, out=pruned)
    np.logical_and(pruned, valid, out=pruned)
    if pruned.any():
        fmin = ws.scratch2d("search.fmin", m, 4, dtype=np.int32)
        fmin.fill(np.iinfo(np.int32).max)
        np.copyto(fmin, child_f, where=pruned)
        smallest = int(fmin.min())
        if wl.next_bound is None or smallest < wl.next_bound:
            wl.next_bound = smallest

    # -- pack children in reversed generation order ------------------------
    keep_r = ws.scratch2d("search.keep_r", m, 4, dtype=bool)
    np.copyto(keep_r, keep[:, ::-1])
    lens = ws.scratch("search.lens", m)
    np.sum(keep_r, axis=1, dtype=np.int64, out=lens)
    nz = np.flatnonzero(keep_r.ravel())
    total = len(nz)
    if total:
        # Flat index nz = i*4 + j in the reversed table maps back to
        # column (3 - j) of the unreversed tables.
        ii = ws.scratch("search.ii", total)
        np.floor_divide(nz, 4, out=ii)
        cidx = ws.scratch("search.cidx", total)
        np.remainder(nz, 4, out=cidx)
        np.subtract(3, cidx, out=cidx)
        base = ws.scratch("search.base", total)
        np.multiply(ii, 4, out=base)
        np.add(cidx, base, out=cidx)
        dest_sel = ws.scratch("search.dest_sel", total, dtype=np.int32)
        np.take(dests.reshape(-1), cidx, out=dest_sel)
        ch_sel = ws.scratch("search.ch_sel", total, dtype=np.int32)
        np.take(child_h.reshape(-1), cidx, out=ch_sel)
        blank_sel = ws.scratch("search.blank_sel", total, dtype=np.int32)
        np.take(blank_l, ii, out=blank_sel)
        g_sel = ws.scratch("search.g_sel", total, dtype=np.int32)
        np.take(g_l, ii, out=g_sel)

        flat_tiles = ws.scratch2d("search.flat_tiles", total, width, dtype=np.uint8)
        np.take(tiles_l, ii, axis=0, out=flat_tiles)
        ft = flat_tiles.reshape(-1)
        bidx = ws.scratch("search.bidx", total)
        np.multiply(ws.iota(total), width, out=bidx)
        didx = ws.scratch("search.didx", total)
        np.add(bidx, dest_sel, out=didx)
        np.add(bidx, blank_sel, out=bidx)
        vals = ws.scratch("search.vals", total, dtype=np.uint8)
        np.take(ft, didx, out=vals)
        ft[bidx] = vals
        ft[didx] = 0

        flat_meta = ws.scratch2d("search.flat_meta", total, 4, dtype=np.int32)
        np.add(g_sel, 1, out=flat_meta[:, G_COL])
        flat_meta[:, H_COL] = ch_sel
        flat_meta[:, BLANK_COL] = dest_sel
        flat_meta[:, PREV_COL] = blank_sel
        arena.push_segments(pes_l, lens, flat_tiles, flat_meta)

    arena.reset_empty_windows()
    return n

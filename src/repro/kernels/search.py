"""Search-workload expand-cycle kernels (numpy / fused / sparse rows).

One lock-step cycle of the real 15-puzzle search = pop every non-empty
PE's top entry, goal-test it, generate its table-driven moves with the
incremental Manhattan delta, prune against the cost bound (recording the
next-iteration bound) and push the surviving children in reversed
generation order.  Three implementations share that contract:

- :func:`search_expand_numpy` — the reference tier: the exact
  pre-dispatch body of ``SearchWorkload._expand_cycle_arena_inner``.
- :func:`search_expand_fused` — the zero-allocation tier: every
  temporary (popped rows, masks, move tables, scatter indices) comes
  from a :class:`~repro.kernels.workspace.KernelWorkspace`; gathers use
  ``np.take(..., out=)`` into source-dtype buffers, arithmetic runs
  through ufunc ``out=``.  Below :data:`SPARSE_THRESHOLD` busy PEs it
  drops to the scalar row loop — at a nearly-idle frontier (the P=256
  full-IDA* tail) full-width numpy dispatch costs more than the work.
- :func:`_expand_search_rows` — the scalar row loop itself, written in
  numba-compatible style (plain loops, preallocated buffers, int
  sentinels).  The jit tier (:mod:`repro.kernels.jit`) compiles this
  very function with ``@njit``, so the code path the JIT runs is the
  one the sparse path already exercises under the identity suite.

All tiers are bit-identical to the list oracle across the six paper
schemes with the sanitizer on (the cross-tier identity suite gates it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.kernels.dispatch import register
from repro.kernels.stack import fused_reset_windows, segment_slots
from repro.kernels.workspace import KernelWorkspace
from repro.search.arena import BLANK_COL, G_COL, H_COL, PREV_COL

if TYPE_CHECKING:
    from repro.search.parallel import SearchWorkload

__all__ = ["search_expand_numpy", "search_expand_fused", "SPARSE_THRESHOLD"]

#: Busy-PE count at or below which the fused tier uses the scalar row
#: loop instead of full-width numpy ops (the sparse-frontier fast path:
#: at a near-idle frontier the ~40 us of fixed numpy-call overhead per
#: cycle dwarfs the work, and the row loop halves it).
SPARSE_THRESHOLD = 3

#: Busy-PE count below which the fused tier delegates mid-width cycles
#: to the reference kernel: the scratch-backed dense path makes more
#: (smaller) numpy calls than the reference, which only pays off once
#: per-element work dominates per-call overhead (measured crossover
#: ~700 busy PEs on the 15-puzzle tables).
DENSE_THRESHOLD = 512


def search_expand_numpy(wl: SearchWorkload, ws=None) -> int:  # repro: kernel
    """Reference tier: the historical arena expand-cycle, verbatim."""
    arena = wl._arena
    assert arena is not None
    pes = np.flatnonzero(wl._counts() > 0)
    n = len(pes)
    if n == 0:
        return 0
    wl._cached_counts = None
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
    if m > len(wl._iota):
        wl._iota = np.arange(m, dtype=np.int64)
    rows = wl._iota[:m]
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
        if total > len(wl._iota):
            wl._iota = np.arange(total, dtype=np.int64)
        flat = wl._iota[:total]
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

    Numba-compatible by construction (plain loops over the caller's
    index set, preallocated ``parent`` row buffer, ``-1`` sentinel for
    an unset next bound, results written into ``goal_depths``).  The
    caller has already ensured per-PE capacity for the worst case (+3
    net entries) and owns all bookkeeping.  Returns
    ``(n_goals, next_bound)``.

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


def _expand_rows_driver(
    wl: SearchWorkload, pes, ws: KernelWorkspace, rows_fn
) -> int:
    """Shared bookkeeping around a row-loop kernel (sparse and jit paths)."""
    arena = wl._arena
    n = len(pes)
    # Worst case net growth is +3 per PE (pop one, push <= 4); ensure
    # runs pre-pop, so top + 3 covers the deepest child slot.
    lens3 = ws.scratch("search.rows.lens", n)
    lens3.fill(3)
    arena._ensure_capacity(pes, lens3)
    goal_depths = ws.scratch("search.rows.goals", n)
    parent = ws.scratch("search.rows.parent", arena.state_width, dtype=np.uint8)
    nb = wl.next_bound if wl.next_bound is not None else -1
    n_goals, nb = rows_fn(
        arena.tiles,
        arena.meta,
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
    fused_reset_windows(arena.bottom, arena.top, ws, "search.reset")
    return n


def _search_expand_dense(wl: SearchWorkload, pes, ws: KernelWorkspace) -> int:
    """Fused full-width cycle: scratch-backed gathers, ufunc ``out=`` math."""
    arena = wl._arena
    n = len(pes)
    width = arena.state_width
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
    np.take(arena.tiles.reshape(-1, width), slots, axis=0, out=tiles)
    meta = ws.scratch2d("search.meta", n, 4, dtype=np.int32)
    np.take(arena.meta.reshape(-1, 4), slots, axis=0, out=meta)
    wl.expanded += n

    # -- goal test ---------------------------------------------------------
    eq = ws.scratch2d("search.eq", n, width, dtype=bool)
    np.equal(tiles, wl._goal_row, out=eq)
    goal = ws.scratch("search.goal", n, dtype=bool)
    np.all(eq, axis=1, out=goal)
    if goal.any():
        # Rare branch — mirror the reference tier's allocating filter so
        # goal-cycle state stays bit-identical.
        wl.solutions += int(goal.sum())
        wl.goal_depths.extend(int(d) for d in meta[goal, G_COL])
        live = ~goal
        if not live.any():
            fused_reset_windows(arena.bottom, arena.top, ws, "search.reset")
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

        # -- push: segment-id scatter (capacity first — growth decisions
        # match the reference tier's push_segments ordering) --------------
        arena._ensure_capacity(pes_l, lens)
        tiles_plane = arena.tiles.reshape(-1, width)
        meta_plane = arena.meta.reshape(-1, 4)
        tops2 = ws.scratch("search.tops2", m)
        np.take(arena.top, pes_l, out=tops2)
        dest, _ = segment_slots(pes_l, tops2, lens, arena.capacity, ws, "search.push")
        tiles_plane[dest] = flat_tiles
        meta_plane[dest] = flat_meta
        np.add(tops2, lens, out=tops2)
        arena.top[pes_l] = tops2

    fused_reset_windows(arena.bottom, arena.top, ws, "search.reset")
    return n


def search_expand_fused(wl: SearchWorkload, ws: KernelWorkspace) -> int:  # repro: kernel
    """Fused tier: pick the cheapest implementation for the frontier width.

    Three bands, measured on the 15-puzzle tables: the scalar row loop
    at a near-idle frontier (<= :data:`SPARSE_THRESHOLD` busy PEs), the
    reference kernel for mid-width cycles, and the scratch-backed dense
    path once per-element work dominates numpy call overhead
    (>= :data:`DENSE_THRESHOLD`).  All three produce bit-identical
    workload state, so the bands are a pure performance decision.
    """
    pes = np.flatnonzero(wl._counts() > 0)
    n = len(pes)
    if n == 0:
        return 0
    if n <= SPARSE_THRESHOLD:
        wl._cached_counts = None
        return _expand_rows_driver(wl, pes, ws, _expand_search_rows)
    if n < DENSE_THRESHOLD:
        return search_expand_numpy(wl, ws)
    wl._cached_counts = None
    return _search_expand_dense(wl, pes, ws)


register("search.expand_cycle", "numpy", search_expand_numpy)
register("search.expand_cycle", "fused", search_expand_fused)

"""Unit tests for the packed search arena and the vectorized storage.

The cross-scheme run-level equivalence lives in
``tests/integration/test_search_backend_equivalence.py``; here we test
the building blocks — the puzzle's vectorizable codec and tables, the
arena storage primitives, which problems get the arena, and cycle-by-cycle
lock-step identity between the two storages including donation.
"""

import numpy as np
import pytest

from repro.problems.npuzzle import SlidingPuzzle, manhattan_distance
from repro.problems.nqueens import NQueensProblem
from repro.search.arena import G_COL, SearchArena
from repro.search.parallel import SearchWorkload
from repro.search.stack import DFSStack
from tests.oracles import opaque


class TestPuzzleCodec:
    @pytest.mark.parametrize("side", [3, 4, 5])
    def test_encode_decode_roundtrip(self, side):
        p = SlidingPuzzle.scrambled(side, 30, rng=7)
        state = p.initial_state()
        for _ in range(5):
            tiles_row, blank, prev = p.encode_state(state)
            assert tiles_row.dtype == np.uint8
            assert p.decode_state(tiles_row, blank, prev) == state
            state = p.expand(state)[0]

    @pytest.mark.parametrize("side", [3, 4])
    def test_move_table_matches_neighbor_table(self, side):
        p = SlidingPuzzle.scrambled(side, 5, rng=0)
        table = p.move_table()
        assert table.shape == (side * side, 4)
        for pos, moves in enumerate(p._neighbors):
            assert table[pos, : len(moves)].tolist() == list(moves)
            assert (table[pos, len(moves) :] == -1).all()

    def test_goal_row_is_goal_layout(self):
        p = SlidingPuzzle.scrambled(4, 10, rng=1)
        assert p.goal_row().tolist() == list(p.goal_tiles)

    @pytest.mark.parametrize("side", [3, 4])
    def test_delta_table_tracks_manhattan_incrementally(self, side):
        """Walking the tree while updating h by D[t, dst] - D[t, src]
        reproduces the full Manhattan recompute at every node."""
        p = SlidingPuzzle.scrambled(side, 25, rng=3)
        dist = p.manhattan_table()
        state = p.initial_state()
        h = p.heuristic(state)
        for step in range(30):
            child = p.expand(state)[step % len(p.expand(state))]
            moved_tile = state.tiles[child.blank]
            h = h + dist[moved_tile, state.blank] - dist[moved_tile, child.blank]
            assert h == manhattan_distance(child.tiles, side)
            state = child

    def test_tables_are_read_only(self):
        p = SlidingPuzzle.scrambled(3, 5, rng=0)
        for table in (p.move_table(), p.manhattan_table(), p.goal_row()):
            with pytest.raises(ValueError):
                table[0] = 0

    def test_supports_arena_backend_manhattan_only(self):
        assert SlidingPuzzle.scrambled(4, 5, rng=0).supports_arena_backend()
        lc = SlidingPuzzle(
            SlidingPuzzle.scrambled(4, 5, rng=0).tiles,
            heuristic_name="linear_conflict",
        )
        assert not lc.supports_arena_backend()


class TestSearchArena:
    def _roots(self, width):
        tiles = np.arange(width, dtype=np.uint8)
        meta = np.array([0, 5, 2, -1], dtype=np.int32)
        return tiles, meta

    def test_push_pop_roundtrip(self):
        arena = SearchArena(4, 9)
        tiles, meta = self._roots(9)
        arena.push_root(1, tiles, meta)
        assert arena.counts().tolist() == [0, 1, 0, 0]
        out_tiles, out_meta = arena.pop_tops(np.array([1]))
        assert np.array_equal(out_tiles[0], tiles)
        assert np.array_equal(out_meta[0], meta)
        assert arena.counts().sum() == 0

    def test_push_segments_csr_order(self):
        arena = SearchArena(3, 4)
        pes = np.array([0, 2])
        lens = np.array([2, 1])
        tiles_flat = np.arange(12, dtype=np.uint8).reshape(3, 4)
        meta_flat = np.arange(12, dtype=np.int32).reshape(3, 4)
        arena.push_segments(pes, lens, tiles_flat, meta_flat)
        assert arena.counts().tolist() == [2, 0, 1]
        t0, m0 = arena.entry_rows(0)
        assert np.array_equal(t0, tiles_flat[:2])
        assert np.array_equal(m0, meta_flat[:2])
        t2, _ = arena.entry_rows(2)
        assert np.array_equal(t2, tiles_flat[2:])

    def test_donate_bottoms_moves_oldest_entry(self):
        arena = SearchArena(2, 4)
        for g in range(3):
            tiles = np.full(4, g, dtype=np.uint8)
            arena.push_root(0, tiles, np.array([g, 0, 0, 0], dtype=np.int32))
        arena.donate_bottoms(np.array([0]), np.array([1]))
        assert arena.counts().tolist() == [2, 1]
        t1, m1 = arena.entry_rows(1)
        assert t1[0].tolist() == [0, 0, 0, 0]
        assert m1[0, G_COL] == 0

    def test_capacity_growth_preserves_windows(self):
        arena = SearchArena(2, 3, capacity=2)
        for g in range(9):
            arena.push_segments(
                np.array([0]),
                np.array([1]),
                np.full((1, 3), g, dtype=np.uint8),
                np.array([[g, g, g, g]], dtype=np.int32),
            )
        assert arena.capacity >= 9
        _, meta = arena.entry_rows(0)
        assert meta[:, G_COL].tolist() == list(range(9))

    def test_compaction_reclaims_donated_slots(self):
        arena = SearchArena(2, 3, capacity=4)
        for g in range(4):
            arena.push_root(0, np.full(3, g, dtype=np.uint8),
                            np.array([g, 0, 0, 0], dtype=np.int32))
        arena.donate_bottoms(np.array([0]), np.array([1]))
        # PE 0 holds 3 live entries in slots [1, 4); one more push must
        # compact into the donated slot rather than grow.
        arena.push_segments(
            np.array([0]), np.array([1]),
            np.full((1, 3), 9, dtype=np.uint8),
            np.full((1, 4), 9, dtype=np.int32),
        )
        assert arena.capacity == 4
        _, meta = arena.entry_rows(0)
        assert meta[:, G_COL].tolist() == [1, 2, 3, 9]


def _on_dfs_stacks(workload) -> bool:
    return all(isinstance(s, DFSStack) for s in workload.stacks)


class TestArenaBackendValidation:
    """The arena is chosen from the problem alone, never by the caller."""

    def test_manhattan_puzzle_gets_the_arena(self):
        wl = SearchWorkload(SlidingPuzzle.scrambled(3, 8, rng=0), 20, 4)
        assert wl._arena is not None and not _on_dfs_stacks(wl)

    def test_rejects_problem_without_codec(self):
        """No vectorizable view: the arena is declined, not an error."""
        wl = SearchWorkload(NQueensProblem(5), 5, 4)
        assert wl._arena is None and _on_dfs_stacks(wl)

    def test_rejects_linear_conflict_heuristic(self):
        """The delta table is exact for Manhattan only, so a
        linear-conflict puzzle runs on ``DFSStack``s."""
        p = SlidingPuzzle(
            SlidingPuzzle.scrambled(4, 8, rng=0).tiles,
            heuristic_name="linear_conflict",
        )
        wl = SearchWorkload(p, 40, 4)
        assert wl._arena is None and _on_dfs_stacks(wl)

    def test_kernel_tier_is_inert_without_an_arena(self):
        for tier in ("numpy", "fused", "jit", "auto"):
            wl = SearchWorkload(NQueensProblem(5), 5, 4, kernel_backend=tier)
            assert wl.expand_cycle() == 1


def _flat_stacks(workload):
    """Either storage's stacks as flat per-PE StackEntry sequences."""
    if workload._arena is None:
        return [s.entries() for s in workload.stacks]
    return workload.stacks


@pytest.mark.parametrize("side,scramble,bound", [(3, 20, 24), (4, 18, 30)])
@pytest.mark.parametrize("split", ["bottom", "half"])
def test_lockstep_cycle_and_transfer_identity(side, scramble, bound, split):
    """Expand + donate in lock-step: the arena's packed windows must hold
    exactly the ``DFSStack`` storage's flattened stacks after every
    operation."""
    p = SlidingPuzzle.scrambled(side, scramble, rng=9)
    wl_list = SearchWorkload(opaque(p), bound, 16, split=split)
    wl_arena = SearchWorkload(p, bound, 16, split=split)
    for cycle in range(80):
        assert wl_list.expand_cycle() == wl_arena.expand_cycle()
        assert np.array_equal(wl_list.expanding_mask(), wl_arena.expanding_mask())
        assert _flat_stacks(wl_list) == _flat_stacks(wl_arena), cycle
        busy = np.flatnonzero(wl_list.busy_mask())
        idle = np.flatnonzero(wl_list.idle_mask())
        pairs = min(len(busy), len(idle))
        if pairs:
            moved_list = wl_list.transfer(busy[:pairs], idle[:pairs])
            moved_arena = wl_arena.transfer(busy[:pairs], idle[:pairs])
            assert moved_list == moved_arena
            assert _flat_stacks(wl_list) == _flat_stacks(wl_arena), cycle
        if wl_list.done():
            assert wl_arena.done()
            break
    assert wl_list.expanded == wl_arena.expanded
    assert wl_list.solutions == wl_arena.solutions
    assert wl_list.goal_depths == wl_arena.goal_depths
    assert wl_list.next_bound == wl_arena.next_bound


def test_mask_memoization_and_invalidate():
    """Masks are cached per mutation; direct stack edits need
    invalidate_masks() — the StackWorkload/DivisibleWorkload convention."""
    p = SlidingPuzzle.scrambled(3, 12, rng=2)
    wl = SearchWorkload(opaque(p), 20, 4)
    wl.expand_cycle()
    counts = wl._counts()
    assert wl._counts() is counts  # cached snapshot, no recompute
    # A direct mutation bypassing the workload API leaves the cache stale.
    entry = wl.stacks[0].pop_next()
    assert entry is not None
    assert wl._counts() is counts
    wl.invalidate_masks()
    assert wl._counts()[0] == counts[0] - 1
    # Workload-level mutators invalidate on their own.
    wl.expand_cycle()
    assert wl._counts() is not counts

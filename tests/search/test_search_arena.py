"""Unit tests for the packed search arena and the vectorized storage.

The cross-scheme run-level equivalence lives in
``tests/integration/test_search_backend_equivalence.py``; here we test
the building blocks — the puzzle's packed codec and move tables, the
vector body's children against per-node expansion, the arena under the
search payload (``tests/simd/test_arena.py`` fuzzes the same
operations), which problems get the arena, and cycle-by-cycle lock-step
identity between the two storages including donation and growth.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.problems.fifteen_puzzle import BENCH_INSTANCES
from repro.problems.npuzzle import PuzzleState, SlidingPuzzle, manhattan_distance
from repro.problems.nqueens import NQueensProblem
from repro.search import kernel
from repro.search.ida_star import ida_star
from repro.search.kernel import G_SHIFT, H_SHIFT
from repro.search.parallel import ParallelIDAStar, SearchWorkload
from repro.search.stack import DFSStack
from repro.simd.arena import WindowArena
from tests.oracles import opaque


def _search_arena(n_pes, *, capacity=64):
    """The search workload's arena: a board word plus an info word."""
    return WindowArena(n_pes, (((), np.int64), ((), np.int64)), capacity=capacity)


@st.composite
def _states(draw, sides=(2, 3, 4)):
    """A random board (any permutation) with any legal previous blank."""
    side = draw(st.sampled_from(sides))
    tiles = tuple(draw(st.permutations(range(side * side))))
    problem = SlidingPuzzle(tiles)
    blank = tiles.index(0)
    prev = draw(st.sampled_from((-1, *problem._neighbors[blank])))
    return problem, PuzzleState(tiles, blank, prev)


class TestPuzzleCodec:
    @pytest.mark.parametrize("side", [2, 3, 4])
    def test_encode_decode_roundtrip(self, side):
        p = SlidingPuzzle.scrambled(side, 30, rng=7)
        state = p.initial_state()
        for _ in range(5):
            word, key = p.encode_state(state)
            assert -(1 << 63) <= word < 1 << 63
            assert p.decode_state(word, key) == state
            state = p.expand(state)[0]

    @given(_states())
    @example(
        (
            SlidingPuzzle(range(15, -1, -1)),
            PuzzleState(tuple(range(15, -1, -1)), 15, 14),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_codec_roundtrips_any_permutation(self, case):
        """Any board at side 2-4 round-trips; a tile >= 8 in cell 15 sets
        the sign bit of the word."""
        p, state = case
        word, key = p.encode_state(state)
        assert (word < 0) == (p.side == 4 and state.tiles[15] >= 8)
        assert p.decode_state(word, key) == state
        assert np.array([word], dtype=np.int64)[0] == word  # fits an int64

    @pytest.mark.parametrize("side", [3, 4])
    def test_move_table_matches_neighbor_table(self, side):
        p = SlidingPuzzle.scrambled(side, 5, rng=0)
        table = p.move_table()
        assert table.shape == (side * side, 4)
        for pos, moves in enumerate(p._neighbors):
            assert table[pos, : len(moves)].tolist() == list(moves)
            assert (table[pos, len(moves) :] == -1).all()

    def test_goal_row_is_goal_layout(self):
        """The packed goal word decodes to the goal layout."""
        p = SlidingPuzzle.scrambled(4, 10, rng=1)
        goal = p.decode_state(p.packed_moves().goal_word, 0)
        assert goal.tiles == p.goal_tiles

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
        tables = (p.move_table(), p.manhattan_table(), *p.packed_moves()[1:])
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 0

    def test_supports_arena_backend_manhattan_only(self):
        assert SlidingPuzzle.scrambled(4, 5, rng=0).supports_arena_backend()
        lc = SlidingPuzzle(
            SlidingPuzzle.scrambled(4, 5, rng=0).tiles,
            heuristic_name="linear_conflict",
        )
        assert not lc.supports_arena_backend()

    def test_side_five_runs_on_dfs_stacks(self):
        """25 cells do not fit one word: the puzzle declines the arena and
        still expands serial IDA*'s tree, node for node."""
        p = SlidingPuzzle.scrambled(5, 14, rng=4)
        assert not p.supports_arena_backend()
        assert SearchWorkload(p, 30, 4)._arena is None
        parallel = ParallelIDAStar(p, 16, "GP-S0.75").run()
        serial = ida_star(p)
        assert parallel.total_expanded == serial.total_expanded
        assert parallel.bounds == serial.bounds
        assert parallel.solution_cost == serial.solution_cost
        assert parallel.solutions == serial.solutions


class TestVectorBody:
    @given(_states(), st.integers(0, 200))
    @settings(max_examples=150, deadline=None)
    def test_children_are_the_packed_expansion(self, case, g):
        """One popped entry's children, as the vector body writes them,
        are ``problem.expand(state)`` packed, in push order (reversed
        generation order) — or nothing, with ``g`` recorded, at a goal."""
        p, state = case
        wl = SearchWorkload(p, 1 << 30, 1)
        word, key = p.encode_state(state)
        h = p.heuristic(state)
        wl._arena.planes[1][0, 0] = g << G_SHIFT | h << H_SHIFT | key
        wl._arena.planes[0][0, 0] = word
        kernel._expand_vector(wl, np.array([0]))
        words, infos = wl._arena.window(0)
        if state.tiles == p.goal_tiles:
            assert wl.goal_depths == [g] and len(words) == 0
            return
        want = []
        for child in reversed(p.expand(state)):
            child_word, child_key = p.encode_state(child)
            child_info = (g + 1) << G_SHIFT | p.heuristic(child) << H_SHIFT | child_key
            want.append((child_word, child_info))
        assert list(zip(words.tolist(), infos.tolist())) == want


class TestSearchArena:
    @staticmethod
    def _entries(gs):
        """Board and info words for entries of depth ``gs``; the words
        are negative, so a lost sign bit shows."""
        gs = np.asarray(gs, dtype=np.int64)
        return -(gs + 1) * 0x0123456789ABCDEF, gs << G_SHIFT | 5 << H_SHIFT | 7

    def test_push_pop_roundtrip(self):
        arena = _search_arena(4)
        word, info = self._entries([3])
        arena.push_root(1, word[0], info[0])
        assert arena.counts().tolist() == [0, 1, 0, 0]
        out_words, out_infos = arena.pop_tops(np.array([1]))
        assert out_words.tolist() == word.tolist()
        assert out_infos.tolist() == info.tolist()
        assert arena.counts().sum() == 0

    def test_push_segments_csr_order(self):
        arena = _search_arena(3)
        pes = np.array([0, 2])
        lens = np.array([2, 1])
        words, infos = self._entries([0, 1, 2])
        arena.push_segments(pes, lens, words, infos)
        assert arena.counts().tolist() == [2, 0, 1]
        w0, i0 = arena.window(0)
        assert np.array_equal(w0, words[:2])
        assert np.array_equal(i0, infos[:2])
        w2, _ = arena.window(2)
        assert np.array_equal(w2, words[2:])

    def test_donate_bottoms_moves_oldest_entry(self):
        arena = _search_arena(2)
        words, infos = self._entries(range(3))
        for word, info in zip(words, infos):
            arena.push_root(0, word, info)
        arena.donate_bottoms(np.array([0]), np.array([1]))
        assert arena.counts().tolist() == [2, 1]
        w1, i1 = arena.window(1)
        assert w1.tolist() == words[:1].tolist()
        assert i1[0] >> G_SHIFT == 0

    def test_capacity_growth_preserves_windows(self):
        arena = _search_arena(2, capacity=2)
        words, infos = self._entries(range(9))
        for g in range(9):
            arena.push_segments(
                np.array([0]), np.array([1]), words[g : g + 1], infos[g : g + 1]
            )
        assert arena.capacity >= 9
        got_words, got_infos = arena.window(0)
        assert (got_infos >> G_SHIFT).tolist() == list(range(9))
        assert np.array_equal(got_words, words)

    def test_compaction_reclaims_donated_slots(self):
        arena = _search_arena(2, capacity=4)
        words, infos = self._entries([0, 1, 2, 3, 9])
        for word, info in zip(words[:4], infos[:4]):
            arena.push_root(0, word, info)
        arena.donate_bottoms(np.array([0]), np.array([1]))
        # PE 0 holds 3 live entries in slots [1, 4); one more push must
        # compact into the donated slot rather than grow.
        arena.push_segments(np.array([0]), np.array([1]), words[4:], infos[4:])
        assert arena.capacity == 4
        _, got = arena.window(0)
        assert (got >> G_SHIFT).tolist() == [1, 2, 3, 9]


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


@pytest.mark.parametrize("n_pes", [0, -2, 2.5])
@pytest.mark.parametrize("storage", ["dfs-stacks", "arena"])
def test_n_pes_is_validated_on_either_storage(storage, n_pes):
    """The workload checks ``n_pes`` itself, so the error does not depend
    on which storage the problem picks."""
    problem = NQueensProblem(5) if storage == "dfs-stacks" else BENCH_INSTANCES["tiny"]
    with pytest.raises(ValueError, match="n_pes"):
        SearchWorkload(problem, 50, n_pes)


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


def test_vector_body_grows_the_arena_mid_cycle(monkeypatch):
    """An arena started at 4 slots per PE overflows inside the vector
    body: it reserves (compacting donated slots, then doubling) and
    rewrites the children, still in lock-step with ``DFSStack``s."""
    monkeypatch.setattr(kernel, "SPARSE_THRESHOLD", 0)
    p = SlidingPuzzle.scrambled(4, 30, rng=5)
    bound = ida_star(p).solution_cost
    wl_list = SearchWorkload(opaque(p), bound, 16)
    wl_arena = SearchWorkload(p, bound, 16)
    small = _search_arena(16, capacity=4)
    small.push_root(0, *(plane[0, 0] for plane in wl_arena._arena.planes))
    wl_arena._arena = small
    reserves = []
    real_reserve = small.reserve

    def reserve(pes, lens):
        reserves.append(len(pes))
        real_reserve(pes, lens)

    monkeypatch.setattr(small, "reserve", reserve)
    cycle = 0
    while not wl_list.done():
        assert wl_list.expand_cycle() == wl_arena.expand_cycle()
        assert _flat_stacks(wl_list) == _flat_stacks(wl_arena), cycle
        busy = np.flatnonzero(wl_list.busy_mask())
        idle = np.flatnonzero(wl_list.idle_mask())
        pairs = min(len(busy), len(idle))
        assert wl_list.transfer(busy[:pairs], idle[:pairs]) == wl_arena.transfer(
            busy[:pairs], idle[:pairs]
        )
        cycle += 1
    assert wl_arena.done()
    assert reserves and small.capacity > 4
    assert wl_list.expanded == wl_arena.expanded
    assert wl_list.goal_depths == wl_arena.goal_depths != []
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

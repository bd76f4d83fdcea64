"""Stack-arena unit tests: the batched sampler, the arena under the
stack payload, and a hypothesis fuzz pinning the workload to the
deque-backed list oracle.

``TestStackArena`` pins named growth/compaction scenarios of
:class:`~repro.simd.arena.WindowArena` with one int64 row per entry;
``tests/simd/test_arena.py`` fuzzes the same operations over both
workloads' row shapes against a list-of-lists model.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simd.arena import WindowArena
from repro.util.rng import spawn_child
from repro.workmodel.stackmodel import StackWorkload, draw_children_batch
from tests.oracles import ListStackWorkload


def _stack_arena(n_pes, *, capacity):
    """The stack workload's arena: one int64 subtree size per entry."""
    return WindowArena(n_pes, (((), np.int64),), capacity=capacity)


def _lists(arena):
    return [arena.window(pe)[0].tolist() for pe in range(arena.n_pes)]


class TestDrawChildrenBatch:
    def test_conserves_nodes(self):
        sizes = np.array([100, 1, 2, 50, 7])
        lens, flat = draw_children_batch(spawn_child(0, 0), sizes, 4, 0.1)
        assert flat.sum() == (sizes - 1).sum()
        assert lens.sum() == len(flat)

    def test_size_one_yields_nothing(self):
        lens, flat = draw_children_batch(spawn_child(0, 0), np.array([1, 1]), 4, 0.0)
        assert np.array_equal(lens, [0, 0])
        assert len(flat) == 0

    def test_all_children_positive(self):
        lens, flat = draw_children_batch(
            spawn_child(0, 1), np.arange(1, 300), 6, 0.2
        )
        assert (flat > 0).all()
        assert (lens <= 6).all()

    def test_deterministic_given_stream(self):
        sizes = np.array([90, 30, 11])
        a = draw_children_batch(spawn_child(7, 0), sizes, 4, 0.3)
        b = draw_children_batch(spawn_child(7, 0), sizes, 4, 0.3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestStackArena:
    def test_push_pop_roundtrip(self):
        arena = _stack_arena(3, capacity=4)
        arena.push_root(0, 10)
        arena.push_segments(
            np.array([0, 2]), np.array([2, 1]), np.array([7, 8, 9])
        )
        assert _lists(arena) == [[10, 7, 8], [], [9]]
        assert np.array_equal(arena.counts(), [3, 0, 1])
        (tops,) = arena.pop_tops(np.array([0, 2]))
        assert np.array_equal(tops, [8, 9])
        assert _lists(arena) == [[10, 7], [], []]

    def test_donate_bottoms(self):
        arena = _stack_arena(3, capacity=4)
        arena.push_segments(
            np.array([0]), np.array([3]), np.array([40, 10, 5])
        )
        arena.donate_bottoms(np.array([0]), np.array([2]))
        assert _lists(arena) == [[10, 5], [], [40]]

    def test_growth_preserves_contents(self):
        arena = _stack_arena(2, capacity=2)
        arena.push_segments(np.array([0]), np.array([2]), np.array([1, 2]))
        # Overflow: the arena must compact + double, keeping the window.
        arena.push_segments(np.array([0]), np.array([3]), np.array([3, 4, 5]))
        assert arena.capacity >= 5
        assert _lists(arena) == [[1, 2, 3, 4, 5], []]

    def test_growth_after_donations_compacts_dead_columns(self):
        arena = _stack_arena(2, capacity=4)
        arena.push_segments(np.array([0]), np.array([4]), np.array([1, 2, 3, 4]))
        arena.donate_bottoms(np.array([0]), np.array([1]))
        arena.pop_tops(np.array([1]))
        arena.donate_bottoms(np.array([0]), np.array([1]))  # receiver refill
        # PE 0 window now sits at columns [2, 4); pushing 2 more entries
        # fits after compaction without any growth.
        arena.push_segments(np.array([0]), np.array([2]), np.array([5, 6]))
        assert arena.capacity == 4
        assert _lists(arena)[0] == [3, 4, 5, 6]

    def test_reset_empty_windows(self):
        arena = _stack_arena(2, capacity=4)
        arena.push_segments(np.array([0]), np.array([3]), np.array([1, 2, 3]))
        arena.donate_bottoms(np.array([0]), np.array([1]))
        arena.pop_tops(np.array([0]))
        arena.pop_tops(np.array([0]))
        assert arena.bottom[0] == 1 and arena.top[0] == 1  # empty, offset window
        arena.reset_empty_windows()
        assert arena.bottom[0] == 0 and arena.top[0] == 0
        assert _lists(arena) == [[], [1]]


def _paired(rng, busy, idle):
    """Disjoint one-to-one donor/receiver pairs from the masks."""
    donors = np.flatnonzero(busy)
    receivers = np.flatnonzero(idle)
    k = min(len(donors), len(receivers))
    return rng.permutation(donors)[:k], rng.permutation(receivers)[:k]


class TestArenaMatchesListOracle:
    @given(
        st.integers(20, 3000),
        st.integers(2, 24),
        st.integers(0, 99),
        st.floats(0.0, 0.8),
    )
    @settings(max_examples=25, deadline=None)
    def test_lockstep_state_identical(self, work, n_pes, seed, leaf_p):
        """Expand/transfer interleavings leave bit-identical stacks, and the
        conservation invariant (expanded + pending == W) holds every cycle."""
        arena = StackWorkload(work, n_pes, rng=seed, leaf_probability=leaf_p)
        oracle = ListStackWorkload(
            work, n_pes, rng=seed, leaf_probability=leaf_p
        )
        schedule = spawn_child(seed, 1)
        guard = 0
        while not arena.done():
            guard += 1
            assert guard <= work + 1
            assert arena.expand_cycle() == oracle.expand_cycle()
            assert arena.check_conservation()
            assert oracle.check_conservation()
            if schedule.random() < 0.4:
                donors, receivers = _paired(
                    spawn_child(seed, guard), arena.busy_mask(), arena.idle_mask()
                )
                assert arena.transfer(donors, receivers) == oracle.transfer(
                    donors, receivers
                )
                assert arena.check_conservation()
            assert arena.stacks == [list(s) for s in oracle.stacks]
            assert np.array_equal(arena.busy_mask(), oracle.busy_mask())
            assert np.array_equal(arena.idle_mask(), oracle.idle_mask())
        assert oracle.done()
        assert arena.total_expanded() == oracle.total_expanded() == work

    def test_deep_chain_growth(self):
        """leaf_probability ~ 1 makes near-chains; the arena must grow its
        capacity without corrupting any stack."""
        wl = StackWorkload(4_000, 2, rng=3, leaf_probability=0.95)
        oracle = ListStackWorkload(4_000, 2, rng=3, leaf_probability=0.95)
        while not wl.done():
            wl.expand_cycle()
            oracle.expand_cycle()
        assert oracle.done()
        assert wl.total_expanded() == oracle.total_expanded() == 4_000


class TestArenaWorkloadBasics:
    def test_stacks_snapshot(self):
        wl = StackWorkload(100, 4, rng=0)
        assert wl.stacks == [[100], [], [], []]

    def test_transfer_validity_filter(self):
        wl = StackWorkload(100, 3, rng=0)
        # PE 0 holds one entry (unsplittable): the pair must be declined.
        assert wl.transfer(np.array([0]), np.array([1])) == 0
        assert wl.stacks == [[100], [], []]

"""Self-tests of the reference implementations: an oracle that is wrong,
or that quietly runs the product path, proves nothing."""

from collections import deque

import numpy as np

from repro.problems.npuzzle import SlidingPuzzle
from repro.search.parallel import _ARENA_PROTOCOL, SearchWorkload
from repro.search.stack import DFSStack
from tests.oracles import ListStackWorkload, opaque


class TestListStackWorkload:
    def test_root_on_pe_zero_in_deques(self):
        wl = ListStackWorkload(100, 3, rng=0)
        assert all(isinstance(s, deque) for s in wl.stacks)
        assert [list(s) for s in wl.stacks] == [[100], [], []]

    def test_masks_follow_entry_counts(self):
        wl = ListStackWorkload(100, 3, rng=0)
        wl.stacks[0] = deque([50])
        wl.stacks[1] = deque([2, 3])
        assert wl.expanding_mask().tolist() == [True, True, False]
        assert wl.busy_mask().tolist() == [False, True, False]
        assert wl.idle_mask().tolist() == [False, False, True]

    def test_donates_the_bottom_to_idle_receivers_only(self):
        wl = ListStackWorkload(100, 3, rng=0)
        wl.stacks[0] = deque([40, 10, 5])
        wl.stacks[2] = deque([3])
        assert wl.transfer(np.array([0, 0]), np.array([2, 1])) == 1
        assert [list(s) for s in wl.stacks] == [[10, 5], [40], [3]]

    def test_extract_inject_round_trip(self):
        wl = ListStackWorkload(100, 2, rng=0)
        wl.stacks[0] = deque([40, 10, 5])
        payload, n = wl.extract_pe(0)
        assert (payload, n) == ((40, 10, 5), 3) and not wl.stacks[0]
        assert wl.inject_pe(1, payload) == 3
        assert list(wl.stacks[1]) == [40, 10, 5]

    def test_expands_exactly_w_nodes_conserving_work(self):
        wl = ListStackWorkload(700, 4, rng=5, leaf_probability=0.3)
        while not wl.done():
            assert wl.expand_cycle() > 0
            assert wl.check_conservation()
        assert wl.total_expanded() == 700 and wl.expand_cycle() == 0


class TestOpaque:
    PUZZLE = SlidingPuzzle.scrambled(3, 8, rng=0)

    def test_hides_every_arena_protocol_name(self):
        hidden = opaque(self.PUZZLE)
        assert not any(hasattr(hidden, name) for name in _ARENA_PROTOCOL)

    def test_puts_a_puzzle_on_dfs_stacks(self):
        wl = SearchWorkload(opaque(self.PUZZLE), 20, 4)
        assert all(isinstance(s, DFSStack) for s in wl.stacks)

    def test_forwards_the_same_tree(self):
        hidden = opaque(self.PUZZLE)
        root = hidden.initial_state()
        assert root == self.PUZZLE.initial_state()
        assert hidden.expand(root) == self.PUZZLE.expand(root)
        assert hidden.heuristic(root) == self.PUZZLE.heuristic(root)
        assert hidden.is_goal(root) == self.PUZZLE.is_goal(root)

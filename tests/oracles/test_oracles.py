"""Self-tests of the reference implementations: an oracle that is wrong,
or that quietly runs the product path, proves nothing."""

from collections import deque

import numpy as np
import pytest

from repro.problems.npuzzle import SlidingPuzzle
from repro.search.parallel import _ARENA_PROTOCOL, SearchWorkload
from repro.search.stack import DFSStack
from tests.oracles import (
    ListStackWorkload,
    RendezvousGPMatcher,
    RendezvousNGPMatcher,
    opaque,
)
from tests.oracles.matching import mask_rendezvous


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

    def test_expands_exactly_w_nodes_conserving_work(self):
        wl = ListStackWorkload(700, 4, rng=5, leaf_probability=0.3)
        while not wl.done():
            assert wl.expand_cycle() > 0
            assert wl.check_conservation()
        assert wl.total_expanded() == 700 and wl.expand_cycle() == 0


class TestRendezvousMatchers:
    BUSY = np.array([1, 1, 1, 1, 1, 0, 0, 1], dtype=bool)

    def test_figure2_gp_example(self):
        m = RendezvousGPMatcher(pointer=4)
        r = m.match(self.BUSY, ~self.BUSY)
        assert r.donors.tolist() == [7, 0] and r.receivers.tolist() == [5, 6]
        assert r.busy_ranks.tolist() == [1, 2, 3, 4, 5, -1, -1, 0]
        assert m.pointer == 0

    def test_figure2_ngp_example(self):
        r = RendezvousNGPMatcher().match(self.BUSY, ~self.BUSY)
        assert r.donors.tolist() == [0, 1] and r.receivers.tolist() == [5, 6]

    def test_rendezvous_checks_the_rotation(self):
        with pytest.raises(ValueError, match="permutation"):
            mask_rendezvous(~self.BUSY, self.BUSY, grantor_order=np.array([0, 0]))


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

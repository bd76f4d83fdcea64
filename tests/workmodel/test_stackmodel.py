import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import Scheduler
from repro.simd.cost import CostModel
from repro.simd.machine import SimdMachine
from repro.workmodel.stackmodel import StackWorkload


def _with_stacks(*stacks):
    """A workload whose PE ``i`` holds exactly ``stacks[i]`` (bottom -> top)."""
    wl = StackWorkload(100, len(stacks), rng=0)
    arena = wl._arena
    arena.take_bottoms(0, 1)  # drop the root
    arena.reset_empty_windows()
    for pe, values in enumerate(stacks):
        arena.inject_window(pe, np.asarray(values, dtype=np.int64))
    wl.invalidate_masks()
    return wl


class TestConstruction:
    def test_root_on_pe_zero(self):
        wl = StackWorkload(100, 4, rng=0)
        assert list(wl.stacks[0]) == [100]
        assert all(not s for s in wl.stacks[1:])

    def test_validation(self):
        with pytest.raises(ValueError):
            StackWorkload(0, 4)
        with pytest.raises(ValueError):
            StackWorkload(10, 4, leaf_probability=1.0)


class TestMasks:
    def test_busy_needs_two_stack_nodes(self):
        # One huge subtree: expanding, NOT busy; two entries: busy.
        wl = _with_stacks([50], [2, 3], [])
        assert np.array_equal(wl.expanding_mask(), [True, True, False])
        assert np.array_equal(wl.busy_mask(), [False, True, False])
        assert np.array_equal(wl.idle_mask(), [False, False, True])

    def test_invalidate_masks_after_direct_mutation(self):
        wl = StackWorkload(100, 2, rng=0)
        assert np.array_equal(wl.idle_mask(), [False, True])
        wl._arena.push_root(1, 4)  # behind the workload's back
        assert np.array_equal(wl.idle_mask(), [False, True])
        wl.invalidate_masks()
        assert np.array_equal(wl.idle_mask(), [False, False])


class TestExpansion:
    @given(st.integers(5, 2000), st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_conservation_and_exact_total(self, work, seed):
        wl = StackWorkload(work, 4, rng=seed)
        guard = 0
        while not wl.done():
            wl.expand_cycle()
            assert wl.check_conservation()
            guard += 1
            assert guard <= work + 1
        assert wl.total_expanded() == work

    def test_leaf_probability_chains(self):
        wl = StackWorkload(500, 2, leaf_probability=0.9, rng=1)
        while not wl.done():
            wl.expand_cycle()
        assert wl.total_expanded() == 500


class TestTransfer:
    def test_bottom_of_stack_donated(self):
        wl = _with_stacks([40, 10, 5], [])
        moved = wl.transfer(np.array([0]), np.array([1]))
        assert moved == 1
        assert list(wl.stacks[0]) == [10, 5]
        assert list(wl.stacks[1]) == [40]

    def test_refuses_unsplittable_donor(self):
        wl = _with_stacks([100], [])
        assert wl.transfer(np.array([0]), np.array([1])) == 0

    def test_refuses_nonidle_receiver(self):
        wl = _with_stacks([40, 10], [3])
        assert wl.transfer(np.array([0]), np.array([1])) == 0

    def test_shape_mismatch(self):
        wl = StackWorkload(100, 2, rng=0)
        with pytest.raises(ValueError):
            wl.transfer(np.array([0, 1]), np.array([1]))


class TestWithScheduler:
    @pytest.mark.parametrize("spec", ["GP-S0.75", "nGP-S0.75", "GP-DK", "GP-DP"])
    def test_full_run(self, spec):
        wl = StackWorkload(20_000, 32, rng=2)
        machine = SimdMachine(32, CostModel())
        init = 0.85 if spec.endswith(("DK", "DP")) else None
        metrics = Scheduler(wl, machine, spec, init_threshold=init).run()
        assert wl.done()
        assert metrics.total_work == 20_000
        assert machine.check_time_identity()
        assert 0 < metrics.efficiency <= 1

"""Hypothesis lock-step fuzz of MegaArena cell packing/unpacking.

Three invariants the batched grid executor leans on, driven over random
cell shapes and interleaved full-width / per-cell mutations:

- **conservation** — per cell, ``expanded + remaining == W`` after every
  lock-step cycle, no matter how transfers shuffle work inside a cell;
- **no cross-cell writes** — mutating one cell (through its slice view
  or via full-width kernels whose rows self-mask) never changes another
  cell's bytes;
- **compaction keeps survivors whole** — dropping any subset of cells
  with ``keep`` leaves every surviving cell's rows and expansion count
  as they were, in order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import as_generator
from repro.workmodel.mega import MegaArena


def _random_arena(rng, n_cells, max_p, max_w):
    pes = [int(rng.integers(1, max_p + 1)) for _ in range(n_cells)]
    roots = [int(rng.integers(1, max_w + 1)) for _ in range(n_cells)]
    return MegaArena(pes, roots=roots), pes, roots


cells_st = st.integers(1, 8)
seed_st = st.integers(0, 999)


class TestPacking:
    @given(cells_st, st.integers(1, 16), st.integers(1, 40), seed_st)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_and_shape(self, n_cells, max_p, max_w, seed):
        rng = as_generator(seed)
        arena, pes, roots = _random_arena(rng, n_cells, max_p, max_w)
        assert arena.n_cells == n_cells
        assert arena.total_width == sum(pes)
        assert list(arena.widths()) == pes
        for c, (p, w) in enumerate(zip(pes, roots)):
            vec = arena.cell(c)
            assert vec.shape == (p,)
            assert vec[0] == w and np.all(vec[1:] == 0)
        unpacked = arena.unpack()
        for c in range(n_cells):
            assert np.array_equal(unpacked[c], arena.cell(c))
            unpacked[c][:] = -1  # copies: writing back must not alias
        assert np.all(arena.work >= 0)

    @given(cells_st, st.integers(1, 12), st.integers(1, 60), st.integers(0, 30), seed_st)
    @settings(max_examples=40, deadline=None)
    def test_lockstep_conservation(self, n_cells, max_p, max_w, cycles, seed):
        rng = as_generator(seed)
        arena, pes, roots = _random_arena(rng, n_cells, max_p, max_w)
        for _ in range(cycles):
            before = arena.remaining()
            rows = arena.unpack()
            counts, busy = arena.expand_cycle()
            assert np.all(counts >= 0) and np.all(counts <= pes)
            assert np.array_equal(arena.remaining(), before - counts)
            assert arena.check_conservation(roots)
            # The fused counts are the per-cell ones, taken before and
            # after the decrement, and each row lost at most one node.
            for c, (row, after) in enumerate(zip(rows, arena.unpack())):
                assert counts[c] == np.count_nonzero(row)
                assert busy[c] == np.count_nonzero(after >= 2)
                assert np.array_equal(after, np.maximum(row - 1, 0))
            # interleave a random intra-cell transfer (donor -> idle PE)
            c = int(rng.integers(0, n_cells))
            vec = arena.cell(c)
            donors = np.flatnonzero(vec >= 2)
            if donors.size:
                d = int(donors[int(rng.integers(0, donors.size))])
                give = int(rng.integers(1, vec[d]))
                vec[d] -= give
                vec[int(rng.integers(0, len(vec)))] += give
            assert arena.check_conservation(roots)

    @given(cells_st, st.integers(1, 12), st.integers(1, 60), seed_st)
    @settings(max_examples=40, deadline=None)
    def test_no_cross_cell_writes(self, n_cells, max_p, max_w, seed):
        rng = as_generator(seed)
        arena, pes, _ = _random_arena(rng, n_cells, max_p, max_w)
        target = int(rng.integers(0, n_cells))
        others_before = [
            arena.cell(c).copy() for c in range(n_cells) if c != target
        ]
        # hammer the target cell through its slice view
        vec = arena.cell(target)
        vec[:] = 0
        vec[0] = 7
        others_after = [
            arena.cell(c) for c in range(n_cells) if c != target
        ]
        for before, after in zip(others_before, others_after):
            assert np.array_equal(before, after)

    @given(cells_st, st.integers(1, 12), st.integers(1, 60), seed_st)
    @settings(max_examples=40, deadline=None)
    def test_finished_cells_self_mask(self, n_cells, max_p, max_w, seed):
        """Full-width kernels leave drained (all-zero) cells untouched."""
        rng = as_generator(seed)
        arena, pes, roots = _random_arena(rng, n_cells, max_p, max_w)
        drained = int(rng.integers(0, n_cells))
        arena.cell(drained)[:] = 0
        expanded_before = arena.expanded()[drained]
        counts, busy = arena.expand_cycle()
        assert counts[drained] == 0 and busy[drained] == 0
        assert arena.expanded()[drained] == expanded_before
        assert np.all(arena.cell(drained) == 0)
        assert arena.nonzero_counts()[drained] == 0


class TestKeep:
    def test_keep_drops_cells_in_order(self):
        arena = MegaArena([2, 3, 1], roots=[5, 7, 4])
        arena.expand_cycle()
        arena.cell(1)[2] = 3  # a donation inside cell 1
        arena.cell(1)[0] -= 3
        arena.keep([True, False, True])
        assert arena.n_cells == 2
        assert list(arena.offsets) == [0, 2, 3]
        assert arena.work.tolist() == [4, 0, 3]
        assert arena.expanded().tolist() == [1, 1]
        assert arena.nonzero_counts().tolist() == [1, 1]
        assert arena.check_conservation([5, 4])
        counts, busy = arena.expand_cycle()
        assert counts.tolist() == [1, 1] and busy.tolist() == [1, 1]

    def test_keep_everything_is_a_no_op(self):
        arena = MegaArena([3, 2], roots=[4, 9])
        arena.expand_cycle()
        before = arena.work.copy(), arena.expanded(), arena.offsets.copy()
        arena.keep([True, True])
        after = arena.work, arena.expanded(), arena.offsets
        assert all(map(np.array_equal, before, after))

    def test_views_are_the_cells_after_each_keep(self):
        arena = MegaArena([2, 3, 1], roots=[5, 7, 4])
        for keep in ([True, True, True], [False, True, True], [True, False]):
            arena.keep(keep)
            views = arena.views()
            assert len(views) == arena.n_cells
            for c, view in enumerate(views):
                assert np.shares_memory(view, arena.work)
                assert np.array_equal(view, arena.cell(c))
            views[-1][0] += 1  # writes through, like cell()
            assert arena.cell(arena.n_cells - 1)[0] == views[-1][0]

    def test_keep_rejects_bad_masks(self):
        arena = MegaArena([3, 2], roots=[4, 9])
        with pytest.raises(ValueError, match="mask"):
            arena.keep([True])
        with pytest.raises(ValueError, match="at least one"):
            arena.keep([False, False])

    @given(cells_st, st.integers(1, 12), st.integers(1, 60), st.integers(0, 20), seed_st)
    @settings(max_examples=60, deadline=None)
    def test_dropping_random_subsets_keeps_survivors(
        self, n_cells, max_p, max_w, cycles, seed
    ):
        """Drop random subsets between lock-step cycles: the survivors'
        bytes, expansion counts and conservation are untouched, and the
        kernels keep advancing them as if nothing had left."""
        rng = as_generator(seed)
        arena, pes, roots = _random_arena(rng, n_cells, max_p, max_w)
        ids = np.arange(n_cells)  # original cell id of each arena cell
        roots = np.asarray(roots)
        for _ in range(cycles):
            arena.expand_cycle()
            keep = rng.random(arena.n_cells) < 0.7
            if not keep.any():
                keep[int(rng.integers(0, arena.n_cells))] = True
            rows = [arena.cell(c).copy() for c in range(arena.n_cells)]
            expanded = arena.expanded()
            arena.keep(keep)
            ids, roots = ids[keep], roots[keep]
            kept = np.flatnonzero(keep)
            assert arena.n_cells == len(kept)
            assert arena.total_width == sum(pes[i] for i in ids)
            for new, old in enumerate(kept):
                assert np.array_equal(arena.cell(new), rows[old])
            assert np.array_equal(arena.expanded(), expanded[keep])
            assert arena.check_conservation(roots)


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            MegaArena([])

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            MegaArena([4, 0])

    def test_root_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="root work sizes"):
            MegaArena([4, 4], roots=[10])

    def test_cell_index_bounds(self):
        arena = MegaArena([3, 5], roots=[2, 2])
        with pytest.raises(IndexError):
            arena.cell(2)
        with pytest.raises(IndexError):
            arena.cell(-1)

    def test_conservation_shape_mismatch(self):
        arena = MegaArena([3], roots=[2])
        with pytest.raises(ValueError, match="work totals"):
            arena.check_conservation([2, 3])

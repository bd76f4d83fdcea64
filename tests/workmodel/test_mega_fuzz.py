"""Hypothesis lock-step fuzz of MegaArena cell packing/unpacking.

Two invariants the batched grid executor leans on, driven over random
cell shapes and interleaved full-width / per-cell mutations:

- **conservation** — per cell, ``expanded + remaining == W`` after every
  lock-step cycle, no matter how transfers shuffle work inside a cell;
- **no cross-cell writes** — mutating one cell (through its slice view
  or via full-width kernels whose rows self-mask) never changes another
  cell's bytes.
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
            before = arena.remaining().copy()  # fused: a borrowed view
            counts = arena.expand_all()
            assert np.all(counts >= 0) and np.all(counts <= pes)
            assert np.array_equal(arena.remaining(), before - counts)
            assert arena.check_conservation(roots)
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
        counts = arena.expand_all()
        assert counts[drained] == 0
        assert arena.expanded()[drained] == expanded_before
        assert np.all(arena.cell(drained) == 0)
        assert arena.busy_counts()[drained] == 0
        assert arena.nonzero_counts()[drained] == 0


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

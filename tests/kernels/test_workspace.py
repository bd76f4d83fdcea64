"""KernelWorkspace storage semantics and the pooled arena-growth path.

The fused tier's zero-allocation claim rests on three properties pinned
here: named scratch is reused (hits trend up, not misses) and grows
geometrically; the shared iota is one cached read-only array; and pooled
growth buffers come back zero-filled, which is what keeps
:meth:`StackArena._ensure_capacity` bit-identical to the historical
``np.zeros`` reallocation it replaced (the satellite-2 regression).
"""

import numpy as np
import pytest

from repro.kernels.workspace import KernelWorkspace
from repro.util.rng import as_generator
from repro.workmodel.arena import StackArena
from repro.workmodel.stackmodel import StackWorkload


class TestNamedScratch:
    def test_same_name_same_buffer(self):
        ws = KernelWorkspace()
        a = ws.scratch("x", 10)
        a[:] = 7
        b = ws.scratch("x", 10)
        assert b.base is a.base and ws.hits == 1 and ws.misses == 1
        # Dirty on reuse: the old contents are still visible.
        assert (b == 7).all()

    def test_growth_reallocates_then_reuses(self):
        ws = KernelWorkspace()
        ws.scratch("x", 10)
        big = ws.scratch("x", 1000)
        assert len(big) == 1000 and ws.misses == 2
        again = ws.scratch("x", 500)
        assert again.base is big.base and ws.hits == 1

    def test_dtype_change_reallocates(self):
        ws = KernelWorkspace()
        ws.scratch("x", 8, dtype=np.int64)
        f = ws.scratch("x", 8, dtype=np.float64)
        assert f.dtype == np.float64 and ws.misses == 2

    def test_scratch2d_fixed_cols(self):
        ws = KernelWorkspace()
        a = ws.scratch2d("m", 4, 3)
        assert a.shape == (4, 3)
        b = ws.scratch2d("m", 2, 3)
        assert b.base is a.base and b.shape == (2, 3)
        c = ws.scratch2d("m", 4, 5)  # column change => fresh buffer
        assert c.shape == (4, 5) and ws.misses == 2

    def test_two_names_two_live_buffers(self):
        ws = KernelWorkspace()
        a = ws.scratch("a", 16)
        b = ws.scratch("b", 16)
        a[:] = 1
        b[:] = 2
        assert (ws.scratch("a", 16) == 1).all()
        assert (ws.scratch("b", 16) == 2).all()


class TestIota:
    def test_read_only_and_cached(self):
        ws = KernelWorkspace()
        i = ws.iota(10)
        assert (i == np.arange(10)).all()
        with pytest.raises(ValueError):
            i[0] = 5
        assert ws.iota(8).base is ws.iota(10).base

    def test_grows_geometrically(self):
        ws = KernelWorkspace()
        big = ws.iota(100)
        assert (big == np.arange(100)).all()
        assert ws.iota(60).base is big.base


class TestBufferPool:
    def test_lease_is_zero_filled_after_dirty_release(self):
        ws = KernelWorkspace()
        buf = ws.lease((4, 8), np.int64)
        buf[:] = 99
        ws.release(buf)
        again = ws.lease((4, 8), np.int64)
        assert again is buf  # pooled, not reallocated
        assert (again == 0).all()  # ...and scrubbed on the way out
        assert ws.hits == 1

    def test_shape_mismatch_misses_pool(self):
        ws = KernelWorkspace()
        ws.release(np.ones((4, 8), dtype=np.int64))
        fresh = ws.lease((4, 16), np.int64)
        assert fresh.shape == (4, 16) and ws.misses == 1

    def test_stats_and_release_storage(self):
        ws = KernelWorkspace()
        ws.scratch("x", 8)
        ws.release(ws.lease((2, 2), np.int64))
        stats = ws.stats()
        assert stats["named"] == 1 and stats["pooled"] == 1
        ws.release_storage()
        stats = ws.stats()
        assert stats["named"] == 0 and stats["pooled"] == 0


class TestPooledArenaGrowth:
    """Satellite 2: pooled growth preserves the windows bit-identically."""

    def _fill(self, arena: StackArena, rng: np.random.Generator) -> None:
        """Drive pushes/pops/donations far past the initial capacity."""
        p = arena.n_pes
        for _ in range(6):
            pes = np.arange(p, dtype=np.int64)
            lens = rng.integers(1, 9, size=p).astype(np.int64)
            flat = rng.integers(1, 1000, size=int(lens.sum())).astype(np.int64)
            arena.push_segments(pes, lens, flat)
            busy = np.flatnonzero(arena.counts() >= 2)
            if len(busy) >= 2:
                arena.donate_bottoms(busy[:1], busy[1:2])
            arena.pop_tops(np.flatnonzero(arena.counts() > 0))
            arena.reset_empty_windows()

    def test_growth_bit_identical_with_and_without_pool(self):
        ws = KernelWorkspace()
        pooled = StackArena(8, capacity=4)
        pooled.workspace = ws
        plain = StackArena(8, capacity=4)
        self._fill(pooled, as_generator(3))
        self._fill(plain, as_generator(3))
        assert pooled.capacity == plain.capacity > 4  # growth happened
        assert pooled.to_lists() == plain.to_lists()
        assert (pooled.bottom == plain.bottom).all()
        assert (pooled.top == plain.top).all()
        # The outgrown planes were recycled through the pool.
        assert ws.stats()["pooled"] >= 1

    def test_workload_growth_identical_across_tiers(self):
        """A fused workload that doubles its arena mid-run stays
        bit-identical to the numpy tier, windows and RNG included."""
        kwargs = dict(
            total_work=30_000_000,
            n_pes=8,
            max_branching=2,
            leaf_probability=0.4,
        )
        numpy_wl = StackWorkload(rng=11, kernel_backend="numpy", **kwargs)
        fused_wl = StackWorkload(rng=11, kernel_backend="fused", **kwargs)
        for _ in range(2250):
            numpy_wl.expand_cycle()
            fused_wl.expand_cycle()
        assert fused_wl._arena.capacity > 32  # the default start capacity
        assert fused_wl._arena.capacity == numpy_wl._arena.capacity
        assert fused_wl.stacks == numpy_wl.stacks
        assert fused_wl.total_expanded() == numpy_wl.total_expanded()
        assert (
            fused_wl.rng.bit_generator.state == numpy_wl.rng.bit_generator.state
        )

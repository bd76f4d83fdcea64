"""KernelWorkspace storage semantics (the search kernel's scratch).

The dense search band's allocation-free steady state rests on two
properties pinned here: named scratch is reused and grows
geometrically; the shared iota is one cached read-only array.
"""

import numpy as np
import pytest

from repro.search.kernel import KernelWorkspace


class TestNamedScratch:
    def test_same_name_same_buffer(self):
        ws = KernelWorkspace()
        a = ws.scratch("x", 10)
        a[:] = 7
        b = ws.scratch("x", 10)
        assert b.base is a.base
        # Dirty on reuse: the old contents are still visible.
        assert (b == 7).all()

    def test_growth_reallocates_then_reuses(self):
        ws = KernelWorkspace()
        small = ws.scratch("x", 10)
        big = ws.scratch("x", 1000)
        assert len(big) == 1000 and big.base is not small.base
        again = ws.scratch("x", 500)
        assert again.base is big.base

    def test_dtype_change_reallocates(self):
        ws = KernelWorkspace()
        i = ws.scratch("x", 8, dtype=np.int64)
        f = ws.scratch("x", 8, dtype=np.float64)
        assert f.dtype == np.float64 and f.base is not i.base

    def test_scratch2d_fixed_cols(self):
        ws = KernelWorkspace()
        a = ws.scratch2d("m", 4, 3)
        assert a.shape == (4, 3)
        b = ws.scratch2d("m", 2, 3)
        assert b.base is a.base and b.shape == (2, 3)
        c = ws.scratch2d("m", 4, 5)  # column change => fresh buffer
        assert c.shape == (4, 5) and c.base is not a.base

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

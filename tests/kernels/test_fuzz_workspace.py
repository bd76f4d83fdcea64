"""Hypothesis fuzz: named scratch views never share storage.

The dense search band reuses *dirty* scratch buffers cycle after cycle,
with several names live at once; arbitrary resize sequences must never
make two names alias.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.kernel import KernelWorkspace


class TestLockStepFuzz:
    @given(
        sizes=st.lists(st.integers(1, 600), min_size=1, max_size=40),
        dtype_mix=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_scratch_views_never_alias_across_names(self, sizes, dtype_mix):
        """Distinct names stay distinct storage through arbitrary resize
        sequences — writes through one view never show through another."""
        ws = KernelWorkspace()
        for i, n in enumerate(sizes):
            a = ws.scratch("a", n)
            b = ws.scratch(
                "b", n, dtype=np.float64 if dtype_mix and i % 2 else np.int64
            )
            a[:] = 1
            b[:] = 2
            assert (a == 1).all() and (b == 2).all()
            iota = ws.iota(n)
            assert iota[0] == 0 and iota[-1] == n - 1

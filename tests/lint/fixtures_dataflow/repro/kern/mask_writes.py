"""R103 fixture: mask provenance for PE-indexed arena writes.

``bad_unmasked_write`` is the seeded unmasked-PE-write true positive.
``push_masked`` is only clean *interprocedurally*: its ``pes`` argument
carries mask provenance solely from the call site in ``driver.py`` —
linting this file alone must flag it, linting the package must not.

``bad_pe_axis_unmasked`` hides an unmasked PE axis behind a mask-derived
slot index further right; ``bad_loop_plane`` writes the arena through a
loop variable over ``self.planes``.  Their ``good_*`` twins mask the PE
axis, or loop over a local that is scratch rather than arena storage.
"""

import numpy as np


class TinyArena:
    def __init__(self, n_pes):
        self.tops = np.zeros(n_pes, dtype=np.int64)
        self.data = np.zeros((n_pes, 4), dtype=np.int64)
        self.planes = (self.data, np.zeros((n_pes, 4, 2), dtype=np.int64))

    def bad_unmasked_write(self, pes, vals):  # repro: kernel
        self.tops[pes] = vals

    def bad_pe_axis_unmasked(self, alive, vals):  # repro: kernel
        slots = self.tops[np.flatnonzero(alive)]
        self.data[np.arange(len(self.tops)), slots] = vals

    def good_pe_axis_masked(self, alive, vals):  # repro: kernel
        pes = np.flatnonzero(alive)
        self.data[pes, np.arange(len(pes)) % 4] = vals

    def bad_loop_plane(self, pes, vals):  # repro: kernel
        for plane, val in zip(self.planes, vals):
            plane[pes, 0] = val

    def good_loop_plane(self, alive, vals):  # repro: kernel
        pes = np.flatnonzero(alive)
        for plane in self.planes:
            plane[pes, 0] = vals

    def good_loop_local(self, pes, vals):  # repro: kernel
        for scratch in (np.zeros(4), np.zeros(4)):
            scratch[pes] = vals

    def push_masked(self, pes, vals):  # repro: kernel
        self.tops[pes] = vals

    def good_flatnonzero(self, alive, vals):  # repro: kernel
        pes = np.flatnonzero(alive)
        self.tops[pes] = vals[pes]

    def good_guarded(self, counts, pe, val):  # repro: kernel
        live = counts > 0
        if live[pe]:
            self.tops[pe] = val

    def good_full_slice(self):  # repro: kernel
        self.tops[:] = 0

    def good_documented(self, pes, vals):  # repro: kernel
        """Full-width setup write; every PE is reinitialized."""
        self.tops[pes] = vals

"""R102 fixture: kernel purity (PE loops, dtype drift, I/O).

One seeded violation per purity clause, plus near-misses that look
similar but are allowed: a bounded (non-PE-axis) loop, an int64 array,
and the same PE loop in an unmarked method.
"""

import numpy as np


class KernelArena:
    def bad_pe_loop(self, vals):  # repro: kernel
        total = 0
        for pe in range(self.n_pes):
            total += vals[pe]
        return total

    def bad_object_dtype(self, n):  # repro: kernel
        return np.empty(n, dtype=object)

    def bad_float_drift(self, tops):  # repro: kernel
        return tops.astype(np.float64)

    def bad_io(self, report):  # repro: kernel
        print(report)

    def near_miss_bounded_loop(self, k):  # repro: kernel
        return [i * i for i in range(k)]

    def near_miss_int64(self, n):  # repro: kernel
        return np.zeros(n, dtype=np.int64)

    def near_miss_unmarked(self, vals):
        total = 0
        for pe in range(self.n_pes):
            total += vals[pe]
        return total

"""Tree-search substrate: serial and SIMD-parallel depth-first search.

- :mod:`repro.search.problem` — the search-problem protocol (root node +
  successor generator + goal test + admissible heuristic).
- :mod:`repro.search.stack` — the DFS stack of untried alternatives, with
  the bottom-of-stack split used for work donation (Section 5).
- :mod:`repro.search.serial` — serial depth-first / depth-bounded search.
- :mod:`repro.search.ida_star` — serial IDA* (Korf [15]) finding all
  solutions up to the final bound, the paper's speedup-anomaly-free setup.
- :mod:`repro.search.parallel` — the real-stacks SIMD workload (a
  ``repro.simd.arena.WindowArena`` when the problem has a vectorizable
  view, per-PE ``DFSStack`` objects otherwise) and the parallel IDA*
  driver built on the core scheduler.
- :mod:`repro.search.kernel` — the arena storage's expand-cycle kernel.
- :mod:`repro.search.branch_and_bound` — Depth-First Branch and Bound
  (the other depth-first family of Section 2), serial and SIMD-parallel
  with lock-step incumbent broadcasting.
"""

from repro.search.problem import SearchProblem
from repro.search.stack import DFSStack, StackEntry
from repro.search.serial import depth_bounded_dfs, SerialSearchResult
from repro.search.ida_star import ida_star, IDAStarResult
from repro.search.parallel import (
    SearchWorkload,
    ParallelIDAStar,
    ParallelSearchResult,
    parallel_depth_bounded,
)
from repro.search.branch_and_bound import (
    BnBProblem,
    BnBWorkload,
    ParallelDFBB,
    ParallelBnBResult,
    SerialBnBResult,
    serial_dfbb,
)

__all__ = [
    "parallel_depth_bounded",
    "BnBProblem",
    "BnBWorkload",
    "ParallelDFBB",
    "ParallelBnBResult",
    "SerialBnBResult",
    "serial_dfbb",
    "SearchProblem",
    "DFSStack",
    "StackEntry",
    "depth_bounded_dfs",
    "SerialSearchResult",
    "ida_star",
    "IDAStarResult",
    "SearchWorkload",
    "ParallelIDAStar",
    "ParallelSearchResult",
]

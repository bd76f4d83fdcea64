"""The workload protocol the scheduler drives.

A *workload* is the state of the search space distributed over the PEs.
Three implementations exist at different fidelities:

- :class:`repro.workmodel.divisible.DivisibleWorkload` — vectorized
  alpha-splittable work counts (the model of the paper's analysis, runs at
  full paper scale).
- :class:`repro.workmodel.stackmodel.StackWorkload` — per-PE stacks of
  pending subtree sizes with bottom-of-stack donation.
- :class:`repro.search.parallel.SearchWorkload` — real DFS stacks over a
  real problem (15-puzzle IDA*, N-queens, ...).

The scheduler only sees this protocol, so every matching/triggering scheme
runs unchanged against all three.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["Workload"]


@runtime_checkable
class Workload(Protocol):
    """State of the distributed search space, as seen by the scheduler.

    Terminology (Section 2): a PE is **busy** if it can split its work into
    two non-empty parts — i.e. it holds at least two stack nodes.  A PE is
    **idle** if it holds no work at all and should receive some.  A PE with
    exactly one node expands but neither donates nor receives.

    Implementations may cache the masks between mutations (the scheduler
    reads them several times per lock-step cycle); callers that mutate
    workload state outside ``expand_cycle``/``transfer`` must use the
    implementation's invalidation hook before re-reading masks.
    """

    n_pes: int

    def expanding_mask(self) -> np.ndarray:
        """Boolean mask of PEs that will expand a node this cycle."""
        ...

    def busy_mask(self) -> np.ndarray:
        """Boolean mask of PEs holding >= 2 nodes (able to donate)."""
        ...

    def idle_mask(self) -> np.ndarray:
        """Boolean mask of PEs holding no work (eligible to receive)."""
        ...

    def expand_cycle(self) -> int:
        """Perform one lock-step node-expansion cycle.

        Returns the number of PEs that expanded a node (equivalently, the
        number of tree nodes expanded this cycle).
        """
        ...

    def transfer(self, donors: np.ndarray, receivers: np.ndarray) -> int:
        """Split each donor's work and hand one part to its receiver.

        Returns the number of transfers actually performed (a donor that
        lost its donatable work since matching may decline).
        """
        ...

    def done(self) -> bool:
        """True when the entire search space is exhausted."""
        ...

    def total_expanded(self) -> int:
        """Total tree nodes expanded so far (the realized W)."""
        ...

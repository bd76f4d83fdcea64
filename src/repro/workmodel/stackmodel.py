"""Stack-structured synthetic workload (mid-fidelity model).

Each PE holds a DFS stack of *pending subtree sizes*.  Expanding the top
entry consumes its root node and pushes the child subtrees, whose sizes
are drawn by recursive stick-breaking — producing the highly irregular
trees the paper targets.  Donation removes the entry at the **bottom** of
the stack (nearest the root), exactly the 15-puzzle policy of Section 5.

Unlike :class:`~repro.workmodel.divisible.DivisibleWorkload`, splittability
here depends on stack *composition*: a PE whose stack holds one huge
subtree is not busy (cannot split) even though it has lots of work — the
situation that makes D_P fail (Section 6.1, observation 2).

All stacks live in one flat int64 array with top/bottom pointers
(:class:`~repro.workmodel.arena.StackArena`), the data-parallel form of
the paper's P lock-step PEs: a cycle pops, draws and pushes for every
expanding PE in a handful of full-width kernels, and all of a cycle's
child sizes come from one
:func:`~repro.workmodel.arena.draw_children_batch` call.  A
deque-per-PE reference on the same RNG stream lives test-side
(``tests/oracles``); the identity suites diff this workload against
it.

Busy/idle/expanding masks derive from one cached per-PE entry count,
invalidated on every mutation, so a scheduler cycle that reads all three
masks (trigger, sanitizer, matcher) pays for a single counts pass.
"""

from __future__ import annotations

import numpy as np

from repro.obs.profile import span
from repro.util.rng import as_generator
from repro.util.validation import check_positive_int
from repro.workmodel.arena import StackArena, draw_children_batch

__all__ = ["StackWorkload"]


class StackWorkload:
    """Per-PE stacks of pending subtree sizes with stick-breaking growth.

    Parameters
    ----------
    total_work:
        ``W`` — total nodes in the synthetic tree.
    n_pes:
        ``P``.
    max_branching:
        Maximum children per expanded node.
    leaf_probability:
        Chance that an expansion of a subtree yields a single child chain
        step instead of a fan-out — raises depth/irregularity.
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        total_work: int,
        n_pes: int,
        *,
        max_branching: int = 4,
        leaf_probability: float = 0.0,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.total_work = check_positive_int(total_work, "total_work")
        self.n_pes = check_positive_int(n_pes, "n_pes")
        self.max_branching = check_positive_int(max_branching, "max_branching")
        if not 0.0 <= leaf_probability < 1.0:
            raise ValueError(
                f"leaf_probability must be in [0, 1), got {leaf_probability}"
            )
        self.leaf_probability = leaf_probability
        self.rng = as_generator(rng)

        # The root subtree (the whole tree) starts on PE 0.
        self._arena = StackArena(n_pes)
        self._arena.push_root(0, total_work)
        self._expanded = 0
        self._cached_counts: np.ndarray | None = None

    # -- storage views -----------------------------------------------------

    @property
    def stacks(self) -> list[list[int]]:
        """A plain-list *snapshot* of the per-PE stacks, bottom to top;
        mutating it does not touch the arena."""
        return self._arena.to_lists()

    def invalidate_masks(self) -> None:
        """Drop the cached per-PE counts."""
        self._cached_counts = None

    # -- Workload protocol ------------------------------------------------

    def _counts(self) -> np.ndarray:
        """Per-PE pending-entry counts, cached until the next mutation."""
        if self._cached_counts is None:
            self._cached_counts = self._arena.counts()
        return self._cached_counts

    def expanding_mask(self) -> np.ndarray:
        return self._counts() > 0

    def busy_mask(self) -> np.ndarray:
        """Busy = at least two stack nodes (Section 2): one to keep
        expanding, one to give away."""
        return self._counts() >= 2

    def idle_mask(self) -> np.ndarray:
        return self._counts() == 0

    def expand_cycle(self) -> int:
        with span("expand.stack.arena"):
            return self._expand_cycle_arena_inner()

    def _expand_cycle_arena_inner(self) -> int:  # repro: kernel
        # Selects the expanding PEs itself (flatnonzero of the non-empty
        # mask); the arena methods it calls are full-width kernels.
        arena = self._arena
        pes = np.flatnonzero(self._counts() > 0)
        n = len(pes)
        if n == 0:
            return 0
        self._cached_counts = None
        self._expanded += n
        sizes = arena.pop_tops(pes)
        lens, flat = draw_children_batch(
            self.rng, sizes, self.max_branching, self.leaf_probability
        )
        arena.push_segments(pes, lens, flat)
        arena.reset_empty_windows()
        return n

    def transfer(self, donors: np.ndarray, receivers: np.ndarray) -> int:
        """Donate the node at the bottom of each donor's stack (nearest
        the root — typically the largest pending subtree)."""
        donors = np.asarray(donors, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        if donors.shape != receivers.shape:
            raise ValueError("donors and receivers must pair one-to-one")
        if len(donors) == 0:
            return 0
        self._cached_counts = None
        counts = self._arena.counts()
        valid = (counts[donors] >= 2) & (counts[receivers] == 0)
        donors = donors[valid]
        receivers = receivers[valid]
        if len(donors):
            self._arena.donate_bottoms(donors, receivers)
        return int(len(donors))

    def done(self) -> bool:
        return self._expanded >= self.total_work

    def total_expanded(self) -> int:
        return self._expanded

    def extract_pe(self, pe: int) -> tuple[tuple[int, ...], int]:
        """Quarantine PE ``pe``'s whole stack (bottom -> top order) as an
        immutable snapshot :meth:`inject_pe` accepts."""
        self._cached_counts = None
        values = tuple(int(v) for v in self._arena.extract_window(pe))
        return values, len(values)

    def inject_pe(self, pe: int, payload: tuple[int, ...]) -> int:
        """Append a quarantined stack snapshot onto PE ``pe``."""
        values = tuple(payload)
        if not values:
            return 0
        self._cached_counts = None
        return self._arena.inject_window(pe, np.asarray(values, dtype=np.int64))

    # -- Introspection -----------------------------------------------------

    def total_remaining(self) -> int:
        return self._arena.total_pending()

    def check_conservation(self) -> bool:
        """Expanded + pending subtree sizes == W at all times."""
        return self._expanded + self.total_remaining() == self.total_work

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

All stacks live in one int64 plane of a
:class:`~repro.simd.arena.WindowArena`, the data-parallel form of the
paper's P lock-step PEs: a cycle pops, draws and pushes for every
expanding PE in a handful of full-width kernels, and all of a cycle's
child sizes come from one :func:`draw_children_batch` call.  A
deque-per-PE reference on the same RNG stream lives test-side
(``tests/oracles``) and routes its draws through the same function; the
identity suites diff this workload against it.

Busy/idle/expanding masks derive from one cached per-PE entry count,
invalidated on every mutation, so a scheduler cycle that reads all three
masks (trigger, sanitizer, matcher) pays for a single counts pass.
"""

from __future__ import annotations

import numpy as np

from repro.obs.profile import span
from repro.simd.arena import WindowArena
from repro.util.rng import as_generator
from repro.util.validation import check_positive_int

__all__ = ["StackWorkload", "draw_children_batch"]


def draw_children_batch(
    rng: np.random.Generator,
    sizes: np.ndarray,
    max_branching: int,
    leaf_probability: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw children for one cycle's popped subtree sizes, batched.

    For every entry ``i`` the ``sizes[i] - 1`` nodes remaining below the
    expanded root are partitioned into at most ``max_branching`` child
    subtrees by stick-breaking: a Dirichlet weight vector followed by a
    multinomial split (zero-sized parts are dropped).  With probability
    ``leaf_probability`` an entry instead yields a single chain child.

    The RNG call sequence is fixed and depends only on ``sizes`` and the
    parameters — one uniform batch (if ``leaf_probability > 0``), one
    branching-factor batch, then one Dirichlet + one multinomial batch
    per branching-factor group in ascending order — so any two callers
    with equal generator state and equal inputs consume identical
    streams and produce identical children.

    Returns
    -------
    (lens, flat):
        ``lens[i]`` is entry ``i``'s child count; the children of entry
        ``i`` are ``flat[lens[:i].sum() : lens[:i].sum() + lens[i]]`` in
        push order (CSR layout, zeros already dropped).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n = len(sizes)
    rest = sizes - 1
    parts = np.zeros((n, max_branching), dtype=np.int64)
    active = np.flatnonzero(rest > 0)
    if len(active):
        if leaf_probability:
            leaf = rng.random(len(active)) < leaf_probability
        else:
            leaf = np.zeros(len(active), dtype=bool)
        chain = active[leaf]
        parts[chain, 0] = rest[chain]
        nonleaf = active[~leaf]
        if len(nonleaf):
            b = rng.integers(1, max_branching + 1, size=len(nonleaf))
            b = np.minimum(b, rest[nonleaf])
            single = nonleaf[b == 1]
            parts[single, 0] = rest[single]
            for bv in range(2, max_branching + 1):
                idx = nonleaf[b == bv]
                if len(idx) == 0:
                    continue
                weights = rng.dirichlet(np.ones(bv), size=len(idx))
                parts[idx, :bv] = rng.multinomial(rest[idx], weights)
    live = parts > 0
    # Row-major boolean indexing keeps each entry's children in push order.
    return live.sum(axis=1, dtype=np.int64), parts[live]


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
        self._arena = WindowArena(self.n_pes, (((), np.int64),), capacity=32)
        self._arena.push_root(0, total_work)
        self._expanded = 0
        self._cached_counts: np.ndarray | None = None

    # -- storage views -----------------------------------------------------

    @property
    def stacks(self) -> list[list[int]]:
        """A plain-list *snapshot* of the per-PE stacks, bottom to top;
        mutating it does not touch the arena."""
        return [self._arena.window(pe)[0].tolist() for pe in range(self.n_pes)]

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
        (sizes,) = arena.pop_tops(pes)
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
        (window,) = self._arena.extract_window(pe)
        values = tuple(int(v) for v in window)
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
        """Sum of all pending subtree sizes (the conservation RHS)."""
        arena = self._arena
        slots = np.arange(arena.capacity, dtype=np.int64)
        live = (slots >= arena.bottom[:, None]) & (slots < arena.top[:, None])
        return int(arena.planes[0][live].sum())

    def check_conservation(self) -> bool:
        """Expanded + pending subtree sizes == W at all times."""
        return self._expanded + self.total_remaining() == self.total_work

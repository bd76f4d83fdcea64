"""The deque-per-PE stack model: one Python loop per lock-step cycle.

Simple and transparent, which is the point — every step is a deque
``pop``/``extend``/``popleft``.  All of a cycle's child sizes come from
one :func:`~repro.workmodel.stackmodel.draw_children_batch` call, the same
call sequence ``StackWorkload``'s kernels make, so the two consume one
RNG stream and must agree exactly.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.util.rng import as_generator
from repro.workmodel.stackmodel import draw_children_batch

__all__ = ["ListStackWorkload"]


class ListStackWorkload:
    """``StackWorkload``'s constructor and Workload protocol over
    ``stacks``, a live list of deques (bottom at the left)."""

    def __init__(
        self,
        total_work: int,
        n_pes: int,
        *,
        max_branching: int = 4,
        leaf_probability: float = 0.0,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.total_work = total_work
        self.n_pes = n_pes
        self.max_branching = max_branching
        self.leaf_probability = leaf_probability
        self.rng = as_generator(rng)
        self.stacks: list[deque[int]] = [deque() for _ in range(n_pes)]
        self.stacks[0].append(total_work)
        self._expanded = 0

    def invalidate_masks(self) -> None:
        """Nothing is cached: counts are recomputed on every read."""

    def _counts(self) -> np.ndarray:
        return np.fromiter(
            (len(s) for s in self.stacks), dtype=np.int64, count=self.n_pes
        )

    def expanding_mask(self) -> np.ndarray:
        return self._counts() > 0

    def busy_mask(self) -> np.ndarray:
        return self._counts() >= 2

    def idle_mask(self) -> np.ndarray:
        return self._counts() == 0

    def expand_cycle(self) -> int:
        stacks = self.stacks
        pes = [p for p, stack in enumerate(stacks) if stack]
        if not pes:
            return 0
        sizes = np.fromiter(
            (stacks[p].pop() for p in pes), dtype=np.int64, count=len(pes)
        )
        self._expanded += len(pes)
        lens, flat = draw_children_batch(
            self.rng, sizes, self.max_branching, self.leaf_probability
        )
        children = flat.tolist()
        offset = 0
        for p, ln in zip(pes, lens.tolist()):
            stacks[p].extend(children[offset : offset + ln])
            offset += ln
        return len(pes)

    def transfer(self, donors: np.ndarray, receivers: np.ndarray) -> int:
        donors = np.asarray(donors, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        if donors.shape != receivers.shape:
            raise ValueError("donors and receivers must pair one-to-one")
        stacks = self.stacks
        moved = 0
        for d, r in zip(donors.tolist(), receivers.tolist()):
            if len(stacks[d]) < 2 or stacks[r]:
                continue
            stacks[r].append(stacks[d].popleft())
            moved += 1
        return moved

    def done(self) -> bool:
        return self._expanded >= self.total_work

    def total_expanded(self) -> int:
        return self._expanded

    def extract_pe(self, pe: int) -> tuple[tuple[int, ...], int]:
        values = tuple(self.stacks[pe])
        self.stacks[pe].clear()
        return values, len(values)

    def inject_pe(self, pe: int, payload: tuple[int, ...]) -> int:
        self.stacks[pe].extend(payload)
        return len(payload)

    def total_remaining(self) -> int:
        return sum(sum(s) for s in self.stacks)

    def check_conservation(self) -> bool:
        return self._expanded + self.total_remaining() == self.total_work

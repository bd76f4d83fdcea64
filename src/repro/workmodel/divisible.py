"""The divisible (alpha-splittable) work model — Section 3's abstraction.

Each PE holds an integer count of unexpanded tree nodes.  One lock-step
cycle expands one node on every non-empty PE; a transfer splits a donor's
count with an :class:`~repro.core.splitting.WorkSplitter`.  This is exactly
the model under which the paper derives every bound (alpha-splitting,
V(P)·log W transfers, Equation 18), so the simulated N_expand / N_lb / E
land in the regime of Tables 2-5 at the paper's own P and W.

Everything is vectorized: a cycle is O(P) numpy work, and a full
paper-scale run (P = 8192, W = 1.6e7, ~3000 cycles) takes well under a
second.

Nothing is cached between mutations: a mask is one comparison over
``work``, cheaper than the dictionary that used to memoise it, and a
scheduler cycle reads one (the busy count) unless it balances.  Code may
write ``work`` directly; :meth:`DivisibleWorkload.invalidate_masks` is
the protocol's no-op here.
"""

from __future__ import annotations

import numpy as np

from repro.core.splitting import AlphaSplitter, WorkSplitter
from repro.util.rng import as_generator
from repro.util.validation import check_positive_int

__all__ = ["DivisibleWorkload"]


class DivisibleWorkload:
    """Alpha-splittable work counts distributed over ``n_pes`` processors.

    Parameters
    ----------
    total_work:
        ``W`` — total tree nodes to expand.
    n_pes:
        ``P``.
    splitter:
        Donation policy; defaults to uniform alpha in ``[0.1, 0.5]``.
    initial:
        ``"root"`` places all work on PE 0 (the paper's setting: the root
        node is given to one processor); ``"uniform"`` spreads it evenly
        (useful for isolating steady-state behaviour in tests).
    rng:
        Seed or generator for the splitter's fractions.
    """

    def __init__(
        self,
        total_work: int,
        n_pes: int,
        *,
        splitter: WorkSplitter | None = None,
        initial: str = "root",
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.total_work = check_positive_int(total_work, "total_work")
        self.n_pes = check_positive_int(n_pes, "n_pes")
        self.splitter = splitter if splitter is not None else AlphaSplitter()
        self.rng = as_generator(rng)

        self.work = np.zeros(n_pes, dtype=np.int64)
        if initial == "root":
            self.work[0] = total_work
        elif initial == "uniform":
            base, extra = divmod(total_work, n_pes)
            self.work[:] = base
            self.work[:extra] += 1
        else:
            raise ValueError(f"initial must be 'root' or 'uniform', got {initial!r}")
        self._expanded = 0

    # -- Workload protocol ------------------------------------------------

    def invalidate_masks(self) -> None:
        """Nothing to drop: every mask is computed on read."""

    def expanding_mask(self) -> np.ndarray:
        """PEs holding at least one node expand every cycle."""
        return self.work > 0

    def busy_mask(self) -> np.ndarray:
        """PEs with >= 2 nodes can split (Section 2's busy definition)."""
        return self.work >= 2

    def idle_mask(self) -> np.ndarray:
        """PEs with no work receive during LB phases."""
        return self.work == 0

    def expand_cycle(self) -> int:
        active = self.work > 0
        n = int(np.count_nonzero(active))
        self.work -= active
        self._expanded += n
        return n

    def transfer(self, donors: np.ndarray, receivers: np.ndarray) -> int:
        donors = np.asarray(donors, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        if donors.shape != receivers.shape:
            raise ValueError("donors and receivers must pair one-to-one")
        work = self.work
        held = work[donors]
        # Matching pairs busy donors with idle receivers and nothing
        # expands in between, so this only guards against caller misuse.
        valid = held >= 2
        if not valid.all():
            donors, receivers, held = donors[valid], receivers[valid], held[valid]
        if len(donors) == 0:
            return 0
        give = self.splitter.donation(held, self.rng)
        work[donors] = held - give
        work[receivers] += give
        return len(donors)

    def done(self) -> bool:
        return self._expanded >= self.total_work

    def total_expanded(self) -> int:
        return self._expanded

    # -- Introspection -----------------------------------------------------

    def total_remaining(self) -> int:
        """Unexpanded nodes across all PEs (conservation invariant)."""
        return int(self.work.sum())

    def check_conservation(self) -> bool:
        """``expanded + remaining == W`` must hold at every instant."""
        return self._expanded + self.total_remaining() == self.total_work

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

The busy/idle/expanding masks are cached between mutations: one scheduler
cycle reads them up to six times (trigger state, sanitizer, matcher), and
each used to pay a fresh O(P) comparison.  Code that writes ``work``
directly (tests, profiles) must call :meth:`DivisibleWorkload.invalidate_masks`
before re-reading masks it has already read.
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
        self._mask_cache: dict[str, np.ndarray] = {}

    # -- Workload protocol ------------------------------------------------

    def invalidate_masks(self) -> None:
        """Drop cached masks after writing ``work`` directly."""
        self._mask_cache.clear()

    def _mask(self, kind: str) -> np.ndarray:
        mask = self._mask_cache.get(kind)
        if mask is None:
            if kind == "expanding":
                mask = self.work > 0
            elif kind == "busy":
                mask = self.work >= 2
            else:
                mask = self.work == 0
            self._mask_cache[kind] = mask
        return mask

    def expanding_mask(self) -> np.ndarray:
        """PEs holding at least one node expand every cycle."""
        return self._mask("expanding")

    def busy_mask(self) -> np.ndarray:
        """PEs with >= 2 nodes can split (Section 2's busy definition)."""
        return self._mask("busy")

    def idle_mask(self) -> np.ndarray:
        """PEs with no work receive during LB phases."""
        return self._mask("idle")

    def expand_cycle(self) -> int:
        active = self._mask("expanding")
        n = int(active.sum())
        self._mask_cache = {}
        if n:
            np.subtract(self.work, 1, out=self.work, where=active)
            self._expanded += n
        return n

    def transfer(self, donors: np.ndarray, receivers: np.ndarray) -> int:
        donors = np.asarray(donors, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        if donors.shape != receivers.shape:
            raise ValueError("donors and receivers must pair one-to-one")
        if len(donors) == 0:
            return 0
        self._mask_cache = {}
        # Matching guarantees donors were busy and receivers idle when the
        # masks were read; nothing expands between matching and transfer,
        # so this only guards against caller misuse.
        valid = self.work[donors] >= 2
        donors = donors[valid]
        receivers = receivers[valid]
        if len(donors) == 0:
            return 0
        give = self.splitter.donation(self.work[donors], self.rng)
        self.work[donors] -= give
        self.work[receivers] += give
        return int(len(donors))

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

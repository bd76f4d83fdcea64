"""Idle/busy matching schemes (Section 2).

Both schemes enumerate the idle and the busy processors with sum-scans and
pair equal ranks via rendezvous allocation.  They differ only in where the
busy enumeration *starts*:

- **nGP** (prior art, Powley/Korf/Ferguson and Mahanti/Daniels): always
  from processor 0.  Busy processors early in the machine order bear the
  donation burden repeatedly, which drives the Appendix B bound
  ``V(P) <= (log W)^{(2x-1)/(1-x)}``.
- **GP** (the paper's new scheme): from the first busy processor *after* a
  *global pointer* that remembers the last donor of the previous phase,
  wrapping around.  This rotates the burden, giving the much stronger
  worst case ``V(P) = ceil(1/(1-x))``.

Figure 2's worked example is reproduced verbatim in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# repro-lint: disable-file=R004 -- the matchers ARE the machine-level
# implementation of the LB phase: every scan they perform is priced into the
# ledger by the scheduler through Matcher.setup_scans, so calling the scan
# primitives directly here does not bypass cost accounting.
from repro.simd.scan import enumerate_mask, rendezvous

__all__ = ["MatchResult", "Matcher", "NGPMatcher", "GPMatcher"]


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one matching step.

    Attributes
    ----------
    donors / receivers:
        Equal-length index arrays; ``donors[r]`` gives work to
        ``receivers[r]``.
    busy_ranks:
        The enumeration assigned to busy PEs (``-1`` for non-busy) — kept
        for introspection and the Figure 2 walkthrough.
    idle_ranks:
        Likewise for idle PEs.
    """

    donors: np.ndarray
    receivers: np.ndarray
    busy_ranks: np.ndarray
    idle_ranks: np.ndarray

    def __len__(self) -> int:
        return len(self.donors)


class Matcher:
    """Base matching scheme.

    Subclasses implement :meth:`match`.  ``setup_scans`` is the number of
    sum-scan operations the scheme's setup step costs on the machine
    (Section 3.3: GP pays extra bookkeeping scans for the pointer).
    """

    name: str = "abstract"
    setup_scans: int = 2

    def match(self, busy: np.ndarray, idle: np.ndarray) -> MatchResult:
        """Pair busy donors with idle receivers for one transfer round."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any cross-phase state (the GP pointer)."""

    @staticmethod
    def _validate(busy: np.ndarray, idle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        busy = np.asarray(busy, dtype=bool)
        idle = np.asarray(idle, dtype=bool)
        if busy.shape != idle.shape or busy.ndim != 1:
            raise ValueError("busy and idle must be equal-length 1-D masks")
        if np.any(busy & idle):
            raise ValueError("a processor cannot be both busy and idle")
        return busy, idle


class NGPMatcher(Matcher):
    """The no-global-pointer scheme: enumerate busy PEs from processor 0."""

    name = "nGP"
    setup_scans = 2

    def match(self, busy: np.ndarray, idle: np.ndarray) -> MatchResult:
        busy, idle = self._validate(busy, idle)
        donors, receivers = rendezvous(idle, busy)
        return MatchResult(
            donors=donors,
            receivers=receivers,
            busy_ranks=enumerate_mask(busy),
            idle_ranks=enumerate_mask(idle),
        )


@dataclass
class GPMatcher(Matcher):
    """The global-pointer scheme (the paper's new matching algorithm).

    ``pointer`` holds the index of the last processor that donated work; a
    fresh matcher starts with the pointer on the last processor so that the
    first enumeration begins at processor 0, matching nGP's first phase.

    After each :meth:`match`, the pointer advances to the last donor
    (Section 2.2: "advance the global pointer to processor 1" in the
    Figure 2 example).  ``advance`` selects ablation variants:

    - ``"last_donor"`` — the paper's policy (full rotation speed);
    - ``"first_donor"`` — advance only past the first donor (slower
      rotation: with k pairs per phase, takes k times as many phases to
      cover the busy set);
    - ``"frozen"`` — never advance (degenerates to an offset nGP).
    """

    pointer: int | None = None
    advance: str = "last_donor"
    name: str = field(default="GP", init=False)
    setup_scans: int = field(default=3, init=False)

    def __post_init__(self) -> None:
        if self.advance not in ("last_donor", "first_donor", "frozen"):
            raise ValueError(
                "advance must be 'last_donor', 'first_donor' or 'frozen', "
                f"got {self.advance!r}"
            )

    def reset(self) -> None:
        self.pointer = None

    def rotated_busy_order(self, busy: np.ndarray) -> np.ndarray:
        """Busy indices ordered starting after the global pointer, wrapped."""
        busy_idx = np.flatnonzero(busy)
        if self.pointer is None or len(busy_idx) == 0:
            return busy_idx
        # First busy processor strictly after the pointer, wrapping around.
        start = int(np.searchsorted(busy_idx, self.pointer, side="right"))
        if start >= len(busy_idx):
            start = 0
        return np.concatenate([busy_idx[start:], busy_idx[:start]])

    def match(self, busy: np.ndarray, idle: np.ndarray) -> MatchResult:
        busy, idle = self._validate(busy, idle)
        order = self.rotated_busy_order(busy)
        donors, receivers = rendezvous(idle, busy, grantor_order=order)
        if len(donors) > 0:
            if self.advance == "last_donor":
                self.pointer = int(donors[-1])
            elif self.advance == "first_donor":
                self.pointer = int(donors[0])
            # "frozen": leave the pointer untouched.
        busy_ranks = np.full(len(busy), -1, dtype=np.int64)
        if len(order) > 0:
            busy_ranks[order] = np.arange(len(order))
        return MatchResult(
            donors=donors,
            receivers=receivers,
            busy_ranks=busy_ranks,
            idle_ranks=enumerate_mask(idle),
        )

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

There is one pairing implementation, :meth:`Matcher.pair`, on the index
arrays of the busy and idle sets (the PE indices a sum-scan enumerates, in
rank order).  :meth:`Matcher.match` is the validated mask form around it.
Figure 2's worked example is reproduced verbatim in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# The matchers ARE the machine-level implementation of the LB phase: every
# scan they perform is priced into the ledger by the scheduler through
# Matcher.setup_scans, so calling the scan primitives directly here does not
# bypass cost accounting.
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
    busy / idle:
        The validated masks the step matched.
    start:
        The busy rank (in PE order) the enumeration began at: 0 for nGP,
        the GP pointer's rotation otherwise.
    busy_ranks:
        The enumeration assigned to busy PEs (``-1`` for non-busy) — kept
        for introspection and the Figure 2 walkthrough; computed on first
        read.
    idle_ranks:
        Likewise for idle PEs.
    """

    donors: np.ndarray
    receivers: np.ndarray
    busy: np.ndarray = field(repr=False)
    idle: np.ndarray = field(repr=False)
    start: int = 0

    def __len__(self) -> int:
        return len(self.donors)

    @cached_property
    def busy_ranks(self) -> np.ndarray:
        ranks = enumerate_mask(self.busy)
        if self.start:
            ranks[self.busy] = (ranks[self.busy] - self.start) % int(self.busy.sum())
        return ranks

    @cached_property
    def idle_ranks(self) -> np.ndarray:
        return enumerate_mask(self.idle)


class Matcher:
    """Base matching scheme.

    Subclasses choose where the busy enumeration starts (:meth:`_start`)
    and what a round leaves behind for the next (:meth:`_advance`).
    ``setup_scans`` is the number of sum-scan operations the scheme's
    setup step costs on the machine (Section 3.3: GP pays extra
    bookkeeping scans for the pointer).
    """

    name: str = "abstract"
    setup_scans: int = 2

    def pair(
        self, busy_idx: np.ndarray, idle_idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pair busy donors with idle receivers for one transfer round.

        ``busy_idx`` / ``idle_idx`` are the ascending PE indices of the
        two (disjoint) sets — ``np.flatnonzero`` of the masks; they are
        not checked.  Returns ``(donors, receivers)`` of length
        ``min(#busy, #idle)``, which may be views of the inputs.
        """
        return self._pair(busy_idx, self._start(busy_idx), idle_idx)

    def match(self, busy: np.ndarray, idle: np.ndarray) -> MatchResult:
        """:meth:`pair` on validated ``busy`` / ``idle`` masks."""
        busy = np.asarray(busy, dtype=bool)
        idle = np.asarray(idle, dtype=bool)
        if busy.shape != idle.shape or busy.ndim != 1:
            raise ValueError("busy and idle must be equal-length 1-D masks")
        if (busy & idle).any():
            raise ValueError("a processor cannot be both busy and idle")
        busy_idx = busy.nonzero()[0]
        start = self._start(busy_idx)
        donors, receivers = self._pair(busy_idx, start, idle.nonzero()[0])
        return MatchResult(donors, receivers, busy, idle, start)

    def reset(self) -> None:
        """Clear any cross-phase state (the GP pointer)."""

    def _start(self, busy_idx: np.ndarray) -> int:
        """Busy rank at which this round's enumeration begins."""
        return 0

    def _advance(self, donors: np.ndarray) -> None:
        """Update cross-phase state after a round that paired ``donors``."""

    def _pair(
        self, busy_idx: np.ndarray, start: int, idle_idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        order = (
            np.concatenate((busy_idx[start:], busy_idx[:start])) if start else busy_idx
        )
        donors, receivers = rendezvous(idle_idx, order)
        if len(donors):
            self._advance(donors)
        return donors, receivers


class NGPMatcher(Matcher):
    """The no-global-pointer scheme: enumerate busy PEs from processor 0."""

    name = "nGP"
    setup_scans = 2


@dataclass
class GPMatcher(Matcher):
    """The global-pointer scheme (the paper's new matching algorithm).

    ``pointer`` holds the index of the last processor that donated work; a
    fresh matcher starts with no pointer, so the first enumeration begins
    at processor 0, matching nGP's first phase.  Each round starts at the
    first busy processor strictly after the pointer, wrapping around.

    After each round the pointer advances to the last donor (Section 2.2:
    "advance the global pointer to processor 1" in the Figure 2 example).
    ``advance`` selects ablation variants:

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

    def _start(self, busy_idx: np.ndarray) -> int:
        if self.pointer is None:
            return 0
        start = int(busy_idx.searchsorted(self.pointer, side="right"))
        return start if start < len(busy_idx) else 0

    def _advance(self, donors: np.ndarray) -> None:
        if self.advance == "last_donor":
            self.pointer = int(donors[-1])
        elif self.advance == "first_donor":
            self.pointer = int(donors[0])
        # "frozen": leave the pointer untouched.

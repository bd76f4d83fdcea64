"""The mask-validated, rendezvous-based GP/nGP matchers — the reference
``Matcher.pair`` and ``Matcher.match`` are diffed against.

This is the matching step as the serial ``Scheduler`` first ran it: both
sets enumerated by sum-scans over the masks, GP's rotated busy order built
in full and checked to be a permutation of the busy set before the
rendezvous pairs rank ``r`` with rank ``r``.  Slow on purpose: every step
is explicit and validated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simd.scan import enumerate_mask

__all__ = ["OracleMatch", "RendezvousNGPMatcher", "RendezvousGPMatcher"]


def mask_rendezvous(
    requesters: np.ndarray,
    grantors: np.ndarray,
    *,
    grantor_order: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pair requester and grantor masks by rank; ``grantor_order``, when
    given, must be a permutation of the grantor set."""
    requesters = np.asarray(requesters, dtype=bool)
    grantors = np.asarray(grantors, dtype=bool)
    if requesters.shape != grantors.shape:
        raise ValueError("requesters and grantors must have the same shape")
    if np.any(requesters & grantors):
        raise ValueError("a processor cannot be both requester and grantor")
    receiver_indices = np.flatnonzero(requesters)
    if grantor_order is not None:
        donor_indices = np.asarray(grantor_order, dtype=np.int64)
        expected = np.flatnonzero(grantors)
        if len(donor_indices) != len(expected) or not np.array_equal(
            np.sort(donor_indices), expected
        ):
            raise ValueError("grantor_order must be a permutation of the grantor set")
    else:
        donor_indices = np.flatnonzero(grantors)
    k = min(len(donor_indices), len(receiver_indices))
    return donor_indices[:k].copy(), receiver_indices[:k].copy()


@dataclass(frozen=True)
class OracleMatch:
    donors: np.ndarray
    receivers: np.ndarray
    busy_ranks: np.ndarray
    idle_ranks: np.ndarray


def _validate(busy, idle) -> tuple[np.ndarray, np.ndarray]:
    busy = np.asarray(busy, dtype=bool)
    idle = np.asarray(idle, dtype=bool)
    if busy.shape != idle.shape or busy.ndim != 1:
        raise ValueError("busy and idle must be equal-length 1-D masks")
    if np.any(busy & idle):
        raise ValueError("a processor cannot be both busy and idle")
    return busy, idle


class RendezvousNGPMatcher:
    """nGP: enumerate busy PEs from processor 0."""

    def match(self, busy, idle) -> OracleMatch:
        busy, idle = _validate(busy, idle)
        donors, receivers = mask_rendezvous(idle, busy)
        return OracleMatch(donors, receivers, enumerate_mask(busy), enumerate_mask(idle))


@dataclass
class RendezvousGPMatcher:
    """GP: enumerate busy PEs from the first one after ``pointer``."""

    pointer: int | None = None
    advance: str = "last_donor"

    def rotated_busy_order(self, busy: np.ndarray) -> np.ndarray:
        busy_idx = np.flatnonzero(busy)
        if self.pointer is None or len(busy_idx) == 0:
            return busy_idx
        start = int(np.searchsorted(busy_idx, self.pointer, side="right"))
        if start >= len(busy_idx):
            start = 0
        return np.concatenate([busy_idx[start:], busy_idx[:start]])

    def match(self, busy, idle) -> OracleMatch:
        busy, idle = _validate(busy, idle)
        order = self.rotated_busy_order(busy)
        donors, receivers = mask_rendezvous(idle, busy, grantor_order=order)
        if len(donors) > 0:
            if self.advance == "last_donor":
                self.pointer = int(donors[-1])
            elif self.advance == "first_donor":
                self.pointer = int(donors[0])
        busy_ranks = np.full(len(busy), -1, dtype=np.int64)
        if len(order) > 0:
            busy_ranks[order] = np.arange(len(order))
        return OracleMatch(donors, receivers, busy_ranks, enumerate_mask(idle))

"""Parallel-prefix (scan) primitives of the SIMD machine.

The matching schemes of the paper are built from *sum-scans* (Blelloch
[3]): enumerating the idle processors, enumerating the busy processors, and
the *rendezvous allocation* (Hillis [12]) that pairs rank ``r`` of one set
with rank ``r`` of the other.

The exclusive sum-scan is a numpy cumulative sum (O(P) work on the
host, standing in for the machine's O(log P) scan hardware).

Scans *cost* time on the simulated machine; the cost is charged by
:class:`repro.simd.cost.CostModel`, not here — these functions are pure.
"""

from __future__ import annotations

import numpy as np

from repro.obs.profile import span

__all__ = ["sum_scan", "enumerate_mask", "rendezvous"]


def sum_scan(values: np.ndarray, *, inclusive: bool = False) -> np.ndarray:
    """Prefix sum of ``values`` (exclusive by default, as in Blelloch [3]).

    Parameters
    ----------
    values:
        1-D integer or float array — one element per processor.
    inclusive:
        If true, element ``i`` of the result includes ``values[i]``.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError(f"sum_scan expects a 1-D array, got shape {values.shape}")
    if values.dtype == bool:
        values = values.astype(np.int64)
    if len(values) == 0:
        return values.copy()

    with span("scan.sum_scan", cat="scan"):
        inc = np.cumsum(values)
        if inclusive:
            return inc
        exc = np.empty_like(inc)
        exc[0] = 0
        exc[1:] = inc[:-1]
        return exc


def enumerate_mask(mask: np.ndarray) -> np.ndarray:
    """Rank each ``True`` processor among the ``True`` set (0-based).

    Returns an int64 array where position ``i`` holds the rank of processor
    ``i`` if ``mask[i]``, and ``-1`` otherwise.  This is the enumeration
    step of both matching schemes (Figure 2 of the paper).
    """
    mask = np.asarray(mask, dtype=bool)
    ranks = sum_scan(mask.astype(np.int64))
    out = np.where(mask, ranks, -1)
    return out.astype(np.int64)


def rendezvous(
    requesters: np.ndarray, grantors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pair requesters with grantors by enumeration rank (Hillis [12]).

    Parameters
    ----------
    requesters:
        Indices of the processors asking for work (idle), in rank order.
    grantors:
        Indices of the processors able to give work (busy), in rank order
        — ascending for a plain enumeration, rotated for the GP global
        pointer.  The two sets are disjoint; that is not checked here.

    Returns
    -------
    (donor_indices, receiver_indices):
        Equal-length arrays (views of the inputs); pair ``r`` matches the
        rank-``r`` grantor to the rank-``r`` requester.  Length is
        ``min(#grantors, #requesters)`` — when there are more idle than
        busy processors, the surplus idle processors receive nothing
        (Section 2.1).
    """
    k = min(len(grantors), len(requesters))
    return grantors[:k], requesters[:k]

"""Parallel-prefix (scan) primitives of the SIMD machine.

The matching schemes of the paper are built from *sum-scans* (Blelloch
[3]): enumerating the idle processors, enumerating the busy processors, and
the *rendezvous allocation* (Hillis [12]) that pairs rank ``r`` of one set
with rank ``r`` of the other.

Two implementations of the exclusive sum-scan are provided:

``method="cumsum"``
    The production path — a numpy cumulative sum (O(P) work on the host,
    standing in for the machine's O(log P) scan hardware).
``method="blelloch"``
    A faithful up-sweep/down-sweep simulation of the tree-based scan that
    the machine would execute.  Each of the ``2 log P`` sweeps is a
    vectorized step, so this path is also fast; it exists so tests can
    confirm the hardware algorithm and the shortcut agree bit-for-bit.

Scans *cost* time on the simulated machine; the cost is charged by
:class:`repro.simd.cost.CostModel`, not here — these functions are pure.
"""

from __future__ import annotations

import numpy as np

from repro.obs.profile import span

__all__ = ["sum_scan", "segmented_sum_scan", "enumerate_mask", "rendezvous"]


def _blelloch_exclusive(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum via the Blelloch up-sweep/down-sweep algorithm."""
    n = len(values)
    if n == 0:
        return values.copy()
    size = 1 << (n - 1).bit_length()
    tree = np.zeros(size, dtype=values.dtype)
    tree[:n] = values

    # Up-sweep (reduce): at each level, combine pairs of partial sums.
    stride = 1
    while stride < size:
        right = np.arange(2 * stride - 1, size, 2 * stride)
        tree[right] += tree[right - stride]
        stride *= 2

    # Down-sweep: clear the root, then push prefix sums back down the tree.
    tree[size - 1] = 0
    stride = size // 2
    while stride >= 1:
        right = np.arange(2 * stride - 1, size, 2 * stride)
        left = right - stride
        left_vals = tree[left].copy()
        tree[left] = tree[right]
        tree[right] += left_vals
        stride //= 2

    return tree[:n]


def sum_scan(
    values: np.ndarray,
    *,
    inclusive: bool = False,
    method: str = "cumsum",
) -> np.ndarray:
    """Prefix sum of ``values`` (exclusive by default, as in Blelloch [3]).

    Parameters
    ----------
    values:
        1-D integer or float array — one element per processor.
    inclusive:
        If true, element ``i`` of the result includes ``values[i]``.
    method:
        ``"cumsum"`` (numpy shortcut) or ``"blelloch"`` (tree simulation).
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError(f"sum_scan expects a 1-D array, got shape {values.shape}")
    if values.dtype == bool:
        values = values.astype(np.int64)
    if len(values) == 0:
        return values.copy()

    with span("scan.sum_scan", cat="scan"):
        if method == "cumsum":
            inc = np.cumsum(values)
            if inclusive:
                return inc
            exc = np.empty_like(inc)
            exc[0] = 0
            exc[1:] = inc[:-1]
            return exc
        if method == "blelloch":
            exc = _blelloch_exclusive(values)
            if inclusive:
                return exc + values
            return exc
    raise ValueError(f"unknown scan method {method!r}")


def segmented_sum_scan(values: np.ndarray, segment_heads: np.ndarray) -> np.ndarray:
    """Exclusive sum-scan restarted at every ``True`` in ``segment_heads``.

    Used by the FEGS-style equalizing redistribution, which scans node
    counts within donor segments.  Element 0 is always a segment head.
    """
    values = np.asarray(values)
    heads = np.asarray(segment_heads, dtype=bool)
    if values.shape != heads.shape or values.ndim != 1:
        raise ValueError("values and segment_heads must be equal-length 1-D arrays")
    if len(values) == 0:
        return values.copy()
    heads = heads.copy()
    heads[0] = True
    exc = sum_scan(values)
    seg_id = np.cumsum(heads) - 1
    # Subtract, from each element, the running total at its segment's start.
    seg_start_exc = exc[np.flatnonzero(heads)]
    return exc - seg_start_exc[seg_id]


def enumerate_mask(mask: np.ndarray, *, method: str = "cumsum") -> np.ndarray:
    """Rank each ``True`` processor among the ``True`` set (0-based).

    Returns an int64 array where position ``i`` holds the rank of processor
    ``i`` if ``mask[i]``, and ``-1`` otherwise.  This is the enumeration
    step of both matching schemes (Figure 2 of the paper).
    """
    mask = np.asarray(mask, dtype=bool)
    ranks = sum_scan(mask.astype(np.int64), method=method)
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

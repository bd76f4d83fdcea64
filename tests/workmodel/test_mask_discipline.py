"""Mask-cache discipline: no public mutator may leave memoized masks stale.

All three workload fidelities memoize their busy/idle/expanding masks
between mutations.  Every public mutator — ``expand_cycle``,
``transfer``, and the fault-path ``extract_pe`` / ``inject_pe`` — must
invalidate that cache itself; a caller reading masks right after a
mutation must see the post-mutation state without calling
``invalidate_masks`` by hand.  The check: warm the cache, mutate, read
the (possibly cached) masks, then force invalidation and re-read — the
two reads must agree for every mutator on every workload and storage
(``stack-list`` is the test-side deque oracle, which must honour the same
protocol; ``search-list`` is the per-PE ``DFSStack`` storage, reached by
hiding the puzzle's vectorizable view).
"""

import numpy as np
import pytest

from repro.problems.fifteen_puzzle import BENCH_INSTANCES
from repro.search.parallel import SearchWorkload
from repro.workmodel.divisible import DivisibleWorkload
from repro.workmodel.stackmodel import StackWorkload
from tests.oracles import ListStackWorkload, opaque

N_PES = 8


def _make_search(problem):
    bound = problem.heuristic(problem.initial_state()) + 6
    return SearchWorkload(problem, bound, N_PES)


WORKLOADS = {
    "divisible": lambda: DivisibleWorkload(500, N_PES, rng=0),
    "stack-list": lambda: ListStackWorkload(500, N_PES, rng=0),
    "stack-arena": lambda: StackWorkload(500, N_PES, rng=0),
    "search-list": lambda: _make_search(opaque(BENCH_INSTANCES["tiny"])),
    "search-arena": lambda: _make_search(BENCH_INSTANCES["tiny"]),
}


def _masks(wl):
    return (
        wl.busy_mask().copy(),
        wl.idle_mask().copy(),
        wl.expanding_mask().copy(),
    )


def _assert_masks_fresh(wl):
    """Masks read after a mutation equal masks recomputed from scratch."""
    cached = _masks(wl)
    wl.invalidate_masks()
    fresh = _masks(wl)
    for got, want, name in zip(cached, fresh, ("busy", "idle", "expanding")):
        assert np.array_equal(got, want), f"stale {name} mask after mutation"


def _grow(wl, cycles):
    """Expand a few cycles so some PEs are busy and some idle."""
    for _ in range(cycles):
        _masks(wl)  # keep the cache warm through every step
        if wl.done():
            break
        wl.expand_cycle()
        _assert_masks_fresh(wl)


@pytest.mark.parametrize("name", WORKLOADS, ids=list(WORKLOADS))
def test_expand_cycle_invalidates(name):
    wl = WORKLOADS[name]()
    _masks(wl)
    wl.expand_cycle()
    _assert_masks_fresh(wl)
    _grow(wl, 10)


@pytest.mark.parametrize("name", WORKLOADS, ids=list(WORKLOADS))
def test_transfer_invalidates(name):
    wl = WORKLOADS[name]()
    for _ in range(200):
        if wl.done():
            pytest.skip("workload drained before a donor/receiver pair arose")
        wl.expand_cycle()
        busy = np.flatnonzero(wl.busy_mask())
        idle = np.flatnonzero(wl.idle_mask())
        if len(busy) and len(idle):
            break
    k = min(len(busy), len(idle))
    _masks(wl)
    wl.transfer(busy[:k], idle[:k])
    _assert_masks_fresh(wl)


@pytest.mark.parametrize("name", WORKLOADS, ids=list(WORKLOADS))
def test_extract_and_inject_invalidate(name):
    wl = WORKLOADS[name]()
    for _ in range(5):
        if not wl.done():
            wl.expand_cycle()
    holders = np.flatnonzero(wl.expanding_mask())
    assert len(holders), "fixture must leave at least one non-empty PE"
    donor = int(holders[0])
    empties = np.flatnonzero(wl.idle_mask())
    receiver = int(empties[0]) if len(empties) else (donor + 1) % N_PES

    _masks(wl)
    payload, n_entries = wl.extract_pe(donor)
    assert n_entries > 0
    assert not wl.expanding_mask()[donor], "extracted PE must read empty"
    _assert_masks_fresh(wl)

    _masks(wl)
    injected = wl.inject_pe(receiver, payload)
    assert injected == n_entries
    assert wl.expanding_mask()[receiver], "injected PE must read non-empty"
    _assert_masks_fresh(wl)


@pytest.mark.parametrize("name", WORKLOADS, ids=list(WORKLOADS))
def test_extract_inject_round_trip_conserves_totals(name):
    wl = WORKLOADS[name]()
    for _ in range(5):
        if not wl.done():
            wl.expand_cycle()
    before = wl._counts().copy() if hasattr(wl, "_counts") else None
    holders = np.flatnonzero(wl.expanding_mask())
    donor = int(holders[0])
    payload, n_entries = wl.extract_pe(donor)
    back = wl.inject_pe(donor, payload)
    assert back == n_entries
    if before is not None:
        assert np.array_equal(wl._counts(), before)

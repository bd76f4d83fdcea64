"""Both width bands of the search kernel against the ``DFSStack`` oracle.

:func:`repro.search.kernel.expand_cycle` runs one of two bodies by the
number of expanding PEs: the scalar row loop (<= ``SPARSE_THRESHOLD``)
and the vector body above it.  This module drives a machine-wide
frontier (P = 1024) in lock-step against the per-PE ``DFSStack``
storage and spies on the bands to prove each one ran, a goal pop in the
vector body included.
"""

import sys

import numpy as np
import pytest

from repro.problems.fifteen_puzzle import BENCH_INSTANCES, scrambled_fifteen_puzzle
from repro.search import kernel
from repro.search.ida_star import ida_star
from repro.search.parallel import SearchWorkload
from tests.oracles import opaque

BANDS = ("_expand_rows", "_expand_vector")


@pytest.fixture
def band_calls(monkeypatch):
    """Per-band ``[cycles entered, cycles that popped a goal]``."""
    calls = {name: [0, 0] for name in BANDS}
    for name in BANDS:
        real = getattr(kernel, name)

        def spy(wl, pes, _real=real, _name=name):
            before = wl.solutions
            _real(wl, pes)
            calls[_name][0] += 1
            calls[_name][1] += wl.solutions > before

        monkeypatch.setattr(kernel, name, spy)
    return calls


def test_every_band_tracks_dfs_stacks_at_machine_width(band_calls):
    """Expand + donate in lock-step at P = 1024: per-PE counts, masks,
    next bound and goal depths agree after every cycle, and the bound
    sits above the optimum so goals pop inside the vector body too."""
    problem = scrambled_fifteen_puzzle(40, rng=5)
    bound = ida_star(problem).solution_cost + 2
    n_pes = 1024
    arena = SearchWorkload(problem, bound, n_pes)
    dfs = SearchWorkload(opaque(problem), bound, n_pes)
    assert arena._arena is not None and dfs._arena is None
    cycle = 0
    while not dfs.done():
        assert arena.expand_cycle() == dfs.expand_cycle(), cycle
        assert np.array_equal(arena._counts(), dfs._counts()), cycle
        assert np.array_equal(arena.busy_mask(), dfs.busy_mask())
        assert np.array_equal(arena.idle_mask(), dfs.idle_mask())
        assert arena.next_bound == dfs.next_bound, cycle
        assert arena.goal_depths == dfs.goal_depths, cycle
        busy = np.flatnonzero(dfs.busy_mask())
        idle = np.flatnonzero(dfs.idle_mask())
        k = min(len(busy), len(idle))
        assert arena.transfer(busy[:k], idle[:k]) == dfs.transfer(busy[:k], idle[:k])
        cycle += 1
    assert arena.done()
    assert arena.expanded == dfs.expanded and arena.solutions == dfs.solutions > 0
    for name in BANDS:
        assert band_calls[name][0] >= 1, name
    assert band_calls["_expand_vector"][1] >= 1  # the vector goal branch ran


def test_row_loop_alone_matches_the_banded_kernel(monkeypatch):
    """The sparse band's row loop is a complete kernel on its own: run at
    every width, with donations spreading the frontier, it reproduces the
    vector body's state."""
    problem = BENCH_INSTANCES["tiny"]
    bound = problem.heuristic(problem.initial_state()) + 10

    def run():
        wl = SearchWorkload(problem, bound, 16)
        stacks = []
        while not wl.done():
            wl.expand_cycle()
            stacks.append(wl.stacks)
            busy = np.flatnonzero(wl.busy_mask())
            idle = np.flatnonzero(wl.idle_mask())
            k = min(len(busy), len(idle))
            wl.transfer(busy[:k], idle[:k])
        return (
            wl.total_expanded(),
            wl.next_bound,
            wl.solutions,
            wl.goal_depths,
            stacks,
        )

    monkeypatch.setattr(kernel, "SPARSE_THRESHOLD", 0)
    reference = run()
    assert reference[2] > 0  # goals popped
    monkeypatch.setattr(kernel, "SPARSE_THRESHOLD", sys.maxsize)
    assert run() == reference

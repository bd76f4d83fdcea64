"""Every width band of the search kernel against the ``DFSStack`` oracle.

:func:`repro.search.kernel.expand_cycle` runs one of three bodies by the
number of expanding PEs: the scalar row loop (<= ``SPARSE_THRESHOLD``),
the allocating reference (mid-width) and the scratch-backed dense path
(>= ``DENSE_THRESHOLD``).  The full-run identity suites use P = 64, which
never reaches the dense band, so this module drives a machine-wide
frontier (P = 1024) in lock-step against the per-PE ``DFSStack`` storage
and spies on the bands to prove each one ran.
"""

import numpy as np
import pytest

from repro.problems.fifteen_puzzle import BENCH_INSTANCES, scrambled_fifteen_puzzle
from repro.search import kernel
from repro.search.ida_star import ida_star
from repro.search.parallel import SearchWorkload
from tests.oracles import opaque

BANDS = ("_expand_rows", "_expand_reference", "_expand_dense")


@pytest.fixture
def band_calls(monkeypatch):
    """Per-band ``[cycles entered, cycles that popped a goal]``."""
    calls = {name: [0, 0] for name in BANDS}
    for name in BANDS:
        real = getattr(kernel, name)

        def spy(wl, pes, ws, _real=real, _name=name):
            before = wl.solutions
            out = _real(wl, pes, ws)
            calls[_name][0] += 1
            calls[_name][1] += wl.solutions > before
            return out

        monkeypatch.setattr(kernel, name, spy)
    return calls


def test_every_band_tracks_dfs_stacks_at_machine_width(band_calls):
    """Expand + donate in lock-step at P = 1024: per-PE counts, masks,
    next bound and goal depths agree after every cycle, and the bound
    sits above the optimum so goals pop inside the dense band too."""
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
    assert band_calls["_expand_dense"][1] >= 1  # the dense goal branch ran


def test_row_loop_alone_matches_the_banded_kernel():
    """The sparse band's row loop is a complete kernel on its own: run it
    at every width and it reproduces the banded kernel's state."""
    problem = BENCH_INSTANCES["tiny"]
    bound = problem.heuristic(problem.initial_state()) + 10
    reference = SearchWorkload(problem, bound, 16)
    subject = SearchWorkload(problem, bound, 16)
    for _ in range(24):
        if reference.done():
            break
        reference.expand_cycle()
        pes = np.flatnonzero(subject._counts() > 0)
        subject._cached_counts = None
        kernel._expand_rows(subject, pes, subject._kernel_ws)

    def state(wl):
        return (
            wl.total_expanded(),
            wl.next_bound,
            wl.solutions,
            sorted(wl.goal_depths),
            wl._counts().tolist(),
        )

    assert state(subject) == state(reference)

"""The jit tier: numba-gated compilation plus its always-run python twin.

Numba is optional — the CI matrix has a leg with it and legs without.
The compiled-path tests are skipped where it is absent, but the *code*
numba compiles (:func:`repro.kernels.search._expand_search_rows`) is
plain Python by construction, so its behavior is locked in
unconditionally: the row loop must match the reference numpy kernel
state for state on every interpreter, numba or not.  The graceful
degradation contract (``"jit"`` resolving to ``"fused"``, the bench
note) is likewise asserted on both kinds of host.
"""

import numpy as np
import pytest

from repro.kernels.dispatch import HAVE_NUMBA, get_kernel, jit_note, resolve_backend
from repro.kernels.search import _expand_rows_driver, _expand_search_rows
from repro.kernels.workspace import KernelWorkspace
from repro.problems.fifteen_puzzle import BENCH_INSTANCES
from repro.search.parallel import ParallelIDAStar, SearchWorkload
from tests.oracles import opaque


def _spread_workload(kernel_backend: str, cycles: int = 24) -> SearchWorkload:
    problem = BENCH_INSTANCES["tiny"]
    bound = problem.heuristic(problem.initial_state()) + 10
    wl = SearchWorkload(problem, bound, 16, kernel_backend=kernel_backend)
    for _ in range(cycles):
        if wl.done():
            break
        wl.expand_cycle()
    return wl


def _state(wl: SearchWorkload) -> tuple:
    return (
        wl.total_expanded(),
        wl.next_bound,
        wl.solutions,
        sorted(wl.goal_depths),
        wl._counts().tolist(),
    )


class TestPythonRowLoopTwin:
    """Unconditional: the exact function the jit tier compiles."""

    def test_row_loop_matches_numpy_kernel(self):
        reference = _spread_workload("numpy")
        subject = _spread_workload("numpy", cycles=0)
        ws = KernelWorkspace()
        numpy_kernel = get_kernel("search.expand_cycle", "numpy")
        for _ in range(24):
            if subject.done():
                break
            pes = np.flatnonzero(subject._counts() > 0)
            if len(pes) == 0:
                numpy_kernel(subject, None)
                continue
            subject._cached_counts = None
            _expand_rows_driver(subject, pes, ws, _expand_search_rows)
        assert _state(subject) == _state(reference)

    def test_row_loop_signature_is_numba_compatible(self):
        """No closures, no kwargs, no Python objects in the hot loop —
        the properties ``numba.njit`` needs to compile it nopython."""
        import inspect

        sig = inspect.signature(_expand_search_rows)
        assert all(
            p.default is inspect.Parameter.empty
            and p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            for p in sig.parameters.values()
        )
        assert inspect.getclosurevars(_expand_search_rows).nonlocals == {}


class TestGracefulDegradation:
    def test_jit_request_always_returns_a_runnable_kernel(self):
        fn = get_kernel("search.expand_cycle", "jit")
        wl = _spread_workload("numpy", cycles=0)
        ws = KernelWorkspace()
        assert fn(wl, ws) >= 1  # it ran, whatever tier it resolved to

    def test_note_printed_only_without_numba(self):
        assert (jit_note() is None) == HAVE_NUMBA


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
class TestCompiledTier:
    def test_jit_resolves_to_compiled_kernel(self):
        assert resolve_backend("jit") == "jit"
        fused = get_kernel("search.expand_cycle", "fused")
        jit = get_kernel("search.expand_cycle", "jit")
        assert jit is not fused

    def test_compiled_run_matches_reference(self):
        assert _state(_spread_workload("jit")) == _state(_spread_workload("numpy"))

    def test_full_ida_star_identical_under_jit(self):
        list_res = ParallelIDAStar(
            opaque(BENCH_INSTANCES["tiny"]), 64, "GP-S0.75", sanitize=True
        ).run()
        jit_res = ParallelIDAStar(
            BENCH_INSTANCES["tiny"],
            64,
            "GP-S0.75",
            kernel_backend="jit",
            sanitize=True,
        ).run()
        assert jit_res.total_expanded == list_res.total_expanded
        assert jit_res.bounds == list_res.bounds
        assert jit_res.solutions == list_res.solutions

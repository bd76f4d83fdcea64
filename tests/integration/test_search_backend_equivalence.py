"""Cross-storage equivalence for the *real* search: arena vs ``DFSStack``.

The synthetic stack model's arena is RNG-stream-identical to its list
oracle (``test_backend_equivalence.py``); the search arena makes the
stronger deterministic claim — no RNG at all, the two storages expand
literally the same tree.  ``SearchWorkload`` picks the arena for a
Manhattan puzzle on its own; ``tests.oracles.opaque`` hides the puzzle's
vectorizable view so the same instance runs on per-PE ``DFSStack``s (the
"list" side below).  Full :class:`ParallelIDAStar` runs over the
benchmark 15-puzzle instances must therefore agree exactly, scheme for
scheme, across {nGP, GP} x {S^x, D_K}, with the runtime sanitizer
asserting the lock-step invariants throughout; and because every
iteration exhausts its bound (all solutions up to the bound), the
parallel expansion counts equal serial IDA*'s node-for-node — the
paper's anomaly-free setup.
"""

import pytest

from repro.experiments.runner import default_init_threshold
from repro.kernels.dispatch import available_backends
from repro.problems.fifteen_puzzle import BENCH_INSTANCES
from repro.search.ida_star import ida_star
from repro.search.parallel import ParallelIDAStar
from tests.oracles import opaque

INSTANCES = ("tiny", "small")
SCHEMES = ("nGP-S0.75", "GP-S0.75", "nGP-DK", "GP-DK")
N_PES = 64

_serial_cache: dict[str, object] = {}


def _serial(instance: str):
    if instance not in _serial_cache:
        _serial_cache[instance] = ida_star(BENCH_INSTANCES[instance])
    return _serial_cache[instance]


def _parallel(instance: str, scheme: str, storage: str, **kwargs):
    problem = BENCH_INSTANCES[instance]
    return ParallelIDAStar(
        opaque(problem) if storage == "list" else problem,
        N_PES,
        scheme,
        init_threshold=default_init_threshold(scheme),
        sanitize=True,
        **kwargs,
    ).run()


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("instance", INSTANCES)
def test_arena_matches_list_exactly(instance, scheme):
    """The hard equality: full-run results (cycles, LB phases and ledger
    included) identical between storages, at every kernel tier."""
    list_res = _parallel(instance, scheme, "list")
    for tier in available_backends():
        assert _parallel(instance, scheme, "arena", kernel_backend=tier) == list_res


@pytest.mark.parametrize("storage", ["list", "arena"])
@pytest.mark.parametrize("instance", INSTANCES)
def test_parallel_matches_serial_ida_star(instance, storage):
    """Anomaly-free setup: parallel W == serial W, iteration by
    iteration, and the optimal cost agrees."""
    serial = _serial(instance)
    result = _parallel(instance, "GP-DK", storage)
    assert result.solution_cost == serial.solution_cost
    assert result.bounds == serial.bounds
    assert result.per_iteration_expanded == tuple(
        it.expanded for it in serial.iterations
    )
    assert result.total_expanded == serial.total_expanded

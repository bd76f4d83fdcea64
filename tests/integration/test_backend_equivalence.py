"""Seed-for-seed equivalence: ``StackWorkload`` vs the deque-per-PE oracle.

The arena-stored workload and ``tests.oracles.ListStackWorkload`` share
one RNG stream (both route draws through ``draw_children_batch``), so a
full scheduled run must be **bit-identical** between them at every
kernel tier: same cycles, same LB phases, same ledger, same per-cycle
trace — across every paper scheme, with the runtime sanitizer asserting
the lock-step invariants throughout.
"""

import pytest

from repro.core.config import PAPER_SCHEMES
from repro.core.scheduler import Scheduler
from repro.experiments.runner import default_init_threshold
from repro.kernels.dispatch import available_backends
from repro.simd.cost import CostModel
from repro.simd.machine import SimdMachine
from repro.workmodel.stackmodel import StackWorkload
from tests.oracles import ListStackWorkload

WORK, N_PES, SEED = 12_000, 32, 11


def _run(workload_cls, spec: str, **workload_kwargs):
    workload = workload_cls(WORK, N_PES, rng=SEED, **workload_kwargs)
    machine = SimdMachine(N_PES, CostModel())
    metrics = Scheduler(
        workload,
        machine,
        spec,
        init_threshold=default_init_threshold(spec),
        trace=True,
        sanitize=True,
    ).run()
    assert workload.done() and workload.check_conservation()
    return metrics


class TestArenaListBitIdentity:
    @pytest.mark.parametrize("spec", PAPER_SCHEMES)
    def test_run_metrics_identical(self, spec):
        """GP/nGP x S^x/D_P/D_K: RunMetrics (ledger + trace included)
        compare equal field for field."""
        list_metrics = _run(ListStackWorkload, spec)
        assert list_metrics.trace is not None
        for tier in available_backends():
            arena_metrics = _run(StackWorkload, spec, kernel_backend=tier)
            assert list_metrics == arena_metrics, tier
            assert (
                list_metrics.trace.busy_per_cycle
                == arena_metrics.trace.busy_per_cycle
            )

    def test_identical_with_irregular_trees(self):
        shape = dict(leaf_probability=0.4, max_branching=6)
        a = _run(ListStackWorkload, "GP-DK", **shape)
        for tier in available_backends():
            assert a == _run(StackWorkload, "GP-DK", kernel_backend=tier, **shape)

"""Seed-for-seed equivalence: ``StackWorkload`` vs the deque-per-PE oracle.

The arena-stored workload and ``tests.oracles.ListStackWorkload`` share
one RNG stream (both route draws through ``draw_children_batch``), so a
full scheduled run must be **bit-identical** between them: same cycles,
same LB phases, same ledger, same per-cycle trace, same final stacks and
RNG position — across every paper scheme, with the runtime sanitizer
asserting the lock-step invariants throughout.
"""

import pytest

from repro.core.config import PAPER_SCHEMES
from repro.core.scheduler import Scheduler
from repro.experiments.runner import default_init_threshold
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
    return metrics, workload


class TestArenaListBitIdentity:
    @pytest.mark.parametrize("spec", PAPER_SCHEMES)
    def test_run_metrics_identical(self, spec):
        """GP/nGP x S^x/D_P/D_K: RunMetrics (ledger + trace included)
        compare equal field for field."""
        list_metrics, list_wl = _run(ListStackWorkload, spec)
        assert list_metrics.trace is not None
        arena_metrics, arena_wl = _run(StackWorkload, spec)
        assert list_metrics == arena_metrics
        assert list_metrics.trace.busy_per_cycle == arena_metrics.trace.busy_per_cycle
        assert [list(s) for s in list_wl.stacks] == arena_wl.stacks
        assert (
            list_wl.rng.bit_generator.state == arena_wl.rng.bit_generator.state
        )

    def test_identical_with_irregular_trees(self):
        shape = dict(leaf_probability=0.4, max_branching=6)
        a = _run(ListStackWorkload, "GP-DK", **shape)[0]
        assert a == _run(StackWorkload, "GP-DK", **shape)[0]

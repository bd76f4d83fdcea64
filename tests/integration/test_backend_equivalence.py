"""Seed-for-seed equivalence: ``StackWorkload`` vs the deque-per-PE oracle.

The arena-stored workload and ``tests.oracles.ListStackWorkload`` share
one RNG stream (both route draws through ``draw_children_batch``), so a
full scheduled run must be **bit-identical** between them: same cycles,
same LB phases, same ledger, same event stream, same final stacks and
RNG position — across every paper scheme, with the runtime sanitizer
asserting the lock-step invariants throughout.
"""

import pytest

from repro.core.config import PAPER_SCHEMES
from repro.core.scheduler import Scheduler
from repro.experiments.runner import default_init_threshold
from repro.obs import Observability, RingBufferSink
from repro.simd.cost import CostModel
from repro.simd.machine import SimdMachine
from repro.workmodel.stackmodel import StackWorkload
from tests.oracles import ListStackWorkload

WORK, N_PES, SEED = 12_000, 32, 11


def _run(workload_cls, spec: str, **workload_kwargs):
    workload = workload_cls(WORK, N_PES, rng=SEED, **workload_kwargs)
    machine = SimdMachine(N_PES, CostModel())
    sink = RingBufferSink()
    metrics = Scheduler(
        workload,
        machine,
        spec,
        init_threshold=default_init_threshold(spec),
        sanitize=True,
        obs=Observability(events=sink),
    ).run()
    assert workload.done() and workload.check_conservation()
    return metrics, workload, sink.events()


class TestArenaListBitIdentity:
    @pytest.mark.parametrize("spec", PAPER_SCHEMES)
    def test_run_metrics_identical(self, spec):
        """GP/nGP x S^x/D_P/D_K: RunMetrics (ledger included) and the
        cycle and LB-phase event lists compare equal field for field."""
        list_metrics, list_wl, list_events = _run(ListStackWorkload, spec)
        arena_metrics, arena_wl, arena_events = _run(StackWorkload, spec)
        assert list_metrics == arena_metrics
        assert len(list_events) == list_metrics.n_expand + list_metrics.n_lb
        assert list_events == arena_events
        assert [list(s) for s in list_wl.stacks] == arena_wl.stacks
        assert (
            list_wl.rng.bit_generator.state == arena_wl.rng.bit_generator.state
        )

    def test_identical_with_irregular_trees(self):
        shape = dict(leaf_probability=0.4, max_branching=6)
        a = _run(ListStackWorkload, "GP-DK", **shape)
        b = _run(StackWorkload, "GP-DK", **shape)
        assert a[0] == b[0] and a[2] == b[2]

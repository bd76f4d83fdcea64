"""Bit-identity of each kernel implementation against the list oracles.

The acceptance gate for the kernel layer: across all six paper schemes
(GP/nGP x S^x/D_P/D_K), with the runtime sanitizer asserting the
lock-step invariants, every implementation of a hot step produces
*exactly* the run the test-side oracles (``tests/oracles``) produce:
same RunMetrics, same event streams, same stacks, same RNG stream position.
Covers all three workload families the kernels back: the synthetic
stack model, the real 15-puzzle search, and the mega-arena grid
executor.

Each operation has one shipped kernel; the ``tier`` axis names the two
array formulations of it that remain in the tree:

- ``"numpy"`` — the allocating full-width formulation: the search
  kernel's vector body at *every* width (no row band), and
  ``MegaArena`` reductions returning fresh arrays.
- ``"fused"`` — the shipped formulation: the banded search kernel as
  ``SearchWorkload`` runs it, and ``MegaArena`` reductions handed out
  as one reused buffer per kernel (the executor must consume each count
  vector within its cycle).

The stack cycle has a single formulation — ``StackWorkload`` as shipped,
on the same ``WindowArena`` the search kernel uses — so it runs under
``"numpy"`` only.
"""

import numpy as np
import pytest

from repro.core.config import PAPER_SCHEMES
from repro.core.scheduler import Scheduler
from repro.experiments.runner import default_init_threshold, run_grid
from repro.obs import Observability, RingBufferSink
from repro.problems.fifteen_puzzle import BENCH_INSTANCES
from repro.search import kernel
from repro.search.parallel import ParallelIDAStar
from repro.simd.cost import CostModel
from repro.simd.machine import SimdMachine
from repro.workmodel.mega import MegaArena
from repro.workmodel.stackmodel import StackWorkload
from tests.oracles import ListStackWorkload, opaque

WORK, N_PES, SEED = 8_000, 32, 7

TIERS = ("numpy", "fused")

_stack_oracle: dict[str, object] = {}
_search_oracle: dict[str, object] = {}


def _stack_run(spec: str, tier: str | None):
    """One sanitized run traced through an event sink; ``tier=None`` is
    the oracle.  Returns (metrics, workload, events)."""
    if tier is None:
        workload = ListStackWorkload(WORK, N_PES, rng=SEED)
    else:
        workload = StackWorkload(WORK, N_PES, rng=SEED)
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


class TestStackTierIdentity:
    @pytest.mark.parametrize("tier", ["numpy"])
    @pytest.mark.parametrize("spec", PAPER_SCHEMES)
    def test_tier_matches_list_oracle(self, spec, tier):
        if spec not in _stack_oracle:
            _stack_oracle[spec] = _stack_run(spec, None)
        oracle_metrics, oracle_wl, oracle_events = _stack_oracle[spec]
        metrics, workload, events = _stack_run(spec, tier)
        assert metrics == oracle_metrics
        assert events == oracle_events
        assert len(events) == metrics.n_expand + metrics.n_lb
        assert [list(s) for s in oracle_wl.stacks] == workload.stacks
        assert (
            workload.rng.bit_generator.state
            == oracle_wl.rng.bit_generator.state
        )


def _search_run(problem, spec: str):
    sink = RingBufferSink()
    result = ParallelIDAStar(
        problem,
        64,
        spec,
        init_threshold=default_init_threshold(spec),
        sanitize=True,
        obs=Observability(events=sink),
    ).run()
    return result, sink.events()


class TestSearchTierIdentity:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("spec", PAPER_SCHEMES)
    def test_tier_matches_list_oracle(self, spec, tier, monkeypatch):
        if spec not in _search_oracle:
            _search_oracle[spec] = _search_run(opaque(BENCH_INSTANCES["tiny"]), spec)
        oracle, oracle_events = _search_oracle[spec]
        if tier == "numpy":
            # The row band never fires: every cycle runs the vector body.
            monkeypatch.setattr(kernel, "SPARSE_THRESHOLD", 0)
        result, events = _search_run(BENCH_INSTANCES["tiny"], spec)
        assert result.total_expanded == oracle.total_expanded
        assert result.bounds == oracle.bounds
        assert result.per_iteration_expanded == oracle.per_iteration_expanded
        assert result.solution_cost == oracle.solution_cost
        assert result.solutions == oracle.solutions
        assert result.metrics == oracle.metrics
        assert events == oracle_events


def _borrowed(method):
    """Wrap a ``MegaArena`` kernel so every call on an arena returns the
    same buffers, overwritten in place: one per returned vector (the
    fused ``expand_cycle`` returns two).  A buffer is reallocated only
    when the cell count changes (finished cells leave the arena)."""

    def reduction(self):
        fresh = method(self)
        vectors = fresh if isinstance(fresh, tuple) else (fresh,)
        key = f"_borrowed_{method.__name__}"
        bufs = self.__dict__.get(key)
        if bufs is None or bufs[0].shape != vectors[0].shape:
            bufs = self.__dict__[key] = [np.empty_like(v) for v in vectors]
        for buf, v in zip(bufs, vectors):
            buf[...] = v
        return tuple(bufs) if isinstance(fresh, tuple) else bufs[0]

    return reduction


class TestMegaGridTierIdentity:
    @pytest.mark.parametrize("tier", TIERS)
    def test_batched_grid_matches_serial_oracle(self, tier, monkeypatch):
        schemes = ["GP-S0.90", "nGP-DK", "GP-DP"]
        works = [2_000, 5_000]
        pes = [32]
        serial = run_grid(schemes, works, pes, executor="serial")
        if tier == "fused":
            for name in ("expand_cycle", "nonzero_counts"):
                monkeypatch.setattr(MegaArena, name, _borrowed(getattr(MegaArena, name)))
        batched = run_grid(schemes, works, pes, n_jobs=1)
        assert serial == batched

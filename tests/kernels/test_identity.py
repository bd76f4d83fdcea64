"""Bit-identity of every kernel tier against the list oracle.

The acceptance gate for the kernel layer: across all six paper schemes
(GP/nGP x S^x/D_P/D_K), with the runtime sanitizer asserting the
lock-step invariants, the numpy and fused tiers (and the jit tier where
numba is installed) produce *exactly* the runs the test-side list
oracles (``tests/oracles``) produce: same RunMetrics, same traces, same stacks, same
RNG stream position.  Covers all three workload families the kernels
back: the synthetic stack model, the real 15-puzzle search, and the
mega-arena grid executor.
"""

import pytest

from repro.core.config import PAPER_SCHEMES
from repro.core.scheduler import Scheduler
from repro.experiments.runner import default_init_threshold, run_grid
from repro.kernels.dispatch import available_backends
from repro.problems.fifteen_puzzle import BENCH_INSTANCES
from repro.search.parallel import ParallelIDAStar
from repro.simd.cost import CostModel
from repro.simd.machine import SimdMachine
from repro.workmodel.stackmodel import StackWorkload
from tests.oracles import ListStackWorkload, opaque

WORK, N_PES, SEED = 8_000, 32, 7

#: Every tier this interpreter runs ("jit" only where numba imports).
TIERS = available_backends()

_stack_oracle: dict[str, object] = {}
_search_oracle: dict[str, object] = {}


def _stack_run(spec: str, kernel_backend: str | None):
    """One sanitized traced run; ``kernel_backend=None`` is the oracle."""
    if kernel_backend is None:
        workload = ListStackWorkload(WORK, N_PES, rng=SEED)
    else:
        workload = StackWorkload(
            WORK, N_PES, rng=SEED, kernel_backend=kernel_backend
        )
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


class TestStackTierIdentity:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("spec", PAPER_SCHEMES)
    def test_tier_matches_list_oracle(self, spec, tier):
        if spec not in _stack_oracle:
            _stack_oracle[spec] = _stack_run(spec, None)
        oracle_metrics, oracle_wl = _stack_oracle[spec]
        metrics, workload = _stack_run(spec, tier)
        assert metrics == oracle_metrics
        assert metrics.trace is not None
        assert [list(s) for s in oracle_wl.stacks] == workload.stacks
        assert (
            workload.rng.bit_generator.state
            == oracle_wl.rng.bit_generator.state
        )

    def test_auto_resolves_and_matches(self):
        spec = "GP-S0.75"
        a = _stack_run(spec, "auto")[0]
        b = _stack_run(spec, "numpy")[0]
        assert a == b


class TestSearchTierIdentity:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("spec", PAPER_SCHEMES)
    def test_tier_matches_list_oracle(self, spec, tier):
        if spec not in _search_oracle:
            _search_oracle[spec] = ParallelIDAStar(
                opaque(BENCH_INSTANCES["tiny"]),
                64,
                spec,
                init_threshold=default_init_threshold(spec),
                sanitize=True,
            ).run()
        oracle = _search_oracle[spec]
        result = ParallelIDAStar(
            BENCH_INSTANCES["tiny"],
            64,
            spec,
            init_threshold=default_init_threshold(spec),
            kernel_backend=tier,
            sanitize=True,
        ).run()
        assert result.total_expanded == oracle.total_expanded
        assert result.bounds == oracle.bounds
        assert result.per_iteration_expanded == oracle.per_iteration_expanded
        assert result.solution_cost == oracle.solution_cost
        assert result.solutions == oracle.solutions
        assert result.metrics == oracle.metrics


class TestMegaGridTierIdentity:
    @pytest.mark.parametrize("tier", TIERS)
    def test_batched_grid_matches_serial_oracle(self, tier):
        schemes = ["GP-S0.90", "nGP-DK"]
        works = [2_000, 5_000]
        pes = [32]
        serial = run_grid(schemes, works, pes, executor="serial")
        batched = run_grid(
            schemes, works, pes, executor="batched", kernel_backend=tier
        )
        assert serial == batched

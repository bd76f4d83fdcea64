"""Micro-benchmarks of the hot kernels.

Times the primitives every experiment is built from: sum-scans at
machine width, matching, a full divisible expansion cycle, one complete
paper-scale run, stack-model expansion, and real 15-puzzle node
expansion.
"""

import numpy as np

from repro.core.matching import GPMatcher, NGPMatcher
from repro.core.scheduler import Scheduler
from repro.experiments.runner import run_divisible
from repro.problems.fifteen_puzzle import BENCH_INSTANCES
from repro.search.parallel import SearchWorkload
from repro.simd.cost import CostModel
from repro.simd.machine import SimdMachine
from repro.simd.scan import sum_scan
from repro.workmodel.divisible import DivisibleWorkload
from repro.workmodel.stackmodel import StackWorkload

P = 8192


def test_sum_scan_cumsum(benchmark):
    values = np.random.default_rng(0).integers(0, 100, P)
    out = benchmark(lambda: sum_scan(values))
    assert len(out) == P


def _masks():
    rng = np.random.default_rng(1)
    busy = rng.random(P) < 0.6
    idle = ~busy & (rng.random(P) < 0.5)
    return busy, idle


def test_ngp_match(benchmark):
    busy, idle = _masks()
    matcher = NGPMatcher()
    result = benchmark(lambda: matcher.match(busy, idle))
    assert len(result) == min(busy.sum(), idle.sum())


def test_gp_match(benchmark):
    busy, idle = _masks()
    matcher = GPMatcher()
    result = benchmark(lambda: matcher.match(busy, idle))
    assert len(result) == min(busy.sum(), idle.sum())


def test_divisible_expand_cycle(benchmark):
    wl = DivisibleWorkload(10**9, P, rng=0, initial="uniform")
    benchmark(wl.expand_cycle)


def test_paper_scale_full_run(benchmark):
    # One complete Table 2 cell at the paper's largest configuration.
    metrics = benchmark.pedantic(
        lambda: run_divisible("GP-S0.90", 16_110_463, 8192, seed=0),
        rounds=1,
        iterations=1,
    )
    assert metrics.total_work == 16_110_463
    assert metrics.efficiency > 0.8


def test_stack_expand_cycle(benchmark):
    # Warm through the scheduler so work is spread over the PEs, then
    # time the raw expansion kernel.
    wl = StackWorkload(P * 64, P, rng=0)
    Scheduler(wl, SimdMachine(P, CostModel()), "GP-S0.75", max_cycles=64).run()
    benchmark(wl.expand_cycle)


def test_stack_arena_full_run(benchmark):
    def run():
        wl = StackWorkload(500_000, P, rng=0)
        Scheduler(wl, SimdMachine(P, CostModel()), "GP-S0.90").run()
        return wl

    wl = benchmark.pedantic(run, rounds=1, iterations=1)
    assert wl.done() and wl.total_expanded() == 500_000


def test_puzzle_expand_cycle(benchmark):
    puzzle = BENCH_INSTANCES["small"]
    wl = SearchWorkload(puzzle, 40, 64)
    # Warm the stacks so the cycle touches many PEs.
    for _ in range(30):
        wl.expand_cycle()
    benchmark(wl.expand_cycle)


def test_puzzle_arena_full_ida(benchmark):
    # A complete parallel IDA* run on the vectorized storage: the
    # end-to-end number behind BENCH_search.json's full_ida section.
    from repro.search.parallel import ParallelIDAStar

    def run():
        return ParallelIDAStar(
            BENCH_INSTANCES["small"], 256, "GP-S0.75"
        ).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.solution_cost is not None

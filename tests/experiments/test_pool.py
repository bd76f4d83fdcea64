"""The pooled grid: who decides to pool, and how the cells are cut.

``run_grid(executor="auto")`` without ``n_jobs`` pools a grid only when
every condition of ``_pool_workers`` holds; each test below breaks one
condition and asserts the grid stays in this process (the
``grid.workers`` gauge reads 0), against the all-conditions-hold case
that pools.  The CPU probe and ``POOL_THRESHOLD`` are monkeypatched so
a tiny grid stands in for a big one.
"""

import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PAPER_SCHEMES, make_scheme
from repro.experiments import runner as runner_mod
from repro.experiments.batched import CellPlan
from repro.experiments.keys import plan_key
from repro.experiments.runner import (
    SMALL_SCALE,
    _cost_shards,
    _pool_context,
    _predicted_cost,
    plan_grid,
    run_grid,
)
from repro.obs import MetricsRegistry
from repro.serve.store import RecordStore

SCHEMES = ["GP-S0.90", "nGP-DK"]
WORKS = [300, 900]
PES = [8, 16]


@pytest.fixture
def big_enough(monkeypatch):
    """Every pool condition holds for the small grid above."""
    monkeypatch.setattr(runner_mod, "POOL_THRESHOLD", 0)
    monkeypatch.setattr(runner_mod, "_usable_cpus", lambda: 2)
    return monkeypatch


def _workers(**kwargs) -> float:
    registry = MetricsRegistry()
    run_grid(SCHEMES, WORKS, PES, base_seed=3, registry=registry, **kwargs)
    return registry.gauge("grid.workers").value


class TestPoolPolicy:
    def test_all_conditions_hold_pools(self, big_enough):
        assert _workers() == 2

    def test_one_cpu_stays_in_process(self, big_enough):
        big_enough.setattr(runner_mod, "_usable_cpus", lambda: 1)
        assert _workers() == 0

    def test_stored_grid_pools(self, big_enough, tmp_path):
        """A store does not keep the grid in this process: the parent
        publishes each pooled cell as its shard lands."""
        store = RecordStore(tmp_path / "cells")
        registry = MetricsRegistry()
        records = run_grid(
            SCHEMES, WORKS, PES, base_seed=3, registry=registry, store=store
        )
        assert registry.gauge("grid.workers").value == 2
        assert records == run_grid(SCHEMES, WORKS, PES, base_seed=3, executor="serial")
        plans = plan_grid(SCHEMES, WORKS, PES, base_seed=3)
        assert [store.get(plan_key(p)) for p in plans] == records

    def test_another_live_thread_stays_in_process(self, big_enough):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert _workers() == 0
        finally:
            release.set()
            thread.join()
        assert _workers() == 2

    def test_n_jobs_one_stays_in_process(self, big_enough):
        assert _workers(n_jobs=1) == 0

    def test_below_threshold_stays_in_process(self, big_enough):
        plans = plan_grid(SCHEMES, WORKS, PES)
        big_enough.setattr(runner_mod, "POOL_THRESHOLD", _predicted_cost(plans) + 1)
        assert _workers() == 0
        big_enough.setattr(runner_mod, "POOL_THRESHOLD", _predicted_cost(plans))
        assert _workers() == 2

    def test_explicit_n_jobs_wins(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_usable_cpus", lambda: 1)
        assert _workers(n_jobs=2) == 2

    def test_unnamed_scheme_stays_in_process(self, big_enough):
        custom = replace(make_scheme("GP-S0.90"), name="custom-GP")
        registry = MetricsRegistry()
        run_grid([custom], WORKS, PES, registry=registry)
        assert registry.gauge("grid.workers").value == 0

    def test_pool_forks_unless_another_thread_is_alive(self):
        assert _pool_context().get_start_method() == "fork"
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert _pool_context().get_start_method() == "spawn"
            # An explicit n_jobs still pools, on spawned workers.
            registry = MetricsRegistry()
            pooled = run_grid(SCHEMES, WORKS, PES, n_jobs=2, registry=registry)
        finally:
            release.set()
            thread.join()
        assert registry.gauge("grid.workers").value == 2
        assert pooled == run_grid(SCHEMES, WORKS, PES, executor="serial")


def test_pooled_cells_keep_an_unrounded_threshold():
    """A pool worker rebuilds each scheme from its name: ``GP-S0.745``
    used to travel as ``GP-S0.74`` and compute that scheme's records."""
    args = (["GP-S0.745"], [30_000, 30_001], [1000])
    serial = run_grid(*args, base_seed=7, executor="serial", sanitize=True)
    pooled = run_grid(*args, base_seed=7, n_jobs=2, sanitize=True)
    assert pooled == serial
    assert [r.scheme for r in serial] == ["GP-S0.745"] * 2


def _plan(index: int, work: int, pes: int) -> CellPlan:
    return CellPlan(index, make_scheme("GP-S0.90"), pes, work, index, None)


cells_st = st.lists(
    st.tuples(st.integers(1, 5_000), st.sampled_from([1, 2, 8, 16, 64])),
    min_size=1,
    max_size=40,
)


class TestCostCut:
    @given(cells_st, st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_cut_is_a_deterministic_partition(self, cells, n):
        plans = [_plan(i, w, p) for i, (w, p) in enumerate(cells)]
        shards = _cost_shards(plans, n)
        assert 1 <= len(shards) <= n and all(shards)
        flat = [p.index for shard in shards for p in shard]
        assert sorted(flat) == list(range(len(plans)))
        assert [[p.index for p in s] for s in _cost_shards(plans, n)] == [
            [p.index for p in s] for s in shards
        ]
        # Longest first; equal-cost cells in index order.
        keys = [(-p.total_work / p.n_pes, p.index) for s in shards for p in s]
        assert keys == sorted(keys)

    def test_reference_grid_cut(self):
        """grid-table1's 36 cells: the six W = 379 601 / P = 256 cells
        and three W = 190 948 / P = 256 cells in one shard, the rest in
        the other, at near-equal predicted cost."""
        plans = plan_grid(list(PAPER_SCHEMES), list(SMALL_SCALE.works[:3]), [256, 512])
        assert round(_predicted_cost(plans)) == 22_128
        first, second = _cost_shards(plans, 2)
        assert len(first) == 9 and len(second) == 27
        assert sorted((p.total_work, p.n_pes) for p in first) == sorted(
            [(379_601, 256)] * 6 + [(190_948, 256)] * 3
        )
        assert round(_predicted_cost(first)) == 11_135
        assert round(_predicted_cost(second)) == 10_993

    def test_one_shard_keeps_every_cell(self):
        plans = plan_grid(SCHEMES, WORKS, PES)
        (only,) = _cost_shards(plans, 1)
        assert sorted(p.index for p in only) == [p.index for p in plans]

"""Batched grid executor: record-identity to the serial oracle.

The ISSUE 7 gate: ``executor="batched"`` must reproduce the serial
``run_grid`` records **bit-for-bit** — same ``cell_seed`` streams, same
float accumulation order, same ledger lines — across all six paper
schemes, with the runtime sanitizer asserting the lock-step invariants
on the batched side as it goes.
"""

import pytest

from repro.core.config import PAPER_SCHEMES, make_scheme
from repro.errors import ConfigError
from repro.experiments.batched import CellPlan, is_batchable, run_batched_cells
from repro.experiments.runner import (
    GRID_EXECUTORS,
    cell_seed,
    plan_grid,
    run_divisible,
    run_grid,
)

SCHEMES = list(PAPER_SCHEMES)
WORKS = [400, 1700]
PES = [8, 32]


@pytest.fixture(scope="module")
def oracle():
    return run_grid(SCHEMES, WORKS, PES, base_seed=11, executor="serial")


class TestRecordIdentity:
    def test_all_paper_schemes_bit_identical(self, oracle):
        batched = run_grid(SCHEMES, WORKS, PES, base_seed=11, executor="batched")
        assert len(batched) == len(oracle)
        for ser, bat in zip(oracle, batched):
            assert bat == ser  # RunMetrics eq covers every ledger float

    def test_sanitized_executor_matches_oracle(self):
        """The sanitizer (conservation + ledger identity) stays silent."""
        plans = plan_grid(SCHEMES, [900], [16], base_seed=5)
        results = run_batched_cells(plans, sanitize=True)
        for plan in plans:
            direct = run_divisible(
                plan.scheme,
                plan.total_work,
                plan.n_pes,
                seed=plan.seed,
                init_threshold=plan.init_threshold,
            )
            assert results[plan.index] == direct

    def test_sharded_processes_match_oracle(self, oracle):
        sharded = run_grid(
            SCHEMES, WORKS, PES, base_seed=11, executor="batched", n_jobs=2
        )
        assert sharded == oracle

    def test_auto_resolves_to_batched_records(self, oracle):
        auto = run_grid(SCHEMES, WORKS, PES, base_seed=11)
        assert auto == oracle

    def test_per_cell_pool_matches_oracle(self, oracle):
        pooled = run_grid(
            SCHEMES, WORKS, PES, base_seed=11, executor="process", n_jobs=2,
            sanitize=True,
        )
        assert pooled == oracle

    def test_auto_under_a_timeout_matches_oracle(self, oracle):
        """Hardening moves the default executor's cells into one pooled
        shard; the records do not notice."""
        hardened = run_grid(
            SCHEMES, WORKS, PES, base_seed=11, timeout=60.0, sanitize=True
        )
        assert hardened == oracle

    def test_single_cell_grid(self):
        ser = run_grid(["GP-DP"], [600], [16], base_seed=3, executor="serial")
        bat = run_grid(["GP-DP"], [600], [16], base_seed=3, executor="batched")
        assert bat == ser

    def test_trivial_one_pe_cells(self):
        """P=1 cells never balance; pure expansion must still agree."""
        ser = run_grid(SCHEMES[:2], [50], [1], base_seed=9, executor="serial")
        bat = run_grid(SCHEMES[:2], [50], [1], base_seed=9, executor="batched")
        assert bat == ser


class TestPlanGrid:
    def test_scheme_major_seeds(self):
        plans = plan_grid(SCHEMES[:2], [100, 200], [4], base_seed=21)
        assert [p.index for p in plans] == list(range(4))
        for plan in plans:
            assert plan.seed == cell_seed(21, plan.index)
        # scheme-major: first two cells share the first scheme
        assert plans[0].scheme.name == plans[1].scheme.name == SCHEMES[0]

    def test_threshold_resolved(self):
        plans = plan_grid(["GP-S0.90", "GP-DP"], [100], [4], base_seed=0)
        static, dp = plans
        assert static.init_threshold is None
        assert dp.init_threshold == pytest.approx(0.85)

    def test_explicit_threshold_passes_through(self):
        (plan,) = plan_grid(["GP-S0.90"], [100], [4], init_threshold=0.5)
        assert plan.init_threshold == 0.5


class TestExecutorSelection:
    def test_executor_registry(self):
        assert GRID_EXECUTORS == ("auto", "serial", "process", "batched")

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigError, match="executor"):
            run_grid(SCHEMES[:1], [100], [4], executor="vector")

    def test_batched_accepts_timeout_without_fallback(self, oracle):
        """Hardening no longer forces the slow path: explicit batched with
        a timeout runs the shard pool and stays record-identical."""
        hardened = run_grid(
            SCHEMES, WORKS, PES, base_seed=11, executor="batched", timeout=60.0
        )
        assert hardened == oracle

    def test_process_requires_jobs(self):
        with pytest.raises(ConfigError, match="n_jobs"):
            run_grid(SCHEMES[:1], [100], [4], executor="process")

    def test_paper_schemes_are_batchable(self):
        for name in SCHEMES:
            assert is_batchable(make_scheme(name)), name

    def test_unbatchable_cells_fall_back_serially(self):
        """An opaque-factory scheme routes through the serial oracle but
        still lands in the same record slot with the same seed."""
        from repro.baselines.fess_fegs import fess_scheme

        fess = fess_scheme()
        if is_batchable(fess):  # pragma: no cover - registry drift guard
            pytest.skip("fess became batchable; update this test")
        mixed = [SCHEMES[0], fess]
        ser = run_grid(mixed, [300], [8], base_seed=2, executor="serial")
        bat = run_grid(mixed, [300], [8], base_seed=2, executor="batched")
        assert bat == ser


class TestCellPlan:
    def test_frozen(self):
        plan = CellPlan(
            index=0,
            scheme=make_scheme("GP-S0.90"),
            n_pes=4,
            total_work=10,
            seed=1,
            init_threshold=None,
        )
        with pytest.raises(AttributeError):
            plan.seed = 2

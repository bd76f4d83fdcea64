from dataclasses import replace

import pytest

from repro.baselines.fess_fegs import fess_scheme
from repro.core.config import make_scheme
from repro.experiments.runner import (
    PAPER_SCALE,
    SMALL_SCALE,
    TINY_SCALE,
    cell_seed,
    default_init_threshold,
    run_divisible,
    run_grid,
)


def _renamed(spec: str):
    """``make_scheme(spec)`` under a name ``make_scheme`` cannot parse."""
    return replace(make_scheme(spec), name=f"custom[{spec}]")


class TestScales:
    def test_paper_scale_matches_section5(self):
        assert PAPER_SCALE.n_pes == 8192
        assert PAPER_SCALE.works == (941_852, 3_055_171, 6_073_623, 16_110_463)
        assert PAPER_SCALE.table5_work == 2_067_137

    def test_small_scale_preserves_ratios(self):
        for pw, sw in zip(PAPER_SCALE.works, SMALL_SCALE.works):
            assert sw == pytest.approx(pw / 16, rel=0.01)
        assert SMALL_SCALE.n_pes == PAPER_SCALE.n_pes / 16

    def test_largest_work(self):
        assert TINY_SCALE.largest_work == TINY_SCALE.works[-1]


class TestDefaultInitThreshold:
    def test_dynamic_gets_085(self):
        assert default_init_threshold("GP-DK") == 0.85
        assert default_init_threshold("nGP-DP") == 0.85
        assert default_init_threshold(make_scheme("GP-DP")) == 0.85

    def test_static_gets_none(self):
        assert default_init_threshold("GP-S0.9") is None

    def test_unparseable_scheme_gets_none(self):
        from repro.baselines.fess_fegs import fess_scheme

        assert default_init_threshold(fess_scheme()) is None


class TestRunDivisible:
    def test_returns_complete_metrics(self):
        m = run_divisible("GP-S0.75", 5_000, 32, seed=1)
        assert m.total_work == 5_000
        assert m.scheme == "GP-S0.75"
        assert 0 < m.efficiency <= 1

    def test_deterministic_given_seed(self):
        a = run_divisible("GP-DK", 5_000, 32, seed=7)
        b = run_divisible("GP-DK", 5_000, 32, seed=7)
        assert a.n_expand == b.n_expand
        assert a.n_lb == b.n_lb

    def test_auto_init_threshold_applied(self):
        m = run_divisible("GP-DK", 5_000, 32, seed=1)
        assert m.n_init_lb > 0
        m2 = run_divisible("GP-DK", 5_000, 32, seed=1, init_threshold=None)
        assert m2.n_init_lb == 0


class TestRunGrid:
    def test_full_cross_product(self):
        records = run_grid(["GP-S0.75", "nGP-S0.75"], [2_000, 4_000], [16, 32])
        assert len(records) == 8
        keys = {(r.scheme, r.total_work, r.n_pes) for r in records}
        assert len(keys) == 8

    def test_cells_reproducible(self):
        a = run_grid(["GP-S0.75"], [2_000], [16], base_seed=3)
        b = run_grid(["GP-S0.75"], [2_000, 4_000], [16, 32], base_seed=3)
        assert a[0].metrics.n_expand == b[0].metrics.n_expand

    def test_efficiency_property(self):
        records = run_grid(["GP-S0.75"], [5_000], [16])
        assert records[0].efficiency == records[0].metrics.efficiency

    def test_seeds_are_scheme_major(self):
        """Regression: cell i's metrics equal a direct run_divisible with
        cell_seed(base, i), i enumerated scheme-major (scheme, P, W) — the
        order the docstring promises and parallel execution must keep."""
        schemes, works, pes, base = ["GP-S0.75", "nGP-S0.75"], [2_000, 4_000], [16, 32], 9
        records = run_grid(schemes, works, pes, base_seed=base)
        index = 0
        for spec in schemes:
            for n_pes in pes:
                for total_work in works:
                    direct = run_divisible(
                        spec, total_work, n_pes, seed=cell_seed(base, index)
                    )
                    assert records[index].scheme == make_scheme(spec).name
                    assert records[index].n_pes == n_pes
                    assert records[index].total_work == total_work
                    assert records[index].metrics == direct
                    index += 1


class TestRunGridParallel:
    def test_parallel_records_identical_to_serial(self):
        schemes, works, pes = ["GP-S0.75", "GP-DK"], [2_000, 4_000], [16]
        serial = run_grid(schemes, works, pes, base_seed=5)
        parallel = run_grid(schemes, works, pes, base_seed=5, n_jobs=2)
        assert serial == parallel

    def test_n_jobs_one_is_serial(self):
        a = run_grid(["GP-S0.75"], [2_000], [16], base_seed=2)
        b = run_grid(["GP-S0.75"], [2_000], [16], base_seed=2, n_jobs=1)
        assert a == b

    def test_unroundtrippable_scheme_rejected(self):
        # A batchable scheme whose name make_scheme cannot rebuild cannot
        # reach a pool worker; asked for by n_jobs, the pool refuses it.
        with pytest.raises(ValueError, match="serial"):
            run_grid([_renamed("GP-S0.75")], [2_000, 4_000], [16], n_jobs=2)

    def test_unroundtrippable_scheme_fine_serially(self):
        from repro.errors import ExecutorFallbackWarning

        with pytest.warns(ExecutorFallbackWarning, match="FESS"):
            records = run_grid([fess_scheme()], [2_000], [16])
        assert len(records) == 1

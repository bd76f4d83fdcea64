"""The content-addressed cell key: pure, distinct, and versioned.

A key is the identity a grid cell's record is stored and resumed
under, so it must change with everything that determines the record —
the scheme's exact threshold included — and with nothing else.
"""

from repro.experiments.journal import cell_key, code_version, plan_key
from repro.experiments.runner import plan_grid
from repro.experiments.store import SCHEMA_VERSION


class TestCellKey:
    def test_pure_and_distinct(self):
        k = cell_key("GP-DK", 1000, 64, 7)
        assert k == cell_key("GP-DK", 1000, 64, 7)
        assert k != cell_key("GP-DK", 1000, 64, 8)
        assert k != cell_key("GP-DP", 1000, 64, 7)
        assert k != cell_key("GP-DK", 1001, 64, 7)
        assert k != cell_key("GP-DK", 1000, 32, 7)

    def test_code_version_invalidates(self):
        assert cell_key("GP-DK", 1000, 64, 7) != cell_key(
            "GP-DK", 1000, 64, 7, version="other-build"
        )

    def test_code_version_folds_schemas(self):
        v = code_version()
        assert v.endswith(f"+records-v{SCHEMA_VERSION}")


class TestPlanKey:
    def test_spellings_of_one_threshold_share_keys(self):
        """``GP-S0.5`` and ``GP-S0.50`` build the same scheme, so their
        cells are one record under one key."""
        assert [plan_key(p) for p in plan_grid(["GP-S0.5"], [300], [8])] == [
            plan_key(p) for p in plan_grid(["GP-S0.50"], [300], [8])
        ]

    def test_distinct_thresholds_have_distinct_keys(self):
        """``GP-S0.745`` computes different records from ``GP-S0.74``;
        a two-decimal name used to give both the same keys."""
        near = plan_grid(["GP-S0.745"], [30_000, 30_001], [1000], base_seed=7)
        two = plan_grid(["GP-S0.74"], [30_000, 30_001], [1000], base_seed=7)
        assert near[0].scheme.name == "GP-S0.745"
        assert not {plan_key(p) for p in near} & {plan_key(p) for p in two}

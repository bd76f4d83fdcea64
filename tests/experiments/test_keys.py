"""The content-addressed cell key: pure, distinct, and versioned.

A key is the identity a grid cell's record is stored and resumed
under, so it must change with everything that determines the record —
every field of the cell's plan but its grid index — and with nothing
else.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.fess_fegs import fess_scheme
from repro.core.config import make_scheme
from repro.errors import ConfigError
from repro.experiments import keys
from repro.experiments.batched import CellPlan
from repro.experiments.keys import code_version, plan_key
from repro.experiments.runner import plan_grid, run_grid
from repro.experiments.store import SCHEMA_VERSION
from repro.obs import MetricsRegistry
from repro.serve.store import RecordStore
from repro.simd.cost import CostModel
from repro.simd.topology import HypercubeTopology

#: The cell ROADMAP's key readings were taken on.
READING = dict(schemes=["GP-DK"], works=[30_000], pes=[256], base_seed=3)
TWELVE_X = CostModel(lb_cost_multiplier=12)


def _plan(fields: dict, index: int = 0) -> CellPlan:
    return CellPlan(index, make_scheme(fields["scheme"]), **{
        name: value for name, value in fields.items() if name != "scheme"
    })


def _same_cell(a: dict, b: dict) -> bool:
    """Whether two plans' fields are equal, the scheme compared as the
    scheme its name builds."""
    return make_scheme(a["scheme"]).name == make_scheme(b["scheme"]).name and all(
        a[name] == b[name] for name in a if name != "scheme"
    )


_FIELDS = st.fixed_dictionaries(
    {
        "scheme": st.sampled_from(
            ["GP-DK", "GP-DP", "nGP-DK", "GP-S0.5", "GP-S0.50", "GP-S0.745", "GP-S0.74"]
        ),
        "n_pes": st.sampled_from([32, 64]),
        "total_work": st.sampled_from([1000, 1001]),
        "seed": st.sampled_from([7, 8]),
        "init_threshold": st.sampled_from([None, 0.5, 0.85, 0.8500000000000001]),
        "cost_model": st.sampled_from(
            [
                CostModel(),
                TWELVE_X,
                CostModel(lb_cost_multiplier=12.0),
                CostModel(lb_cost_multiplier=16),
                CostModel(u_calc=0.030000000000000002),
                CostModel(topology=HypercubeTopology()),
            ]
        ),
    }
)

_CELL = dict(
    scheme="GP-DK", total_work=1000, n_pes=64, seed=7, init_threshold=0.85,
    cost_model=CostModel(),
)


class TestPlanKey:
    @settings(max_examples=300, deadline=None)
    @given(a=_FIELDS, b=_FIELDS, index_a=st.integers(0, 9), index_b=st.integers(0, 9))
    @example(a=_CELL, b={**_CELL, "seed": 8}, index_a=0, index_b=0)
    @example(a=_CELL, b={**_CELL, "scheme": "GP-DP"}, index_a=0, index_b=0)
    @example(a=_CELL, b={**_CELL, "total_work": 1001}, index_a=0, index_b=0)
    @example(a=_CELL, b={**_CELL, "n_pes": 32}, index_a=0, index_b=0)
    @example(a=_CELL, b={**_CELL, "cost_model": TWELVE_X}, index_a=0, index_b=0)
    @example(a=_CELL, b={**_CELL, "init_threshold": 0.5}, index_a=0, index_b=0)
    @example(a=_CELL, b=_CELL, index_a=0, index_b=5)
    def test_pure_and_distinct(self, a, b, index_a, index_b):
        """Two plans share a key exactly when every field but ``index``
        is equal, the scheme as the scheme its name builds."""
        key_a = plan_key(_plan(a, index_a))
        assert key_a == plan_key(_plan(a, index_a))
        assert (key_a == plan_key(_plan(b, index_b))) == _same_cell(a, b)

    def test_code_version_invalidates(self, monkeypatch):
        plan = _plan(_CELL)
        before = plan_key(plan)
        monkeypatch.setattr(keys, "code_version", lambda: "other-build")
        assert plan_key(plan) != before

    def test_code_version_folds_schemas(self):
        v = code_version()
        assert v.endswith(f"+records-v{SCHEMA_VERSION}")

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

    def test_opaque_scheme_has_no_key(self, tmp_path):
        """A scheme ``make_scheme`` cannot rebuild is not keyed by its
        bare name: a stored grid over it is refused before any cell runs."""
        (plan,) = plan_grid([fess_scheme()], [400], [8])
        with pytest.raises(ConfigError, match="cannot be rebuilt"):
            plan_key(plan)
        store = RecordStore(tmp_path / "cells")
        with pytest.raises(ConfigError, match="cannot be rebuilt"):
            run_grid([fess_scheme(), "GP-DK"], [400], [8], store=store)
        assert len(store) == 0


class TestOneStoreManyCells:
    """A store that already holds a grid answers a grid that differs in
    any record-determining field with that grid's own records."""

    def test_lb_cost_multiplier(self, tmp_path):
        store = RecordStore(tmp_path / "cells")
        first = run_grid(**READING, store=store)
        registry = MetricsRegistry()
        again = run_grid(**READING, cost_model=TWELVE_X, store=store, registry=registry)
        assert "grid.resumed_cells" not in registry.snapshot()["counters"]
        assert again == run_grid(**READING, cost_model=TWELVE_X)
        assert again != first

    def test_init_threshold(self, tmp_path):
        store = RecordStore(tmp_path / "cells")
        grid = dict(READING, schemes=["GP-S0.90"])
        first = run_grid(**grid, store=store)
        again = run_grid(**grid, init_threshold=0.5, store=store)
        assert again == run_grid(**grid, init_threshold=0.5)
        assert again != first

    def test_pooled_equals_serial_at_each_cost(self, tmp_path):
        """A pooled, sanitized grid at 1x then 12x on one store: each run
        equals the serial oracle at its own cost, and the 12x run
        resumes nothing."""
        store = RecordStore(tmp_path / "cells")
        grid = dict(schemes=["GP-DK", "nGP-DP", "GP-S0.90"], works=[3_000, 6_000],
                    pes=[64], base_seed=3)
        for cost in (CostModel(), TWELVE_X):
            registry = MetricsRegistry()
            pooled = run_grid(**grid, cost_model=cost, n_jobs=2, sanitize=True,
                              store=store, registry=registry)
            assert "grid.resumed_cells" not in registry.snapshot()["counters"]
            assert pooled == run_grid(**grid, cost_model=cost, executor="serial",
                                      sanitize=True)
        assert len(store) == 2 * len(pooled)

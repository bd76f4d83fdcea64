"""Batched grid executor: record-identity to the serial oracle.

The gate: the in-process mega-arena (``run_grid(..., n_jobs=1)``) and
its pooled shards must reproduce the serial
``run_grid`` records **bit-for-bit** — same ``cell_seed`` streams, same
float accumulation order, same ledger lines — across all six paper
schemes, with the runtime sanitizer asserting the lock-step invariants
on the batched side as it goes.
"""

import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PAPER_SCHEMES, Scheme, make_scheme
from repro.core.matching import GPMatcher
from repro.core.scheduler import Scheduler
from repro.errors import ConfigError, ExecutorFallbackWarning
from repro.experiments import runner as runner_mod
from repro.experiments.batched import (
    CellPlan,
    MegaGridExecutor,
    is_batchable,
    run_batched_cells,
)
from repro.experiments.runner import (
    GRID_EXECUTORS,
    cell_seed,
    plan_grid,
    run_divisible,
    run_grid,
)
from repro.lint.runtime import SanitizerError
from repro.obs import MetricsRegistry
from repro.simd.cost import CostModel

SCHEMES = list(PAPER_SCHEMES)
WORKS = [400, 1700]
PES = [8, 32]


@pytest.fixture(scope="module")
def oracle():
    return run_grid(SCHEMES, WORKS, PES, base_seed=11, executor="serial")


class TestRecordIdentity:
    def test_all_paper_schemes_bit_identical(self, oracle):
        batched = run_grid(SCHEMES, WORKS, PES, base_seed=11, n_jobs=1)
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
        sharded = run_grid(SCHEMES, WORKS, PES, base_seed=11, n_jobs=2)
        assert sharded == oracle

    def test_auto_resolves_to_batched_records(self, oracle):
        auto = run_grid(SCHEMES, WORKS, PES, base_seed=11)
        assert auto == oracle

    def test_pooled_auto_matches_oracle(self, oracle, monkeypatch):
        """The default executor, made to pool this small grid, shards its
        mixed-W/P cells (they finish at different cycles and leave their
        shard's arena one by one) and still equals the serial oracle."""
        monkeypatch.setattr(runner_mod, "POOL_THRESHOLD", 0)
        monkeypatch.setattr(runner_mod, "_usable_cpus", lambda: 2)
        registry = MetricsRegistry()
        pooled = run_grid(
            SCHEMES, WORKS, PES, base_seed=11, sanitize=True, registry=registry
        )
        assert registry.gauge("grid.workers").value == 2
        assert registry.histogram("grid.shard_s").count == 2
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
        bat = run_grid(["GP-DP"], [600], [16], base_seed=3, n_jobs=1)
        assert bat == ser

    def test_trivial_one_pe_cells(self):
        """P=1 cells never balance; pure expansion must still agree."""
        ser = run_grid(SCHEMES[:2], [50], [1], base_seed=9, executor="serial")
        bat = run_grid(SCHEMES[:2], [50], [1], base_seed=9, n_jobs=1)
        assert bat == ser


def gp_variant(spec: str, advance: str, matcher=GPMatcher) -> Scheme:
    """``make_scheme(spec)`` with its GP pointer advancing per ``advance``."""
    return replace(
        make_scheme(spec),
        name=f"GP[{advance}]{spec[2:]}",
        matcher_factory=partial(matcher, advance=advance),
    )


GP_SPECS = ("GP-S0.75", "GP-DP", "GP-DK")


class TestNonDefaultGPAdvance:
    """``is_batchable`` accepts any ``GPMatcher``; the ablation policies
    must run through the batched executor as they do serially."""

    @pytest.mark.parametrize("advance", ["first_donor", "frozen"])
    def test_batched_matches_serial(self, advance):
        schemes = [gp_variant(s, advance) for s in GP_SPECS]
        assert all(is_batchable(s) for s in schemes)
        args = (schemes, WORKS, PES)
        ser = run_grid(*args, base_seed=13, executor="serial", sanitize=True)
        bat = run_grid(*args, base_seed=13, n_jobs=1, sanitize=True)
        assert bat == ser
        # The policy is really exercised: it changes some record.
        default = run_grid(list(GP_SPECS), WORKS, PES, base_seed=13, executor="serial")
        assert [r.metrics.n_transfers for r in bat] != [
            r.metrics.n_transfers for r in default
        ]


#: GP/nGP x S^x over the threshold's ends and middle, plus D_P and D_K.
TRIGGER_SPECS = [
    f"{m}-{t}"
    for m in ("GP", "nGP")
    for t in ("S0", "S0.3", "S0.75", "S1", "DP", "DK")
]


def _lb_attempt_cycles(monkeypatch):
    """Spy on both loops: the cycles at which each cell asks for an LB
    phase, keyed by grid index (the serial path runs cells in index
    order, the batched one knows each cell's plan)."""
    serial: list[list[int]] = []
    batched: dict[int, list[int]] = {}
    run, maybe_balance, balance = (
        Scheduler.run, Scheduler._maybe_balance, MegaGridExecutor._balance
    )

    def scheduler_run(self):
        serial.append([])
        return run(self)

    def scheduler_balance(self, matcher, trigger):
        serial[-1].append(self.machine.n_cycles)
        return maybe_balance(self, matcher, trigger)

    def executor_balance(self, c):
        batched.setdefault(self.runs[c].plan.index, []).append(self.cycles)
        return balance(self, c)

    monkeypatch.setattr(Scheduler, "run", scheduler_run)
    monkeypatch.setattr(Scheduler, "_maybe_balance", scheduler_balance)
    monkeypatch.setattr(MegaGridExecutor, "_balance", executor_balance)
    return serial, batched


class TestTriggerLanes:
    """Every lane carries all three trigger kinds behind sentinels; the
    fire expression must decide exactly what each cell's serial trigger
    decides, over grids that mix the kinds in one arena."""

    @given(
        schemes=st.lists(st.sampled_from(TRIGGER_SPECS), min_size=1, max_size=4, unique=True),
        works=st.lists(st.sampled_from([1, 2, 3, 40, 150, 600]), min_size=1, max_size=2, unique=True),
        pes=st.lists(st.sampled_from([1, 2, 8, 32]), min_size=1, max_size=2, unique=True),
        init_threshold=st.sampled_from([None, 0.5, 0.85]),
        lb_multiplier=st.sampled_from([1.0, 12.0]),
        base_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_grids_match_serial(
        self, schemes, works, pes, init_threshold, lb_multiplier, base_seed
    ):
        """Records alone miss a sentinel that fires a cell with no busy
        PE (the phase is skipped and nothing is charged), so the cycles
        of every LB attempt are compared too.  ``P = 1``, ``W <= 3`` and
        two schemes at one (W, P) give cells that end on the same cycle."""
        with pytest.MonkeyPatch.context() as monkeypatch, warnings.catch_warnings():
            warnings.simplefilter("error")  # a 0 * inf sentinel would warn
            serial_attempts, batched_attempts = _lb_attempt_cycles(monkeypatch)
            kwargs = dict(
                base_seed=base_seed,
                init_threshold=init_threshold,
                cost_model=CostModel().with_lb_multiplier(lb_multiplier),
            )
            ser = run_grid(schemes, works, pes, executor="serial", **kwargs)
            bat = run_grid(schemes, works, pes, n_jobs=1, sanitize=True, **kwargs)
        assert bat == ser
        assert serial_attempts == [
            batched_attempts.get(i, []) for i in range(len(ser))
        ]


class _OffByOneRotation(GPMatcher):
    """Seeded defect: the wrapped half of the rotation repeats its first
    busy PE, so a round with more idle PEs than busy ones after the
    pointer pairs that PE twice."""

    def _pair(self, busy_idx, start, idle_idx):
        if start:
            busy_idx = np.concatenate((busy_idx[start:], busy_idx[: start + 1]))
        return super()._pair(busy_idx, 0, idle_idx)


class _PointerBeforeDonor(GPMatcher):
    """Seeded defect: the pointer lands one before the last donor — at
    -1 once PE 0 donates, as it does first (the root starts there)."""

    def _advance(self, donors):
        self.pointer = int(donors[-1]) - 1


class TestBatchedSanitizer:
    def _run(self, matcher):
        scheme = gp_variant("GP-DK", "last_donor", matcher)
        plans = plan_grid([scheme], [900], [32], base_seed=5)
        return run_batched_cells(plans, sanitize=True)

    def test_clean_matcher_passes(self):
        assert len(self._run(GPMatcher)) == 1

    def test_off_by_one_rotation_trips_pairing_check(self):
        with pytest.raises(SanitizerError) as err:
            self._run(_OffByOneRotation)
        assert err.value.invariant == "lb-pairing"

    def test_pointer_out_of_range_trips_range_check(self):
        with pytest.raises(SanitizerError) as err:
            self._run(_PointerBeforeDonor)
        assert err.value.invariant == "gp-pointer-range"


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
        assert GRID_EXECUTORS == ("auto", "serial")

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigError, match="executor"):
            run_grid(SCHEMES[:1], [100], [4], executor="vector")
        # No "batched" value: the in-process arena is n_jobs=1.
        with pytest.raises(ConfigError, match="executor"):
            run_grid(SCHEMES[:1], [100], [4], executor="batched")

    def test_batched_accepts_timeout_without_fallback(self, oracle):
        """Hardening does not force the slow path: the in-process arena
        with a timeout runs the shard pool and stays record-identical."""
        hardened = run_grid(
            SCHEMES, WORKS, PES, base_seed=11, n_jobs=1, timeout=60.0
        )
        assert hardened == oracle

    @pytest.mark.parametrize("n_jobs", [0, -1, 2.0, True])
    def test_n_jobs_must_be_none_or_positive_int(self, n_jobs):
        """``0`` and joblib's ``-1`` used to run one worker silently."""
        with pytest.raises(ConfigError, match="n_jobs"):
            run_grid(SCHEMES[:1], [100], [4], n_jobs=n_jobs)

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
        with pytest.warns(ExecutorFallbackWarning, match="FESS"):
            bat = run_grid(mixed, [300], [8], base_seed=2, n_jobs=1)
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

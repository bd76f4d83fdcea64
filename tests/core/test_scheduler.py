import numpy as np
import pytest

from repro.core.scheduler import Scheduler
from repro.core.splitting import AlphaSplitter
from repro.obs import Observability, RingBufferSink
from repro.simd.cost import CostModel
from repro.simd.machine import SimdMachine
from repro.workmodel.divisible import DivisibleWorkload


def run(spec, work=20_000, n_pes=64, seed=0, **kwargs):
    wl = DivisibleWorkload(work, n_pes, rng=seed)
    machine = SimdMachine(n_pes, CostModel())
    metrics = Scheduler(wl, machine, spec, **kwargs).run()
    return wl, machine, metrics


class TestSchedulerBasics:
    @pytest.mark.parametrize(
        "spec", ["nGP-S0.5", "GP-S0.9", "GP-DP", "GP-DK", "nGP-DP", "nGP-DK"]
    )
    def test_exhausts_all_work(self, spec):
        wl, machine, metrics = run(spec)
        assert wl.done()
        assert metrics.total_work == 20_000
        assert wl.check_conservation()

    @pytest.mark.parametrize("spec", ["GP-S0.8", "GP-DK"])
    def test_time_identity(self, spec):
        _, machine, _ = run(spec)
        assert machine.check_time_identity()

    def test_metrics_match_machine_counters(self):
        _, machine, metrics = run("GP-S0.7")
        assert metrics.n_expand == machine.n_cycles
        assert metrics.n_lb == machine.n_lb_phases
        assert metrics.n_transfers == machine.n_transfers

    def test_efficiency_in_unit_interval(self):
        _, _, metrics = run("GP-S0.9")
        assert 0.0 < metrics.efficiency <= 1.0

    def test_pe_count_mismatch_rejected(self):
        wl = DivisibleWorkload(100, 8)
        machine = SimdMachine(16, CostModel())
        with pytest.raises(ValueError, match="PEs"):
            Scheduler(wl, machine, "GP-S0.5")

    def test_bad_init_threshold_rejected(self):
        wl = DivisibleWorkload(100, 8)
        machine = SimdMachine(8, CostModel())
        with pytest.raises(ValueError, match="init_threshold"):
            Scheduler(wl, machine, "GP-S0.5", init_threshold=1.5)

    def test_max_cycles_caps_run(self):
        wl = DivisibleWorkload(10**9, 4)
        machine = SimdMachine(4, CostModel())
        Scheduler(wl, machine, "GP-S0.5", max_cycles=10).run()
        assert machine.n_cycles <= 10
        assert not wl.done()

    def test_scheme_string_resolved(self):
        _, _, metrics = run("GP-S0.75")
        assert metrics.scheme == "GP-S0.75"


class TestInitialDistribution:
    def test_init_phase_activates_target_fraction(self):
        wl = DivisibleWorkload(50_000, 64, rng=1)
        machine = SimdMachine(64, CostModel())
        metrics = Scheduler(wl, machine, "GP-DK", init_threshold=0.85).run()
        assert metrics.n_init_lb > 0
        assert wl.done()

    def test_init_counts_toward_lb_total(self):
        wl = DivisibleWorkload(50_000, 64, rng=1)
        machine = SimdMachine(64, CostModel())
        metrics = Scheduler(wl, machine, "GP-DK", init_threshold=0.85).run()
        assert metrics.n_lb >= metrics.n_init_lb


def traced(spec, **kwargs):
    """A run traced through a ring-buffer event sink: (metrics, sink)."""
    sink = RingBufferSink()
    _, _, metrics = run(spec, obs=Observability(events=sink), **kwargs)
    return metrics, sink


class TestTrace:
    def test_trace_lengths_consistent(self):
        metrics, sink = traced("GP-DK", init_threshold=0.85)
        cycles, lbs = sink.events("cycle"), sink.events("lb")
        assert [e.cycle for e in cycles] == list(range(metrics.n_expand))
        assert len(lbs) == metrics.n_lb
        assert all(0 <= e.cycle < metrics.n_expand for e in lbs)
        assert sink.dropped == 0

    def test_no_trace_by_default(self):
        scheduler = Scheduler(
            DivisibleWorkload(2_000, 16), SimdMachine(16, CostModel()), "GP-S0.5"
        )
        metrics = scheduler.run()
        assert scheduler.obs is None
        assert not hasattr(metrics, "trace")

    def test_total_expansions_sum_to_work(self):
        metrics, sink = traced("GP-S0.8")
        assert sum(e.expanding for e in sink.events("cycle")) == 20_000

    def test_avg_busy_fraction_matches_the_cycle_events(self):
        metrics, sink = traced("GP-DP", init_threshold=0.85)
        expanding = [e.expanding for e in sink.events("cycle")]
        assert metrics.avg_busy_fraction == sum(expanding) / (
            len(expanding) * metrics.n_pes
        )


class TestStaticTriggerBehaviour:
    def test_at_least_one_cycle_between_phases(self):
        # N_lb can never exceed N_expand: triggering is only tested after
        # a completed expansion cycle.
        _, _, metrics = run("GP-S0.95")
        assert metrics.n_lb <= metrics.n_expand

    def test_higher_threshold_more_phases(self):
        _, _, low = run("GP-S0.5")
        _, _, high = run("GP-S0.9")
        assert high.n_lb > low.n_lb

    def test_gp_never_more_phases_than_ngp_at_high_x(self):
        _, _, gp = run("GP-S0.9", work=100_000, n_pes=128)
        _, _, ngp = run("nGP-S0.9", work=100_000, n_pes=128)
        assert gp.n_lb <= ngp.n_lb


class TestMultipleTransfers:
    def test_dp_does_more_total_transfers(self):
        # Section 7: "the D_P-triggering scheme performs more work
        # transfers than the D_K-triggering scheme" (multiple rounds per
        # phase and earlier triggering).
        _, _, dp = run("GP-DP", work=100_000, n_pes=128, init_threshold=0.85)
        _, _, dk = run("GP-DK", work=100_000, n_pes=128, init_threshold=0.85)
        assert dp.n_transfers > dk.n_transfers

    def test_dk_transfers_equal_phases_after_init(self):
        # D_K performs a single transfer round per phase; transfers can
        # exceed phases only through the multi-PE rounds (one transfer per
        # matched pair), so each phase moves at least one piece.
        _, _, dk = run("GP-DK", init_threshold=0.85)
        assert dk.n_transfers >= dk.n_lb

"""Observation purity: instrumentation never changes what a run computes.

The canonical acceptance test of the observability layer — for every
Table 1 scheme on the arena workload and on the test-side list oracle
(which must also agree with each other), with the runtime sanitizer
asserting the lock-step invariants throughout, a fully instrumented run
(ring-buffer events + metrics registry + active profiler) produces
``RunMetrics`` bit-identical to a bare run, and the event stream — the
run's one per-cycle record — equals the oracle's event for event.
"""

import itertools

import pytest

from repro.core.config import PAPER_SCHEMES
from repro.core.scheduler import Scheduler
from repro.experiments.runner import default_init_threshold
from repro.lint.runtime import SanitizerError, check_observation_purity
from repro.obs import MetricsRegistry, Observability, Profiler, RingBufferSink, profiled
from repro.problems.npuzzle import SlidingPuzzle
from repro.search.parallel import ParallelIDAStar
from repro.simd.machine import SimdMachine
from repro.workmodel.stackmodel import StackWorkload
from tests.oracles import ListStackWorkload

WORK, N_PES, SEED = 6_000, 32, 5
WORKLOADS = {"list": ListStackWorkload, "arena": StackWorkload}


def _run(spec, backend, obs=None):
    workload = WORKLOADS[backend](WORK, N_PES, rng=SEED)
    machine = SimdMachine(N_PES)
    return Scheduler(
        workload,
        machine,
        spec,
        init_threshold=default_init_threshold(spec),
        sanitize=True,
        obs=obs,
    ).run()


class TestPurityAcrossSchemes:
    @pytest.mark.parametrize("backend", ["list", "arena"])
    @pytest.mark.parametrize("spec", PAPER_SCHEMES)
    def test_metrics_bit_identical_with_full_instrumentation(self, spec, backend):
        oracle_events = RingBufferSink()
        oracle = _run(spec, "list", obs=Observability(events=oracle_events))
        bare = _run(spec, backend)
        obs = Observability(events=RingBufferSink(), metrics=MetricsRegistry())
        with profiled(Profiler()):
            observed = _run(spec, backend, obs=obs)
        check_observation_purity(bare, observed)
        assert bare == observed == oracle
        # Every cycle and LB-phase event, in order, field for field.
        assert obs.events.events() == oracle_events.events()
        assert len(obs.events.events("cycle")) == observed.n_expand
        assert len(obs.events.events("lb")) == observed.n_lb
        assert obs.metrics.counter("runs_total").value == 0  # folded by drivers


class TestObservedSeriesConsistency:
    def test_lb_events_count_phases(self):
        obs = Observability(events=RingBufferSink())
        metrics = _run("GP-DK", "arena", obs=obs)
        lb = obs.events.events("lb")
        # Initial-distribution phases emit LBPhaseEvents too, as n_lb
        # counts them.
        assert metrics.n_init_lb > 0
        assert len(lb) == metrics.n_lb
        assert 0 < sum(e.transfers for e in lb) <= metrics.n_transfers


class TestPurityChecker:
    def test_flags_first_differing_field(self):
        a = _run("GP-DK", "arena")
        b = _run("GP-DP", "arena")
        with pytest.raises(SanitizerError, match="observation-purity"):
            check_observation_purity(a, b)


class TestIterationDeltas:
    """Each ``IterationEvent`` carries its bound's share of the shared
    machine ledger; over a run the shares add up to the run's totals."""

    @pytest.mark.parametrize("spec", ["GP-DK", "nGP-S0.75"])
    def test_deltas_sum_to_run_totals(self, spec):
        problem = SlidingPuzzle.scrambled(4, 30, rng=11)
        kwargs = dict(init_threshold=default_init_threshold(spec), sanitize=True)
        bare = ParallelIDAStar(problem, N_PES, spec, **kwargs).run()
        obs = Observability(events=RingBufferSink(), metrics=MetricsRegistry())
        observed = ParallelIDAStar(problem, N_PES, spec, obs=obs, **kwargs).run()
        assert observed == bare
        check_observation_purity(bare.metrics, observed.metrics)

        iterations = obs.events.events("iteration")
        metrics = observed.metrics
        assert len(iterations) == len(observed.bounds) > 1
        assert [e.bound for e in iterations] == list(observed.bounds)
        assert [e.expanded for e in iterations] == list(observed.per_iteration_expanded)
        assert sum(e.cycles for e in iterations) == metrics.n_expand
        assert sum(e.n_lb for e in iterations) == metrics.n_lb
        assert sum(e.n_transfers for e in iterations) == metrics.n_transfers
        assert [e.cycle for e in iterations] == list(
            itertools.accumulate(e.cycles for e in iterations)
        )
        assert sum(e.t_calc for e in iterations) == pytest.approx(
            metrics.ledger.t_calc, rel=1e-12
        )
        assert sum(e.elapsed for e in iterations) == pytest.approx(
            metrics.ledger.elapsed, rel=1e-12
        )
        # Every iteration both expands and (past the first few) balances.
        assert all(e.cycles > 0 and e.t_calc > 0 for e in iterations)
        assert sum(e.n_lb for e in iterations) > 0

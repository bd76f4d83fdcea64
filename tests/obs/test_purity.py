"""Observation purity: instrumentation never changes what a run computes.

The canonical acceptance test of the observability layer — for every
Table 1 scheme on the arena workload and on the test-side list oracle
(which must also agree with each other), with the runtime sanitizer
asserting the lock-step invariants throughout, a fully instrumented run
(ring-buffer events + metrics registry + active profiler + bounded
Trace) produces ``RunMetrics`` bit-identical to a bare run.
"""

import pytest

from repro.core.config import PAPER_SCHEMES
from repro.core.scheduler import Scheduler
from repro.experiments.runner import default_init_threshold
from repro.lint.runtime import SanitizerError, check_observation_purity
from repro.obs import MetricsRegistry, Observability, Profiler, RingBufferSink, profiled
from repro.simd.machine import SimdMachine
from repro.workmodel.stackmodel import StackWorkload
from tests.oracles import ListStackWorkload

WORK, N_PES, SEED = 6_000, 32, 5
WORKLOADS = {"list": ListStackWorkload, "arena": StackWorkload}


def _run(spec, backend, obs=None, trace=True):
    workload = WORKLOADS[backend](WORK, N_PES, rng=SEED)
    machine = SimdMachine(N_PES)
    return Scheduler(
        workload,
        machine,
        spec,
        init_threshold=default_init_threshold(spec),
        trace=trace,
        sanitize=True,
        obs=obs,
    ).run()


class TestPurityAcrossSchemes:
    @pytest.mark.parametrize("backend", ["list", "arena"])
    @pytest.mark.parametrize("spec", PAPER_SCHEMES)
    def test_metrics_bit_identical_with_full_instrumentation(self, spec, backend):
        oracle = _run(spec, "list")
        bare = _run(spec, backend)
        obs = Observability(events=RingBufferSink(), metrics=MetricsRegistry())
        with profiled(Profiler()):
            observed = _run(spec, backend, obs=obs)
        check_observation_purity(bare, observed)
        assert bare == observed == oracle
        assert obs.events.n_emitted > 0
        assert obs.metrics.counter("runs_total").value == 0  # folded by drivers


class TestObservedSeriesConsistency:
    def test_cycle_events_mirror_the_trace(self):
        obs = Observability(events=RingBufferSink())
        metrics = _run("GP-DK", "arena", obs=obs)
        cycles = obs.events.events("cycle")
        assert len(cycles) == metrics.n_expand
        assert [e.busy for e in cycles] == metrics.trace.busy_per_cycle
        assert [e.cycle for e in cycles] == sorted(e.cycle for e in cycles)

    def test_lb_events_count_phases(self):
        obs = Observability(events=RingBufferSink())
        metrics = _run("GP-DK", "arena", obs=obs)
        lb = obs.events.events("lb")
        # Initial-distribution phases pre-date the trigger loop, so only
        # the n_lb triggered phases emit LBPhaseEvents.
        assert len(lb) == metrics.n_lb
        assert 0 < sum(e.transfers for e in lb) <= metrics.n_transfers


class TestPurityChecker:
    def test_flags_first_differing_field(self):
        a = _run("GP-DK", "arena")
        b = _run("GP-DP", "arena")
        with pytest.raises(SanitizerError, match="observation-purity"):
            check_observation_purity(a, b)

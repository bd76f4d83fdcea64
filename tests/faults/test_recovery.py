"""Scheduler-level fault injection: death, quarantine, recovery, and the
work-conservation guarantees.

The load-bearing claims: a fault-injected run (1) still drains exactly
``W`` nodes — quarantined frontiers are re-donated, never lost; (2)
keeps dead PEs out of every busy/expanding mask (the sanitizer asserts
this per cycle); (3) charges the recovery machinery to ``T_recovery``
without touching ``T_calc``, so efficiency comparisons against
fault-free runs stay apples-to-apples.
"""

import numpy as np
import pytest

from repro.core.scheduler import Scheduler
from repro.errors import FaultInjectionError
from repro.faults import FaultPlan, PEFailure, Straggler
from repro.simd.machine import SimdMachine
from repro.workmodel.divisible import DivisibleWorkload
from repro.workmodel.stackmodel import StackWorkload
from tests.oracles import ListStackWorkload

N_PES = 32
WORK = 5_000


def _run(workload, plan=None, scheme="GP-DK", **kwargs):
    machine = SimdMachine(N_PES)
    kwargs.setdefault("init_threshold", 0.85)
    metrics = Scheduler(
        workload, machine, scheme, faults=plan, sanitize=True, **kwargs
    ).run()
    return metrics


KILL_PLAN = FaultPlan(failures=(PEFailure(15, 3), PEFailure(40, 11)))


@pytest.mark.parametrize(
    "make_workload",
    [
        lambda: DivisibleWorkload(WORK, N_PES, rng=0),
        lambda: ListStackWorkload(WORK, N_PES, rng=0),
        lambda: StackWorkload(WORK, N_PES, rng=0),
    ],
    ids=["divisible", "stack-list", "stack-arena"],
)
def test_killed_run_drains_all_work(make_workload):
    metrics = _run(make_workload(), KILL_PLAN)
    assert metrics.faults is not None
    assert metrics.faults.pe_deaths == 2
    assert metrics.faults.nodes_recovered == metrics.faults.nodes_quarantined
    assert metrics.n_recovery > 0
    assert metrics.ledger.t_recovery > 0.0
    assert make_workload().total_work == WORK  # sanity on the fixture


def test_faulty_stack_run_expands_same_total_as_fault_free():
    clean = StackWorkload(WORK, N_PES, rng=0)
    _run(clean)
    faulty = StackWorkload(WORK, N_PES, rng=0)
    _run(faulty, KILL_PLAN)
    # Work conservation: nothing lost in quarantine, nothing duplicated.
    assert faulty.total_expanded() == clean.total_expanded() == WORK


def test_t_calc_unchanged_by_faults():
    clean = _run(StackWorkload(WORK, N_PES, rng=0))
    faulty = _run(StackWorkload(WORK, N_PES, rng=0), KILL_PLAN)
    # Every expansion is still paid exactly once at nominal speed;
    # faults only add idle/lb/recovery time.
    assert faulty.ledger.t_calc == pytest.approx(clean.ledger.t_calc)


def test_straggler_stretches_idle_not_calc():
    plan = FaultPlan(stragglers=(Straggler(pe=0, factor=5.0, start_cycle=0),))
    clean = _run(DivisibleWorkload(WORK, N_PES, rng=0))
    slow = _run(DivisibleWorkload(WORK, N_PES, rng=0), plan)
    assert slow.faults.max_slowdown == 5.0
    assert slow.ledger.t_calc == pytest.approx(clean.ledger.t_calc)
    assert slow.ledger.t_idle > clean.ledger.t_idle
    assert slow.ledger.elapsed > clean.ledger.elapsed


def test_dropped_transfers_are_retried_not_lost():
    plan = FaultPlan(drop_probability=0.3, seed=4)
    metrics = _run(StackWorkload(WORK, N_PES, rng=0), plan)
    assert metrics.faults.transfers_dropped > 0
    # The run completed under sanitize=True, so conservation held
    # throughout; the retransmission cost landed on the recovery line.
    assert metrics.ledger.t_recovery > 0.0


def test_duplicated_transfers_counted():
    plan = FaultPlan(dup_probability=0.3, seed=4)
    metrics = _run(StackWorkload(WORK, N_PES, rng=0), plan)
    assert metrics.faults.transfers_duplicated > 0


def test_dead_pe_never_busy_after_death():
    wl = DivisibleWorkload(WORK, N_PES, rng=0)
    plan = FaultPlan(failures=(PEFailure(0, 5),))
    _run(wl, plan)
    # After the run the dead PE holds no work.
    assert wl.expanding_mask()[5] == np.False_


def test_killing_every_pe_is_rejected_up_front():
    from repro.errors import ConfigError

    plan = FaultPlan(failures=tuple(PEFailure(2, pe) for pe in range(N_PES)))
    with pytest.raises(ConfigError):
        _run(DivisibleWorkload(WORK, N_PES, rng=0), plan)


def test_conservation_guard_detects_leaked_quarantine():
    fr = FaultPlan(failures=(PEFailure(0, 0),)).start(2)
    fr.new_deaths(0)
    fr.quarantine(0, (5,), 1)
    fr._quarantine.clear()  # simulate losing parked work without release()
    with pytest.raises(FaultInjectionError):
        fr.check_conservation()


def test_double_quarantine_rejected():
    fr = FaultPlan(failures=(PEFailure(0, 0),)).start(2)
    fr.new_deaths(0)
    fr.quarantine(0, (5,), 1)
    with pytest.raises(FaultInjectionError):
        fr.quarantine(0, (7,), 1)


def test_fault_free_plan_is_identical_to_no_plan():
    baseline = _run(StackWorkload(WORK, N_PES, rng=0))
    noop = _run(StackWorkload(WORK, N_PES, rng=0), FaultPlan())
    assert noop.ledger == baseline.ledger
    assert noop.n_expand == baseline.n_expand
    assert noop.n_lb == baseline.n_lb
    assert noop.n_transfers == baseline.n_transfers


def test_fault_runs_are_deterministic():
    plan = FaultPlan(
        failures=(PEFailure(10, 2),), drop_probability=0.1, seed=3
    )
    a = _run(StackWorkload(WORK, N_PES, rng=1), plan)
    b = _run(StackWorkload(WORK, N_PES, rng=1), plan)
    assert a == b

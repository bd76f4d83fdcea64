"""Fault-injected parallel IDA* returns exactly the fault-free answers.

This is the tentpole guarantee of the fault subsystem: kill PEs mid-run,
drop transfers on the wire — the quarantined frontiers are re-donated
through the regular GP/nGP matching path and every dropped transfer is
retried, so across all six paper schemes and both storage backends the
search still finds the same optimal cost, the same solution count, the
same bound sequence, and expands the same number of nodes per iteration
as serial IDA*.  Only the time ledger (``T_recovery``) is allowed to
differ from a fault-free run.  The runtime sanitizer is on throughout,
so dead-PE masking and work conservation are asserted every cycle.
("list" below is the per-PE ``DFSStack`` storage, reached by hiding the
puzzle's vectorizable view with ``tests.oracles.opaque``.)
"""

import pytest

from repro.core.config import PAPER_SCHEMES
from repro.experiments.runner import default_init_threshold
from repro.faults import FaultPlan, PEFailure
from repro.kernels.dispatch import available_backends
from repro.problems.fifteen_puzzle import BENCH_INSTANCES
from repro.search.ida_star import ida_star
from repro.search.parallel import ParallelIDAStar
from tests.oracles import opaque

INSTANCE = "tiny"
N_PES = 64

#: Explicit early deaths (so they fire in every scheme's short run) plus
#: wire-level drops — the adversarial-but-deterministic plan under test.
PLAN = FaultPlan(
    failures=(PEFailure(3, 5), PEFailure(8, 21)),
    drop_probability=0.15,
    seed=11,
)

_serial_cache: dict[str, object] = {}


def _serial():
    if INSTANCE not in _serial_cache:
        _serial_cache[INSTANCE] = ida_star(BENCH_INSTANCES[INSTANCE])
    return _serial_cache[INSTANCE]


def _run(scheme: str, storage: str, faults=None, **kwargs):
    problem = BENCH_INSTANCES[INSTANCE]
    return ParallelIDAStar(
        opaque(problem) if storage == "list" else problem,
        N_PES,
        scheme,
        init_threshold=default_init_threshold(scheme),
        sanitize=True,
        faults=faults,
        **kwargs,
    ).run()


def _faulty_runs(scheme: str, storage: str):
    """One faulty run on ``DFSStack``s, or one per kernel tier on the arena."""
    if storage == "list":
        return [_run(scheme, storage, PLAN)]
    return [
        _run(scheme, storage, PLAN, kernel_backend=tier)
        for tier in available_backends()
    ]


@pytest.mark.parametrize("storage", ["list", "arena"])
@pytest.mark.parametrize("scheme", PAPER_SCHEMES)
def test_faulty_run_matches_serial_oracle(scheme, storage):
    serial = _serial()
    for result in _faulty_runs(scheme, storage):
        # Faults actually fired — otherwise this test proves nothing.
        assert result.metrics.faults.pe_deaths == 2
        assert result.metrics.faults.nodes_recovered == (
            result.metrics.faults.nodes_quarantined
        )
        # The answers are exactly the fault-free ones.
        assert result.solution_cost == serial.solution_cost
        assert result.solutions == serial.solutions
        assert result.bounds == serial.bounds
        assert result.per_iteration_expanded == tuple(
            it.expanded for it in serial.iterations
        )
        assert result.total_expanded == serial.total_expanded
        # The price of the faults is visible on the recovery line.
        assert result.metrics.ledger.t_recovery > 0.0


@pytest.mark.parametrize("storage", ["list", "arena"])
def test_faulty_metrics_pay_recovery_not_calc(storage):
    clean = _run("GP-DK", storage)
    faulty = _run("GP-DK", storage, PLAN)
    assert faulty.metrics.ledger.t_calc == pytest.approx(
        clean.metrics.ledger.t_calc
    )
    assert clean.metrics.ledger.t_recovery == 0.0

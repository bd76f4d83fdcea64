"""Frye & Myczkowski's CM-2 load-balancing schemes [6, 34] — Section 8.

Scheme 1 (**give-one**): on trigger, "each busy processor gives one piece
of work to as many idle processors as [it has] pieces of work" — i.e.
single-node donations.  Expressed as a standard scheme (nGP matching,
static trigger, multiple transfer rounds) run against a workload whose
splitter is :class:`~repro.core.splitting.UnitSplitter`; the paper calls
this "clearly ... a poor splitting mechanism", and the baseline bench
shows the resulting transfer blow-up.

Scheme 2 (**nearest neighbour**): after every node-expansion cycle, each
busy processor pushes a split of its work to an idle ring neighbour.  No
global trigger, no scans — only neighbour communication, priced at a
per-cycle constant.  Its isoefficiency is sensitive to splitter quality
(the paper cites ``O(P^{1 + 1/(2 alpha)})`` behaviour on a hypercube),
which the ablation bench sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import Scheme, threshold_text
from repro.core.interfaces import Workload
from repro.core.matching import NGPMatcher
from repro.core.metrics import RunMetrics
from repro.core.triggering import StaticTrigger
from repro.simd.machine import SimdMachine
from repro.util.validation import check_positive

__all__ = ["frye_give_one_scheme", "NearestNeighborScheduler"]


def frye_give_one_scheme(*, x: float = 0.75) -> Scheme:
    """Frye scheme 1: static trigger, nGP matching, one-node donations.

    Pair it with a workload constructed with ``UnitSplitter`` — the scheme
    object only controls trigger/matching/multiplicity; donation size is
    the workload's splitter.
    """
    return Scheme(
        name=f"Frye1-S{threshold_text(x)}",
        matcher_factory=NGPMatcher,
        trigger_factory=lambda initial_lb_cost: StaticTrigger(x=x),
        multiple_transfers=True,
    )


@dataclass
class NearestNeighborScheduler:
    """Frye scheme 2: ring nearest-neighbour balancing every cycle.

    After each lock-step expansion cycle, every idle processor whose left
    ring neighbour is busy receives a split from it.  Each cycle with at
    least one transfer is charged ``neighbor_transfer_time`` of
    communication (a constant — neighbour sends need no router).

    Parameters
    ----------
    workload, machine:
        As for the core scheduler.
    neighbor_transfer_time:
        Seconds per neighbour-communication step; defaults to one tenth of
        the machine's full LB transfer cost.
    max_cycles:
        Safety cap.
    """

    workload: Workload
    machine: SimdMachine
    neighbor_transfer_time: float | None = None
    max_cycles: int | None = None

    def __post_init__(self) -> None:
        if self.workload.n_pes != self.machine.n_pes:
            raise ValueError("workload and machine PE counts differ")
        if self.neighbor_transfer_time is None:
            self.neighbor_transfer_time = 0.1 * self.machine.cost.transfer_time(
                self.machine.n_pes
            )
        check_positive(self.neighbor_transfer_time, "neighbor_transfer_time")

    def run(self) -> RunMetrics:
        wl = self.workload
        machine = self.machine
        while not wl.done():
            if self.max_cycles is not None and machine.n_cycles >= self.max_cycles:
                break
            expanding = wl.expand_cycle()
            machine.charge_expansion_cycle(expanding)
            if wl.done():
                break
            busy = wl.busy_mask()
            idle = wl.idle_mask()
            # Idle PE i receives from ring neighbour i-1 when that
            # neighbour is busy; disjoint pairs by construction.
            receivers = np.flatnonzero(idle & np.roll(busy, 1))
            if len(receivers) == 0:
                continue
            donors = (receivers - 1) % machine.n_pes
            n = wl.transfer(donors, receivers)
            machine.charge_custom_phase(self.neighbor_transfer_time, n_transfers=n)

        return RunMetrics(
            scheme="Frye2-NN",
            n_pes=machine.n_pes,
            total_work=wl.total_expanded(),
            n_expand=machine.n_cycles,
            n_lb=machine.n_lb_phases,
            n_transfers=machine.n_transfers,
            n_init_lb=0,
            ledger=machine.ledger,
        )

"""Run metrics.

``RunMetrics`` carries exactly the columns of the paper's tables:
``N_expand`` (node-expansion cycles), ``N_lb`` (load-balancing phases),
``*N_lb`` (work transfers — what Table 4 reports for D_P) and efficiency
``E``, alongside the full time ledger.  The per-cycle series behind
Figures 1 and 8 are not kept here: a run traces them by emitting typed
events into ``Scheduler(obs=Observability(events=...))`` (see
:mod:`repro.obs.events`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simd.machine import TimeLedger

__all__ = ["RunMetrics"]


@dataclass
class RunMetrics:
    """Aggregate outcome of one scheduled run.

    Field names follow the paper's table headers where one exists.
    """

    scheme: str
    n_pes: int
    total_work: int
    n_expand: int
    n_lb: int
    n_transfers: int
    n_init_lb: int
    ledger: TimeLedger

    @property
    def efficiency(self) -> float:
        """``E = T_calc / (T_calc + T_idle + T_lb)``."""
        return self.ledger.efficiency()

    @property
    def speedup(self) -> float:
        """``S = T_calc / T_par``."""
        return self.ledger.speedup(self.n_pes)

    @property
    def avg_busy_fraction(self) -> float:
        """Mean fraction of PEs expanding per cycle: every expansion
        cycle expands one node on each expanding PE, so this is
        ``W / (N_expand * P)``."""
        return self.total_work / (self.n_expand * self.n_pes)

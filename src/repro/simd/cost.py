"""The machine cost model (Section 3.1 terminology).

Couples the node-expansion cycle time ``U_calc`` with a
:class:`~repro.simd.topology.Topology` to price load-balancing phases.  A
phase consists of a *setup step* (a small fixed number of sum-scans that
enumerate idle/busy processors and, for GP, maintain the global pointer)
plus one or more *work-transfer rounds* (general permutations).

``lb_cost_multiplier`` reproduces the Table 5 experiment, where the authors
inflated message sizes to simulate 12x and 16x more expensive transfers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.simd.topology import CM2Topology, Topology
from repro.util.validation import check_positive, check_positive_int

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Time accounting parameters of the simulated SIMD machine.

    Parameters
    ----------
    u_calc:
        Seconds per lock-step node-expansion cycle (paper: ~30 ms on CM-2).
    topology:
        Interconnect model supplying scan and transfer times.
    setup_scans:
        Number of sum-scans in the setup step of one LB phase.
    lb_cost_multiplier:
        Scales the transfer cost only (Table 5's inflated messages).
    """

    u_calc: float = 0.030
    topology: Topology = field(default_factory=CM2Topology)
    setup_scans: int = 3
    lb_cost_multiplier: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.u_calc, "u_calc")
        check_positive_int(self.setup_scans, "setup_scans")
        check_positive(self.lb_cost_multiplier, "lb_cost_multiplier")

    def scan_time(self, n_pes: int) -> float:
        """Time of one sum-scan on ``n_pes`` processors."""
        return self.topology.scan_time(n_pes)

    def transfer_time(self, n_pes: int) -> float:
        """Time of one work-transfer round (inflated by the multiplier)."""
        return self.topology.transfer_time(n_pes) * self.lb_cost_multiplier

    def lb_phase_time(
        self,
        n_pes: int,
        *,
        transfer_rounds: int = 1,
        setup_scans: int | None = None,
    ) -> float:
        """Total elapsed time of one load-balancing phase, ``t_lb``.

        Multiple-transfer schemes (D_P, FEGS) pay the setup scans once and
        the permutation cost per round.  ``setup_scans`` overrides the
        model default — GP needs one extra bookkeeping scan for the global
        pointer (Section 3.3).
        """
        if transfer_rounds < 0:
            raise ValueError(f"transfer_rounds must be >= 0, got {transfer_rounds}")
        scans = self.setup_scans if setup_scans is None else setup_scans
        if scans < 0:
            raise ValueError(f"setup_scans must be >= 0, got {scans}")
        return scans * self.scan_time(n_pes) + transfer_rounds * self.transfer_time(
            n_pes
        )

    def with_lb_multiplier(self, multiplier: float) -> "CostModel":
        """Return a copy with the transfer cost scaled by ``multiplier``."""
        return replace(self, lb_cost_multiplier=multiplier)

    def lb_ratio(self, n_pes: int) -> float:
        """``t_lb / U_calc`` for a single-transfer phase — the knob that
        drives the optimal static trigger (Equation 18)."""
        return self.lb_phase_time(n_pes) / self.u_calc

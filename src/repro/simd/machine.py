"""The lock-step machine's time ledger.

Every observable of the paper's analysis — ``T_calc``, ``T_idle``,
``T_lb``, running time ``T_par``, speedup and efficiency (Section 3.1) —
is an exact *count* over simulated cycles and phases, never a wall-clock
measurement of the host Python.  The ledger enforces the identity

    P * T_par == T_calc + T_idle + T_lb

at all times, which the test suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lint.runtime import require
from repro.simd.cost import CostModel
from repro.util.validation import check_positive_int

__all__ = ["TimeLedger", "SimdMachine"]


@dataclass
class TimeLedger:
    """Accumulated simulated time, split per Section 3.1.

    Attributes
    ----------
    t_calc:
        Processor-seconds of useful computation (``W * U_calc`` when the
        parallel search expands the same nodes as the serial one).
    t_idle:
        Processor-seconds spent idling during node-expansion cycles.
    t_lb:
        Processor-seconds spent in load-balancing phases (all P processors
        are engaged during a phase, busy or not).
    elapsed:
        Elapsed (single-machine) seconds, ``T_par``.
    """

    t_calc: float = 0.0
    t_idle: float = 0.0
    t_lb: float = 0.0
    elapsed: float = 0.0

    def efficiency(self) -> float:
        """``E = T_calc / (T_calc + T_idle + T_lb)``."""
        denom = self.t_calc + self.t_idle + self.t_lb
        if denom == 0.0:
            return 1.0
        return self.t_calc / denom

    def speedup(self, n_pes: int) -> float:
        """``S = T_calc / T_par``."""
        if self.elapsed == 0.0:
            return float(n_pes)
        return self.t_calc / self.elapsed


@dataclass
class SimdMachine:
    """A P-processor lock-step machine that charges time to a ledger.

    The search/load-balance scheduler calls :meth:`charge_expansion_cycle`
    once per lock-step node-expansion cycle and :meth:`charge_lb_phase`
    once per load-balancing phase; the machine does the bookkeeping.

    With ``sanitize=True`` the ledger identity is re-verified after every
    charge, so any future accounting path that forgets a term fails at
    the first charge rather than in an end-of-run assertion.
    """

    n_pes: int
    cost: CostModel = field(default_factory=CostModel)
    ledger: TimeLedger = field(default_factory=TimeLedger)
    n_cycles: int = 0
    n_lb_phases: int = 0
    n_transfers: int = 0
    sanitize: bool = False

    def __post_init__(self) -> None:
        check_positive_int(self.n_pes, "n_pes")

    def _sanitize_check(self) -> None:
        if self.sanitize:
            require(
                self.check_time_identity(),
                "time-identity",
                "P * T_par != T_calc + T_idle + T_lb after a charge",
            )

    def charge_expansion_cycle(self, n_expanding: int) -> float:
        """Account one node-expansion cycle with ``n_expanding`` active PEs.

        Returns the cycle's elapsed time, ``U_calc``.  Idle processors are
        charged idle time — the SIMD-specific overhead the paper's
        triggering schemes try to bound.
        """
        if not 0 <= n_expanding <= self.n_pes:
            raise ValueError(
                f"n_expanding={n_expanding} out of range [0, {self.n_pes}]"
            )
        dt = self.cost.u_calc
        self.ledger.elapsed += dt
        self.ledger.t_calc += n_expanding * dt
        self.ledger.t_idle += self.n_pes * dt - n_expanding * dt
        self.n_cycles += 1
        self._sanitize_check()
        return dt

    def charge_lb_phase(
        self,
        *,
        transfer_rounds: int = 1,
        n_transfers: int = 0,
        setup_scans: int | None = None,
    ) -> float:
        """Account one load-balancing phase; returns its elapsed time.

        All ``P`` processors participate in a phase (lock-step), so the
        phase contributes ``P * t_phase`` processor-seconds to ``T_lb``
        (Section 3.1: ``T_lb = t_lb * #phases * P``).
        """
        dt = self.cost.lb_phase_time(
            self.n_pes, transfer_rounds=transfer_rounds, setup_scans=setup_scans
        )
        self.ledger.elapsed += dt
        self.ledger.t_lb += self.n_pes * dt
        self.n_lb_phases += 1
        self.n_transfers += n_transfers
        self._sanitize_check()
        return dt

    def charge_custom_phase(self, dt: float, *, n_transfers: int = 0) -> float:
        """Account a communication phase of explicit duration ``dt``.

        Used by baselines whose communication pattern does not fit the
        scan+permute LB phase (e.g. nearest-neighbour transfers).  Charged
        to ``T_lb`` like any balancing phase.
        """
        if dt < 0:
            raise ValueError(f"dt must be >= 0, got {dt}")
        self.ledger.elapsed += dt
        self.ledger.t_lb += self.n_pes * dt
        self.n_lb_phases += 1
        self.n_transfers += n_transfers
        self._sanitize_check()
        return dt

    def check_time_identity(self, *, rel_tol: float = 1e-9) -> bool:
        """Verify ``P * T_par == T_calc + T_idle + T_lb``."""
        lhs = self.n_pes * self.ledger.elapsed
        rhs = self.ledger.t_calc + self.ledger.t_idle + self.ledger.t_lb
        scale = max(abs(lhs), abs(rhs), 1.0)
        return abs(lhs - rhs) <= rel_tol * scale

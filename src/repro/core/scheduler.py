"""The lock-step search/load-balance loop (Section 2).

At any time all processors are either in a *search phase* — lock-step
node-expansion cycles — or in a *load-balancing phase* — busy processors
split their work and share it with idle ones.  The scheduler:

1. optionally runs the *initial distribution phase* of Section 7 (the root
   is on one PE; alternate expansion and balancing until a target fraction
   of PEs is active);
2. repeats: expand; test the trigger; on fire, run an LB phase (one
   transfer round, or rounds until saturation for multiple-transfer
   schemes), inform the trigger of its cost, and resume searching;
3. stops when the workload is exhausted (or ``max_cycles`` hit).

The paper's rule "after each load balancing phase, at least one node
expansion cycle is completed before the triggering condition is tested
again" falls out of the loop structure.

A cycle reads one workload mask, the busy count, unless it balances or
runs sanitized.  An LB phase pairs the busy and idle PE index arrays
through :meth:`~repro.core.matching.Matcher.pair` each transfer round —
the same path the batched grid executor takes; the mask checks that
:meth:`~repro.core.matching.Matcher.match` would make run in sanitize
mode only (:meth:`~repro.lint.runtime.SchedulerSanitizer.check_pairs`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import Scheme, make_scheme
from repro.core.interfaces import Workload
from repro.core.matching import Matcher
from repro.core.metrics import RunMetrics
from repro.core.triggering import DKTrigger, Trigger, TriggerState
from repro.errors import ConfigError
from repro.lint.runtime import SchedulerSanitizer
from repro.obs import Observability
from repro.obs.events import CycleEvent, LBPhaseEvent
from repro.obs.profile import span
from repro.simd.machine import SimdMachine

__all__ = ["Scheduler"]

#: Hard safety cap on transfer rounds inside one LB phase; each round
#: strictly reduces the idle count, so P rounds is already unreachable.
_MAX_ROUNDS_FACTOR = 4


@dataclass
class Scheduler:
    """Drives one workload to exhaustion under one load-balancing scheme.

    Parameters
    ----------
    workload:
        Any :class:`~repro.core.interfaces.Workload` implementation.
    machine:
        The time ledger; its cost model prices cycles and LB phases.
    scheme:
        A :class:`~repro.core.config.Scheme` or a spec string like
        ``"GP-S0.90"``.
    init_threshold:
        If set (e.g. ``0.85`` as in Section 7), run the initial
        distribution phase until this fraction of PEs is non-idle before
        handing control to the trigger.
    max_cycles:
        Safety cap on expansion cycles; ``None`` means run to exhaustion.
    sanitize:
        If true, assert the lock-step invariants on every cycle and
        transfer round (disjoint/exhaustive masks, strict idle decrease
        per LB round, GP pointer in ``[0, P)``, the D_K idle bound and
        the ledger time identity).  Violations raise
        :class:`~repro.lint.runtime.SanitizerError`.  The matcher and
        trigger built for the run are exposed as ``self.matcher`` /
        ``self.trigger`` for introspection and sanitizer tests.
    obs:
        An :class:`~repro.obs.Observability` bundle.  Typed events
        (cycles and LB phases) go to ``obs.events`` on the machine's
        *cumulative* cycle axis — the run's only per-cycle record (busy
        and expanding PEs, the Figure 1 areas, every LB phase);
        per-phase histograms go to ``obs.metrics``; kernel spans report
        to the active profiler.  Observation is pure — it never changes
        what the run computes.
    """

    workload: Workload
    machine: SimdMachine
    scheme: Scheme | str
    init_threshold: float | None = None
    max_cycles: int | None = None
    sanitize: bool = False
    obs: Observability | None = None

    def __post_init__(self) -> None:
        self.matcher: Matcher | None = None
        self.trigger: Trigger | None = None
        self._sanitizer = (
            SchedulerSanitizer(self.machine.n_pes) if self.sanitize else None
        )
        if isinstance(self.scheme, str):
            self.scheme = make_scheme(self.scheme)
        if self.workload.n_pes != self.machine.n_pes:
            raise ConfigError(
                f"workload has {self.workload.n_pes} PEs but machine has "
                f"{self.machine.n_pes}"
            )
        if self.init_threshold is not None and not 0.0 < self.init_threshold <= 1.0:
            raise ConfigError(
                f"init_threshold must be in (0, 1], got {self.init_threshold}"
            )
        self._n_init_lb = 0
        #: ``lb.transfers_per_phase`` / ``lb.rounds_per_phase`` on
        #: ``obs.metrics``, looked up at the run's first LB phase.
        self._lb_histograms = None

    # ------------------------------------------------------------------ #

    def run(self) -> RunMetrics:
        """Execute the full run; return its metrics."""
        scheme = self.scheme
        assert isinstance(scheme, Scheme)
        initial_lb_cost = self.machine.cost.lb_phase_time(self.machine.n_pes)
        matcher, trigger = scheme.build(initial_lb_cost)
        self.matcher, self.trigger = matcher, trigger
        if self.init_threshold is not None:
            self._n_init_lb = self._initial_distribution(matcher, trigger)
        trigger.start_phase()

        while not self.workload.done() and not self._cycle_cap_hit():
            state = self._expand_and_observe()
            self._sanity_cycle(matcher)
            if self.workload.done():
                self._record_cycle(state, trigger)
                break
            fire = trigger.after_cycle(state)
            self._record_cycle(state, trigger)
            if fire:
                if self._sanitizer is not None and isinstance(trigger, DKTrigger):
                    self._sanitizer.check_dk_fire(trigger, state)
                self._maybe_balance(matcher, trigger)

        return RunMetrics(
            scheme=scheme.name,
            n_pes=self.machine.n_pes,
            total_work=self.workload.total_expanded(),
            n_expand=self.machine.n_cycles,
            n_lb=self.machine.n_lb_phases,
            n_transfers=self.machine.n_transfers,
            n_init_lb=self._n_init_lb,
            ledger=self.machine.ledger,
        )

    # ------------------------------------------------------------------ #

    def _cycle_cap_hit(self) -> bool:
        return self.max_cycles is not None and self.machine.n_cycles >= self.max_cycles

    def _sanity_cycle(self, matcher: Matcher) -> None:
        """Sanitize-mode invariants checked after every expansion cycle."""
        sanitizer = self._sanitizer
        if sanitizer is None:
            return
        sanitizer.check_masks(
            self.workload.busy_mask(),
            self.workload.idle_mask(),
            self.workload.expanding_mask(),
        )
        sanitizer.check_pointer(matcher)
        sanitizer.check_time_identity(self.machine)

    def _expand_and_observe(self) -> TriggerState:
        expanding = self.workload.expand_cycle()
        dt = self.machine.charge_expansion_cycle(expanding)
        busy = int(np.count_nonzero(self.workload.busy_mask()))
        return TriggerState(
            busy=busy, expanding=expanding, n_pes=self.machine.n_pes, dt=dt
        )

    def _record_cycle(self, state: TriggerState, trigger: Trigger) -> None:
        obs = self.obs
        if obs is not None and obs.events is not None:
            # The cumulative machine axis keeps IDA* iterations monotone
            # in one event stream.
            obs.events.emit(
                CycleEvent(
                    cycle=self.machine.n_cycles - 1,
                    busy=state.busy,
                    expanding=state.expanding,
                    r1=trigger.last_r1,
                    r2=trigger.last_r2,
                )
            )

    def _maybe_balance(self, matcher: Matcher, trigger: Trigger) -> bool:
        """Run an LB phase if a useful transfer is possible.

        When no busy/idle pair exists (e.g. every PE holds exactly one
        node) the phase is skipped — the machine cannot redistribute — but
        the trigger's accumulators restart so it does not re-fire every
        cycle on stale state.
        """
        scheme = self.scheme
        assert isinstance(scheme, Scheme)
        workload = self.workload
        busy_mask, idle_mask = workload.busy_mask(), workload.idle_mask()
        busy, idle = busy_mask.nonzero()[0], idle_mask.nonzero()[0]
        if not len(busy) or not len(idle):
            trigger.start_phase()
            return False

        sanitizer = self._sanitizer
        rounds = 0
        transfers = 0
        max_rounds = _MAX_ROUNDS_FACTOR * self.machine.n_pes
        # The first round's busy/idle test is the one just above.
        while rounds < max_rounds:
            with span("lb.match"):
                donors, receivers = matcher.pair(busy, idle)
            if sanitizer is not None:
                sanitizer.check_pairs(busy_mask, idle_mask, donors, receivers)
                sanitizer.check_pointer(matcher)
            with span("lb.transfer"):
                performed = workload.transfer(donors, receivers)
            transfers += performed
            rounds += 1
            if not scheme.multiple_transfers and sanitizer is None:
                break
            idle_before = len(idle)
            busy_mask, idle_mask = workload.busy_mask(), workload.idle_mask()
            busy, idle = busy_mask.nonzero()[0], idle_mask.nonzero()[0]
            if sanitizer is not None:
                sanitizer.check_round_progress(idle_before, len(idle), performed)
            if not scheme.multiple_transfers or not len(busy) or not len(idle):
                break

        dt = self.machine.charge_lb_phase(
            transfer_rounds=rounds,
            n_transfers=transfers,
            setup_scans=matcher.setup_scans,
        )
        obs = self.obs
        if obs is not None:
            obs.emit(
                LBPhaseEvent(
                    cycle=self.machine.n_cycles - 1,
                    rounds=rounds,
                    transfers=transfers,
                    dt=dt,
                )
            )
            if obs.metrics is not None:
                histograms = self._lb_histograms
                if histograms is None:
                    histograms = self._lb_histograms = (
                        obs.metrics.histogram("lb.transfers_per_phase"),
                        obs.metrics.histogram("lb.rounds_per_phase"),
                    )
                histograms[0].observe(transfers)
                histograms[1].observe(rounds)
        trigger.notify_lb_cost(dt)
        trigger.start_phase()
        return True

    def _initial_distribution(self, matcher: Matcher, trigger: Trigger) -> int:
        """Section 7's initialization: balance after every cycle until the
        active fraction reaches ``init_threshold`` (or work runs out)."""
        assert self.init_threshold is not None
        target = self.init_threshold * self.machine.n_pes
        phases = 0
        while not self.workload.done() and not self._cycle_cap_hit():
            state = self._expand_and_observe()
            self._sanity_cycle(matcher)
            self._record_cycle(state, trigger)
            if self.workload.done():
                break
            non_idle = self.machine.n_pes - int(np.count_nonzero(self.workload.idle_mask()))
            if non_idle >= target:
                break
            if self._maybe_balance(matcher, trigger):
                phases += 1
        return phases

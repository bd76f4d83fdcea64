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

One cycle reads the workload masks several times — the trigger state
needs the busy count, the sanitizer all three masks, and an LB phase the
busy/idle pair per transfer round.  The workloads memoize one counts
snapshot per mutation (see ``DivisibleWorkload``/``StackWorkload``
``invalidate_masks``), so those reads collapse to a single O(P) pass per
cycle plus one per transfer round instead of 3-6 full recomputations.

Fault injection (``faults=``) threads a
:class:`~repro.faults.runtime.FaultRuntime` through the loop: fail-stop
deaths quarantine the victim's frontier before the next expansion cycle,
recovery re-donates parked frontiers through the *same* matcher that
drives regular LB (so GP's pointer advances over recovery donations
too), stragglers stretch the lock-step cycle, and drop/dup perturbation
filters the matched pairs of every transfer round.  All of it is
work-conserving, so a fault-injected run returns exactly the fault-free
results — at a higher cost, charged to the ledger's ``T_recovery`` line.

Checkpointing (``checkpoint=``) serializes the complete run state every
N cycles via :mod:`repro.faults.checkpoint`; a resumed run continues the
loop bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import Scheme, make_scheme
from repro.core.interfaces import Workload
from repro.core.matching import Matcher
from repro.core.metrics import RunMetrics
from repro.core.triggering import DKTrigger, Trigger, TriggerState
from repro.errors import ConfigError, FaultInjectionError
from repro.faults.checkpoint import CheckpointConfig, write_checkpoint
from repro.faults.plan import FaultPlan
from repro.faults.runtime import FaultRuntime
from repro.lint.runtime import SchedulerSanitizer
from repro.obs import Observability
from repro.obs.events import CycleEvent, LBPhaseEvent, RecoveryEvent
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
        per LB round, GP pointer in ``[0, P)``, the D_K idle bound, the
        ledger time identity, and — under ``faults`` — the dead-PE and
        work-conservation invariants).  Violations raise
        :class:`~repro.lint.runtime.SanitizerError`.  The matcher and
        trigger built for the run are exposed as ``self.matcher`` /
        ``self.trigger`` for introspection and fault-injection tests.
    faults:
        A :class:`~repro.faults.plan.FaultPlan` (started here) or an
        already-started :class:`~repro.faults.runtime.FaultRuntime`
        (shared across the per-bound schedulers of an IDA* run).  ``None``
        runs fault-free.
    checkpoint:
        A :class:`~repro.faults.checkpoint.CheckpointConfig`; when set,
        the full run state is serialized to ``checkpoint.path`` every
        ``checkpoint.every`` cycles (atomic replace, CRC-framed).
    obs:
        An :class:`~repro.obs.Observability` bundle.  Typed events
        (cycles, LB phases, recovery, faults) go to ``obs.events`` on
        the machine's *cumulative* cycle axis — the run's only
        per-cycle record (busy and expanding PEs, the Figure 1 areas,
        every LB phase); per-phase histograms go to ``obs.metrics``;
        kernel spans report to the active profiler.  Observation is
        pure — it never changes what the run computes — and the bundle
        is not checkpointed: a resumed run takes fresh observers by
        setting ``obs`` on the scheduler ``load_scheduler`` returns.
    """

    workload: Workload
    machine: SimdMachine
    scheme: Scheme | str
    init_threshold: float | None = None
    max_cycles: int | None = None
    sanitize: bool = False
    faults: FaultPlan | FaultRuntime | None = None
    checkpoint: CheckpointConfig | None = None
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
        if isinstance(self.faults, FaultPlan):
            self._faults: FaultRuntime | None = self.faults.start(
                self.machine.n_pes
            )
        else:
            self._faults = self.faults
        if self.checkpoint is not None:
            try:
                make_scheme(self.scheme.name)
            except ValueError:
                raise ConfigError(
                    f"scheme {self.scheme.name!r} does not round-trip "
                    "through its spec string, so a checkpoint of this run "
                    "could not be restored; use a parseable scheme spec"
                ) from None
        self._n_init_lb = 0
        self._resumed = False
        self._last_checkpoint_cycle = -1

    # ------------------------------------------------------------------ #

    def run(self) -> RunMetrics:
        """Execute the full run (or continue a resumed one); return metrics."""
        if (
            self._faults is not None
            and self.obs is not None
            and self.obs.events is not None
        ):
            # Bound here, not at construction, so observers attached to
            # a loaded checkpoint's scheduler see its fault events too.
            self._faults.observer = self.obs.events
        if not self._resumed:
            self._start()
        return self._loop()

    def _start(self) -> None:
        """Build the matcher/trigger pair and run the init phase."""
        scheme = self.scheme
        assert isinstance(scheme, Scheme)
        initial_lb_cost = self.machine.cost.lb_phase_time(self.machine.n_pes)
        matcher, trigger = scheme.build(initial_lb_cost)
        self.matcher, self.trigger = matcher, trigger
        if self.init_threshold is not None:
            self._n_init_lb = self._initial_distribution(matcher, trigger)
        trigger.start_phase()

    def _loop(self) -> RunMetrics:
        scheme = self.scheme
        assert isinstance(scheme, Scheme)
        matcher, trigger = self.matcher, self.trigger
        assert matcher is not None and trigger is not None

        while True:
            self._apply_deaths()
            if self._done() or self._cycle_cap_hit():
                break
            state = self._expand_and_observe()
            self._sanity_cycle(matcher)
            if self._done():
                self._record_cycle(state, trigger)
                self._maybe_checkpoint()
                break
            fire = trigger.after_cycle(state)
            self._record_cycle(state, trigger)
            if fire:
                if self._sanitizer is not None and isinstance(trigger, DKTrigger):
                    self._sanitizer.check_dk_fire(trigger, state)
                self._maybe_balance(matcher, trigger)
            self._maybe_checkpoint()

        if self._faults is not None:
            self._faults.check_conservation()

        return RunMetrics(
            scheme=scheme.name,
            n_pes=self.machine.n_pes,
            total_work=self.workload.total_expanded(),
            n_expand=self.machine.n_cycles,
            n_lb=self.machine.n_lb_phases,
            n_transfers=self.machine.n_transfers,
            n_init_lb=self._n_init_lb,
            ledger=self.machine.ledger,
            n_recovery=self.machine.n_recovery_phases,
            faults=self._faults.report() if self._faults is not None else None,
        )

    # ------------------------------------------------------------------ #

    def _cycle_cap_hit(self) -> bool:
        return self.max_cycles is not None and self.machine.n_cycles >= self.max_cycles

    def _done(self) -> bool:
        """Run completion: the workload is exhausted *and* no quarantined
        frontier awaits recovery (a search workload cannot see parked
        work, so its own ``done()`` would report early)."""
        if self._faults is not None and self._faults.has_quarantine:
            # Early-stop modes (first solution found) still end the run;
            # parked work is then intentionally abandoned, like the
            # unexpanded stacks on live PEs.
            if (
                getattr(self.workload, "first_solution_only", False)
                and getattr(self.workload, "solutions", 0) > 0
            ):
                return True
            return False
        return self.workload.done()

    def _receivable_mask(self) -> np.ndarray:
        """Idle PEs eligible to receive work: dead PEs are masked out."""
        idle = self.workload.idle_mask()
        if self._faults is not None and self._faults.any_dead:
            idle = idle & self._faults.alive
        return idle

    def _apply_deaths(self) -> None:
        """Fail-stop PEs whose cycle has arrived; quarantine their work.

        Also sweeps previously dead PEs that acquired work since — e.g. a
        fresh IDA* iteration seeding its root on a PE that died in an
        earlier iteration of the same machine run.
        """
        fr = self._faults
        if fr is None:
            return
        fr.new_deaths(self.machine.n_cycles)
        if not fr.any_dead:
            return
        holding = self.workload.expanding_mask() & fr.dead
        for pe in np.flatnonzero(holding):
            payload, n_entries = self.workload.extract_pe(int(pe))
            if n_entries:
                fr.quarantine(int(pe), payload, n_entries)
        if fr.has_quarantine and not bool(fr.alive.any()):
            raise FaultInjectionError(
                "every PE has fail-stopped while unexpanded work remains; "
                "the quarantined frontier can never be recovered"
            )

    def _sanity_cycle(self, matcher: Matcher) -> None:
        """Sanitize-mode invariants checked after every expansion cycle."""
        sanitizer = self._sanitizer
        if sanitizer is None:
            return
        sanitizer.check_masks(
            self.workload.busy_mask(),
            self.workload.idle_mask(),
            self.workload.expanding_mask(),
            dead=self._faults.dead if self._faults is not None else None,
        )
        sanitizer.check_pointer(matcher)
        sanitizer.check_time_identity(self.machine)
        if self._faults is not None:
            sanitizer.check_fault_conservation(self._faults)

    def _expand_and_observe(self) -> TriggerState:
        slowdown = (
            self._faults.slowdown(self.machine.n_cycles)
            if self._faults is not None
            else 1.0
        )
        expanding = self.workload.expand_cycle()
        dt = self.machine.charge_expansion_cycle(expanding, slowdown=slowdown)
        busy = int(self.workload.busy_mask().sum())
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

    def _maybe_checkpoint(self) -> None:
        cfg = self.checkpoint
        if cfg is None:
            return
        cycle = self.machine.n_cycles
        if cycle > 0 and cycle % cfg.every == 0 and cycle != self._last_checkpoint_cycle:
            write_checkpoint(self, cfg.path)
            self._last_checkpoint_cycle = cycle

    def _recover(self, matcher: Matcher) -> bool:
        """Re-donate quarantined frontiers to idle alive PEs.

        Runs at the head of every LB phase, *before* the regular busy/idle
        matching — recovery must be reachable even when no live PE is
        busy (e.g. all remaining work sits in quarantine).  Each round
        matches the quarantine mask against the idle survivors through
        the scheme's own matcher, then hands each matched frontier over
        whole (no split: the receiver resumes the dead PE's DFS exactly).
        Charged to the ledger's ``T_recovery`` as one phase of however
        many permutation rounds it took.
        """
        fr = self._faults
        if fr is None or not fr.has_quarantine:
            return False
        rounds = 0
        moved = 0
        max_rounds = _MAX_ROUNDS_FACTOR * self.machine.n_pes
        with span("recovery.phase", cat="recovery"):
            while fr.has_quarantine and rounds < max_rounds:
                quarantined = fr.quarantine_mask()
                idle = self._receivable_mask()
                if not idle.any():
                    break
                with span("lb.match"):
                    result = matcher.match(quarantined, idle)
                if len(result) == 0:
                    break
                for donor, receiver in zip(
                    result.donors.tolist(), result.receivers.tolist()
                ):
                    payload, _ = fr.release(donor)
                    self.workload.inject_pe(receiver, payload)
                    moved += 1
                rounds += 1
        if rounds:
            self.machine.charge_recovery_phase(
                transfer_rounds=rounds,
                n_transfers=moved,
                setup_scans=matcher.setup_scans,
            )
            obs = self.obs
            if obs is not None:
                obs.emit(
                    RecoveryEvent(
                        cycle=self.machine.n_cycles - 1,
                        rounds=rounds,
                        transfers=moved,
                    )
                )
                if obs.metrics is not None:
                    obs.metrics.counter("recovery.frontiers_redonated").inc(moved)
        return rounds > 0

    def _maybe_balance(self, matcher: Matcher, trigger: Trigger) -> bool:
        """Run an LB phase if a useful transfer is possible.

        When no busy/idle pair exists (e.g. every PE holds exactly one
        node) the phase is skipped — the machine cannot redistribute — but
        the trigger's accumulators restart so it does not re-fire every
        cycle on stale state.
        """
        scheme = self.scheme
        assert isinstance(scheme, Scheme)
        fr = self._faults
        recovered = self._recover(matcher)
        busy = self.workload.busy_mask()
        idle = self._receivable_mask()
        if not busy.any() or not idle.any():
            trigger.start_phase()
            return recovered

        sanitizer = self._sanitizer
        rounds = 0
        transfers = 0
        faulty_rounds = 0
        idle_count = int(idle.sum())
        max_rounds = _MAX_ROUNDS_FACTOR * self.machine.n_pes
        while busy.any() and idle.any() and rounds < max_rounds:
            if sanitizer is not None:
                sanitizer.check_pointer(matcher)
            with span("lb.match"):
                result = matcher.match(busy, idle)
            if len(result) == 0:
                break
            donors, receivers = result.donors, result.receivers
            if fr is not None:
                donors, receivers, n_dropped, n_dup = fr.filter_transfers(
                    donors, receivers
                )
                if n_dropped or n_dup:
                    faulty_rounds += 1
            with span("lb.transfer"):
                performed = (
                    self.workload.transfer(donors, receivers) if len(donors) else 0
                )
            transfers += performed
            rounds += 1
            if sanitizer is not None:
                sanitizer.check_pointer(matcher)
                idle_after = int(self._receivable_mask().sum())
                sanitizer.check_round_progress(idle_count, idle_after, performed)
                idle_count = idle_after
            if not scheme.multiple_transfers:
                break
            busy = self.workload.busy_mask()
            idle = self._receivable_mask()

        dt = self.machine.charge_lb_phase(
            transfer_rounds=rounds,
            n_transfers=transfers,
            setup_scans=matcher.setup_scans,
        )
        if faulty_rounds:
            # Retransmission/dedup traffic: one extra permutation round's
            # worth of time per perturbed round, setup already paid above.
            self.machine.charge_recovery_phase(
                transfer_rounds=faulty_rounds, n_transfers=0, setup_scans=0
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
                obs.metrics.histogram("lb.transfers_per_phase").observe(transfers)
                obs.metrics.histogram("lb.rounds_per_phase").observe(rounds)
        trigger.notify_lb_cost(dt)
        trigger.start_phase()
        return True

    def _initial_distribution(self, matcher: Matcher, trigger: Trigger) -> int:
        """Section 7's initialization: balance after every cycle until the
        active fraction reaches ``init_threshold`` (or work runs out)."""
        assert self.init_threshold is not None
        target = self.init_threshold * self.machine.n_pes
        phases = 0
        while not self._done() and not self._cycle_cap_hit():
            self._apply_deaths()
            state = self._expand_and_observe()
            self._sanity_cycle(matcher)
            self._record_cycle(state, trigger)
            if self._done():
                break
            non_idle = self.machine.n_pes - int(self.workload.idle_mask().sum())
            if non_idle >= target:
                break
            if self._maybe_balance(matcher, trigger):
                phases += 1
        return phases

"""Runtime sanitizer: lock-step invariants asserted during execution.

The static rules (:mod:`repro.lint.rules`) catch discipline violations
in the source; this module catches them in the *execution*.  Enable
with ``SimdMachine(..., sanitize=True)`` and
``Scheduler(..., sanitize=True)``; each then asserts the paper's
invariants on every cycle:

- busy and idle masks are disjoint, and together with the expanding
  mask cover every PE (Section 2's busy / idle / singleton taxonomy);
- every LB transfer round pairs busy donors with idle receivers, from
  disjoint busy and idle sets, with no PE twice (what
  ``Matcher.match`` validates; the ``Scheduler`` pairs through
  ``Matcher.pair``, which does not);
- every LB transfer round strictly decreases the idle count, by exactly
  the number of performed transfers;
- the GP global pointer stays in ``[0, P)`` whenever it is set;
- at a D_K trigger firing, accumulated idle exceeds ``L*P`` by at most
  one cycle's worth of idle time (Equation 4 fires at first crossing);
- the ledger identity ``P * T_par == T_calc + T_idle + T_lb`` holds.

The observability layer (:mod:`repro.obs`) adds one more runtime
contract — *observation purity*: attaching event sinks, a metrics
registry, or the profiler must never change what a run computes.
:func:`check_observation_purity` asserts it by comparing two run
outcomes (duck-typed, so any metrics-like pair works).

Violations raise :class:`SanitizerError` (an ``AssertionError``
subclass, so plain ``pytest.raises(AssertionError)`` also catches it).
This module deliberately imports nothing from ``repro.core`` or
``repro.simd`` so both layers can depend on it without cycles.
"""

from __future__ import annotations

__all__ = [
    "SanitizerError",
    "require",
    "SchedulerSanitizer",
    "check_observation_purity",
]


class SanitizerError(AssertionError):
    """A lock-step invariant was violated at runtime.

    ``invariant`` names the violated invariant (e.g.
    ``"gp-pointer-range"``) for programmatic triage.
    """

    def __init__(self, invariant: str, message: str) -> None:
        self.invariant = invariant
        super().__init__(f"[{invariant}] {message}")


def require(condition: bool, invariant: str, message: str) -> None:
    """Raise :class:`SanitizerError` unless ``condition`` holds."""
    if not condition:
        raise SanitizerError(invariant, message)


class SchedulerSanitizer:
    """Per-cycle invariant checks driven by ``Scheduler(sanitize=True)``."""

    def __init__(self, n_pes: int) -> None:
        self.n_pes = int(n_pes)

    def check_masks(self, busy, idle, expanding) -> None:
        """Busy/idle disjoint; busy expands; idle|expanding exhaustive."""
        require(
            not bool((busy & idle).any()),
            "masks-disjoint",
            "a PE is both busy (>=2 nodes) and idle (0 nodes)",
        )
        require(
            bool((idle | expanding).all()),
            "masks-exhaustive",
            "a PE is neither idle nor able to expand — it fell out of the "
            "busy/idle/singleton taxonomy",
        )
        require(
            not bool((busy & ~expanding).any()),
            "busy-expands",
            "a busy PE (>=2 nodes) is not expanding",
        )

    def check_pairs(self, busy, idle, donors, receivers, where: str = "") -> None:
        """One transfer round's pairs: disjoint busy/idle masks, busy
        donors, idle receivers, no PE twice.  ``where`` prefixes the
        message (the batched executor names the cell)."""
        require(
            not bool((busy & idle).any()),
            "lb-pairing",
            f"{where}a PE is both busy and idle at a transfer round",
        )
        require(
            len(donors) == len(receivers) > 0
            and bool(busy[donors].all())
            and bool(idle[receivers].all()),
            "lb-pairing",
            f"{where}a matched donor is not busy or a receiver not idle",
        )
        require(
            len(set(donors.tolist())) == len(donors)
            and len(set(receivers.tolist())) == len(receivers),
            "lb-pairing",
            f"{where}a PE appears twice in one transfer round",
        )

    def check_pointer(self, matcher) -> None:
        """The GP global pointer, when set, addresses a real PE."""
        pointer = getattr(matcher, "pointer", None)
        if pointer is None:
            return
        require(
            0 <= int(pointer) < self.n_pes,
            "gp-pointer-range",
            f"GP pointer {pointer} outside [0, {self.n_pes})",
        )

    def check_round_progress(
        self, idle_before: int, idle_after: int, performed: int
    ) -> None:
        """Each transfer round retires exactly ``performed`` idle PEs."""
        if performed <= 0:
            return
        require(
            idle_after < idle_before,
            "lb-round-progress",
            f"LB transfer round performed {performed} transfer(s) but the "
            f"idle count did not decrease ({idle_before} -> {idle_after})",
        )
        require(
            idle_before - idle_after == performed,
            "lb-round-progress",
            f"idle count moved {idle_before} -> {idle_after} but "
            f"{performed} transfer(s) were performed",
        )

    def check_dk_fire(self, trigger, state) -> None:
        """At a D_K firing, idle exceeds L*P by at most one cycle's idle."""
        slack = state.n_pes * state.dt
        require(
            trigger.last_r1 <= trigger.last_r2 + slack + 1e-9,
            "dk-idle-bound",
            f"D_K fired with accumulated idle {trigger.last_r1:.6f} more "
            f"than one cycle beyond L*P={trigger.last_r2:.6f}",
        )

    def check_time_identity(self, machine) -> None:
        """The Section 3.1 ledger identity holds exactly."""
        require(
            machine.check_time_identity(),
            "time-identity",
            "P * T_par != T_calc + T_idle + T_lb on the machine ledger",
        )


#: RunMetrics fields compared by :func:`check_observation_purity`; the
#: ledger is compared line by line so a drift names the exact term.
_PURITY_FIELDS = (
    "scheme",
    "n_pes",
    "total_work",
    "n_expand",
    "n_lb",
    "n_transfers",
    "n_init_lb",
)
_PURITY_LEDGER_FIELDS = ("t_calc", "t_idle", "t_lb", "elapsed")


def check_observation_purity(bare, observed) -> None:
    """Assert two runs' metrics are bit-identical — the obs contract.

    ``bare`` is the metrics of an instrumentation-off run, ``observed``
    the metrics of the same run with tracing/metrics/profiling attached;
    any mismatch means observation leaked into the simulation.  Both
    arguments are duck-typed ``RunMetrics``-likes (this module must not
    import ``repro.core``); ledger lines are compared with ``==`` —
    exact float equality, not approximate — because a pure observer
    cannot perturb a single ULP.
    """
    for name in _PURITY_FIELDS:
        a, b = getattr(bare, name), getattr(observed, name)
        require(
            a == b,
            "observation-purity",
            f"RunMetrics.{name} differs with instrumentation attached: "
            f"{a!r} (bare) != {b!r} (observed)",
        )
    bare_ledger = getattr(bare, "ledger", None)
    observed_ledger = getattr(observed, "ledger", None)
    for name in _PURITY_LEDGER_FIELDS:
        a = getattr(bare_ledger, name)
        b = getattr(observed_ledger, name)
        require(
            a == b,
            "observation-purity",
            f"ledger.{name} differs with instrumentation attached: "
            f"{a!r} (bare) != {b!r} (observed)",
        )

"""Plan/execute batched grid execution: many cells per kernel call.

``run_grid`` historically advanced its (scheme, W, P) cells one at a
time — each cell a full :class:`~repro.core.scheduler.Scheduler` run
whose per-cycle numpy calls operate on one cell's ``P``-wide vectors.
On small cells the numpy dispatch overhead per call dominates, and the
process-parallel path only made it worse on few-core hosts (spawn +
rebuild per cell).  This module is the *execute* half of the planner /
executor split that fixes it:

- the **plan** (:class:`CellPlan`, built by ``run_grid``) enumerates the
  cells in scheme-major order with their deterministic ``cell_seed``
  streams and resolved init thresholds, and marks which cells the
  batched executor supports (:func:`is_batchable`);
- the **executor** (:class:`MegaGridExecutor`) packs every planned cell
  into one :class:`~repro.workmodel.mega.MegaArena` and advances *all*
  of them per iteration with single full-width kernels — one
  ``expand_cycle`` (two segmented reductions) per lock-step cycle —
  while the per-cell trigger state (S^x / D_P / D_K accumulators) and
  the time ledgers advance as vectors over the cell axis, and one fire
  expression decides every cell's trigger at once.

Only the *infrequent* events drop to per-cell Python: an LB phase runs
the cell's own matcher/splitter on its arena slice exactly as the serial
scheduler would, and a finished cell snapshots its
:class:`~repro.core.metrics.RunMetrics` and then leaves the arena and
every lane in the same cycle, so a grid whose cells finish at different
cycles only scans the cells still running.

**Record identity is the contract.**  Every float accumulation, RNG
draw, matcher decision and ledger charge happens in the same per-cell
order with the same operands as the serial oracle, so the returned
``RunMetrics`` are bit-for-bit equal to ``run_divisible`` on the same
``cell_seed`` — the regression suite asserts this across all six paper
schemes.  The executor supports exactly the feature set the grid uses
(no event sinks or cycle caps) and refuses anything else loudly.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields

import numpy as np

from repro.core.config import Scheme, make_scheme
from repro.core.matching import GPMatcher, Matcher, NGPMatcher
from repro.core.metrics import RunMetrics
from repro.core.scheduler import _MAX_ROUNDS_FACTOR
from repro.core.splitting import AlphaSplitter
from repro.core.triggering import DKTrigger, DPTrigger, StaticTrigger, Trigger
from repro.errors import ConfigError
from repro.obs.profile import span
from repro.simd.cost import CostModel
from repro.simd.machine import TimeLedger
from repro.util.rng import as_generator
from repro.workmodel.mega import MegaArena

__all__ = ["CellPlan", "is_batchable", "MegaGridExecutor", "run_batched_cells"]

#: Every per-cell vector of :class:`MegaGridExecutor`, one entry per
#: cell still running; ``_drop_finished`` filters them all by one mask.
_LANES = (
    "pes", "pes_dt", "totals", "remaining", "in_main",
    "static_xp", "lb_cost_est", "lb_cost_est_p",
    "elapsed", "t_calc", "t_idle", "t_lb",
    "acc_work", "acc_elapsed", "acc_idle",
)


@dataclass(frozen=True)
class CellPlan:
    """One planned grid cell: everything that determines its record.

    ``index`` is the cell's scheme-major grid index (the seed-order
    contract) and the only field that does not: the others are what
    :func:`~repro.experiments.keys.plan_key` hashes.  ``init_threshold``
    is already resolved (the planner applies the ``"auto"``
    convention).  A plan pickles with its scheme as its name.
    """

    index: int
    scheme: Scheme
    n_pes: int
    total_work: int
    seed: int
    init_threshold: float | None
    cost_model: CostModel = CostModel()

    def __reduce__(self) -> tuple:
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        return (_unpickle_plan, ({**state, "scheme": self.scheme.name},))


def _unpickle_plan(state: dict) -> CellPlan:
    return CellPlan(**{**state, "scheme": make_scheme(state["scheme"])})


def is_batchable(scheme: Scheme, *, initial_lb_cost: float = 1.0) -> bool:
    """Whether the batched executor can run cells of ``scheme``.

    Supported: the Table 1 matcher/trigger families (GP / nGP matching,
    S^x / D_P / D_K triggering).  Baseline schemes with opaque factories
    fall back to the serial path.
    """
    try:
        matcher, trigger = scheme.build(initial_lb_cost)
    except Exception:
        return False
    return isinstance(matcher, (GPMatcher, NGPMatcher)) and isinstance(
        trigger, (StaticTrigger, DPTrigger, DKTrigger)
    )


class _CellRun:
    """Per-cell Python-side state: matcher, RNG stream, phase bookkeeping.

    ``acc_work0`` / ``acc_idle0`` are what a trigger-phase reset writes
    to the cell's ``acc_work`` / ``acc_idle`` lanes: ``0.0`` for the
    accumulator its trigger kind owns, ``-inf`` for one it does not.
    """

    __slots__ = (
        "plan",
        "matcher",
        "rng",
        "init_target",
        "in_init",
        "acc_work0",
        "acc_idle0",
        "n_lb",
        "n_transfers",
        "n_init_lb",
    )

    def __init__(self, plan: CellPlan, matcher: Matcher, trigger: Trigger) -> None:
        self.plan = plan
        self.matcher = matcher
        self.acc_work0 = 0.0 if isinstance(trigger, DPTrigger) else -np.inf
        self.acc_idle0 = 0.0 if isinstance(trigger, DKTrigger) else -np.inf
        self.n_lb = 0
        self.n_transfers = 0
        self.n_init_lb = 0
        # The serial path hands DivisibleWorkload the cell seed; the
        # splitter is that workload's only RNG consumer, so seeding the
        # per-cell stream identically keeps every donation draw aligned.
        self.rng = as_generator(plan.seed)
        self.init_target = (
            None
            if plan.init_threshold is None
            else plan.init_threshold * plan.n_pes
        )
        self.in_init = plan.init_threshold is not None


class MegaGridExecutor:
    """Advance many planned grid cells in lock-step over one MegaArena.

    Parameters
    ----------
    cells:
        The planned cells to run (any order; results key off
        ``CellPlan.index``).  Every scheme must satisfy
        :func:`is_batchable`, and all share one cost model.
    sanitize:
        Assert per-cycle invariants on the packed state: work
        conservation across every cell, non-negative counts, each
        transfer round's pairing (busy donors, idle receivers, no PE
        twice, GP pointer in ``[0, P)``) and each finished cell's ledger
        identity.  On by default only in tests.
    on_cell_done:
        Called as ``on_cell_done(plan, metrics)`` the cycle each cell
        finishes — where ``run_grid(store=...)`` publishes, so an
        in-process batched grid is durable cell-by-cell, not only at
        the end.
        Strictly observational: the callback receives the finalized
        metrics and must not mutate them.
    """

    def __init__(
        self,
        cells: Sequence[CellPlan],
        *,
        sanitize: bool = False,
        on_cell_done: "Callable[[CellPlan, RunMetrics], None] | None" = None,
    ) -> None:
        if not cells:
            raise ConfigError("MegaGridExecutor needs at least one cell")
        self.cost = cells[0].cost_model
        if any(c.cost_model != self.cost for c in cells):
            raise ConfigError("the cells of one MegaGridExecutor share one cost model")
        self.splitter = AlphaSplitter()
        self.sanitize = sanitize
        self.on_cell_done = on_cell_done
        n = len(cells)

        self.pes = np.array([c.n_pes for c in cells], dtype=np.int64)
        self.totals = np.array([c.total_work for c in cells], dtype=np.int64)
        self.arena = MegaArena(self.pes.tolist(), roots=self.totals.tolist())
        # Each cell's slice of the arena, taken once per arena layout.
        self.views = self.arena.views()
        # lb_phase_time and P times it by (P, rounds, setup scans): a
        # phase's simulated price depends on nothing else, and a grid
        # pays thousands.
        self._phase_times: dict[tuple[int, int, int], tuple[float, float]] = {}

        # Per-cell Python state and vectorized trigger parameters.  The
        # trigger objects built by the scheme are only probed for their
        # type and constants; their per-cycle arithmetic is replicated
        # on the cell axis below, operand-for-operand.
        #
        # Every lane carries all three trigger kinds, and a lane of one
        # kind holds thresholds the other two can never meet: busy >= 0
        # is never <= a static_xp of -1, and an acc_work or acc_idle of
        # -inf stays -inf and never reaches a finite L term.  So one fire
        # expression serves every lane (see ``run``).  No sentinel sits
        # in ``lb_cost_est``: busy * inf at busy == 0 would be NaN.
        self.runs: list[_CellRun] = []
        self.static_xp = np.full(n, -1.0)  # x * P per static cell, else -1
        self.lb_cost_est = np.zeros(n, dtype=np.float64)  # L
        self.lb_cost_est_p = np.zeros(n, dtype=np.float64)  # L * P
        for i, plan in enumerate(cells):
            initial_lb_cost = self.cost.lb_phase_time(plan.n_pes)
            matcher, trigger = plan.scheme.build(initial_lb_cost)
            if not isinstance(matcher, (GPMatcher, NGPMatcher)) or not isinstance(
                trigger, (StaticTrigger, DPTrigger, DKTrigger)
            ):
                raise ConfigError(
                    f"scheme {plan.scheme.name!r} builds "
                    f"{type(matcher).__name__}/{type(trigger).__name__}, which "
                    "the batched executor does not support; run it serially"
                )
            self.runs.append(_CellRun(plan, matcher, trigger))
            if isinstance(trigger, StaticTrigger):
                self.static_xp[i] = trigger.x * plan.n_pes
            else:
                self.lb_cost_est[i] = initial_lb_cost
                self.lb_cost_est_p[i] = initial_lb_cost * plan.n_pes

        # Ledger lines, one lane per running cell.  Every cell starts at
        # cycle 0 and expands each cycle until it leaves, so one counter
        # is every running cell's cycle count.
        self.cycles = 0
        self.elapsed = np.zeros(n, dtype=np.float64)
        self.t_calc = np.zeros(n, dtype=np.float64)
        self.t_idle = np.zeros(n, dtype=np.float64)
        self.t_lb = np.zeros(n, dtype=np.float64)

        # Trigger accumulators (D_P's w and t, D_K's w_idle), holding
        # their sentinels on lanes of other kinds.  Lanes of cells still
        # in their init-distribution phase accumulate garbage by design:
        # the serial scheduler never consults the trigger during init
        # and resets the accumulators on exit, and so does the
        # transition below.
        self.acc_work = np.array([r.acc_work0 for r in self.runs])
        self.acc_elapsed = np.zeros(n, dtype=np.float64)
        self.acc_idle = np.array([r.acc_idle0 for r in self.runs])

        self.pes_dt = self.pes * self.cost.u_calc
        self.remaining = self.totals.copy()
        self.in_main = np.array([not r.in_init for r in self.runs], dtype=bool)
        self.results: dict[int, RunMetrics] = {}

    # -- the lock-step loop ----------------------------------------------

    def run(self) -> dict[int, RunMetrics]:
        """Drive every cell to exhaustion; return metrics by grid index.

        Every lane and the arena hold only the cells still running: a
        cell that finishes is snapshotted and dropped in the same cycle,
        so the rest of the grid stops paying for its rows.
        """
        # A cycle lasts U_calc (SimdMachine.charge_expansion_cycle), so
        # the D_P accumulator's ``counts * dt`` is the ledger's ``calc``.
        dt = self.cost.u_calc
        has_init = any(r.in_init for r in self.runs)
        # Only a D_P lane owns acc_work, only a D_K lane acc_idle.
        has_dp = any(r.acc_work0 == 0.0 for r in self.runs)
        has_dk = any(r.acc_idle0 == 0.0 for r in self.runs)

        while True:
            with span("mega.expand_cycle", cat="grid"):
                counts, busy = self.arena.expand_cycle()

            # Vectorized ledger charge — same operand order per cell as
            # SimdMachine.charge_expansion_cycle.
            calc = counts * dt
            self.elapsed += dt
            self.t_calc += calc
            self.t_idle += self.pes_dt - calc
            self.cycles += 1
            self.remaining -= counts

            # Trigger accumulators advance before the fire decision,
            # exactly like Trigger.after_cycle.
            if has_dp:
                self.acc_work += calc
                self.acc_elapsed += dt
            if has_dk:
                self.acc_idle += (self.pes - counts) * dt

            if self.sanitize:
                self._sanity_step(counts)

            # Cells whose final node expanded this cycle finish *before*
            # the trigger is consulted (the serial loop breaks first).
            if not self.remaining.all():
                done = self.remaining == 0
                for c in np.flatnonzero(done).tolist():
                    self._finalize(c)
                if done.all():
                    break
                busy = self._drop_finished(~done, busy)

            # S^x, D_P and D_K in one expression: each is the serial
            # trigger's comparison with its operands in the serial order,
            # and a lane's sentinels keep the other two false.
            fire = (
                (busy <= self.static_xp)
                | (self.acc_work - busy * self.acc_elapsed >= busy * self.lb_cost_est)
                | (self.acc_idle >= self.lb_cost_est_p)
            )
            if has_init:
                fire &= self.in_main
            fired = np.flatnonzero(fire).tolist()

            # Init-distribution cells: balance every cycle until the
            # active fraction reaches the target (Section 7).
            if has_init:
                has_init = self._step_init_cells()

            for c in fired:
                self._balance(c)

        return self.results

    def _step_init_cells(self) -> bool:
        """Advance every cell still in its init-distribution phase.

        Returns whether any cell remains in init mode.
        """
        nonzero = self.arena.nonzero_counts()
        any_left = False
        for c, run in enumerate(self.runs):
            if not run.in_init:
                continue
            # Serial order: the done-check already ran (finished cells
            # are gone); next the threshold check, then a balance.
            assert run.init_target is not None
            if nonzero[c] >= run.init_target:
                run.in_init = False
                self.in_main[c] = True
                self._reset_trigger_phase(c)
                continue
            if self._balance(c):
                run.n_init_lb += 1
            any_left = True
        return any_left

    def _drop_finished(self, keep: np.ndarray, busy: np.ndarray) -> np.ndarray:
        """Drop the cells ``_finalize`` just snapshotted from the arena,
        every lane and ``runs``; return this cycle's ``busy`` re-indexed
        to the survivors."""
        self.arena.keep(keep)
        self.views = self.arena.views()
        for name in _LANES:
            setattr(self, name, getattr(self, name)[keep])
        self.runs = [run for run, k in zip(self.runs, keep) if k]
        return busy[keep]

    # -- per-cell slow paths ----------------------------------------------

    def _reset_trigger_phase(self, c: int) -> None:
        """``Trigger.start_phase`` on the vectorized accumulators; a lane
        gets its sentinels back on the accumulators its kind does not own."""
        run = self.runs[c]
        self.acc_work[c] = run.acc_work0
        self.acc_elapsed[c] = 0.0
        self.acc_idle[c] = run.acc_idle0

    def _balance(self, c: int) -> bool:
        """One LB phase on cell ``c``'s arena slice — the serial scheduler's
        ``_maybe_balance`` with ``DivisibleWorkload.transfer`` inlined.

        The matcher pairs index arrays directly.  Its donors are busy by
        construction, so the workload's defensive re-validation is a no-op
        here and is left out; the sanitizer asserts the pairing instead.
        Every donation is still one ``splitter.donation`` draw per round
        from the cell's own stream, in the oracle's order.
        """
        run = self.runs[c]
        work = self.views[c]
        busy = (work >= 2).nonzero()[0]
        idle = (work == 0).nonzero()[0]
        if not len(busy) or not len(idle):
            self._reset_trigger_phase(c)
            return False
        matcher = run.matcher
        n_pes = run.plan.n_pes
        multiple = run.plan.scheme.multiple_transfers
        rounds = 0
        transfers = 0
        max_rounds = _MAX_ROUNDS_FACTOR * n_pes
        with span("mega.lb_phase", cat="grid"):
            while True:
                donors, receivers = matcher.pair(busy, idle)
                if self.sanitize:
                    self._sanity_pairs(c, work, donors, receivers)
                held = work[donors]
                give = self.splitter.donation(held, run.rng)
                work[donors] = held - give
                # Receivers are idle: 0 + give is give.
                work[receivers] = give
                transfers += len(donors)
                rounds += 1
                if not multiple or rounds >= max_rounds:
                    break
                busy = (work >= 2).nonzero()[0]
                idle = (work == 0).nonzero()[0]
                if not len(busy) or not len(idle):
                    break
        key = (n_pes, rounds, matcher.setup_scans)
        times = self._phase_times.get(key)
        if times is None:
            dt = self.cost.lb_phase_time(
                n_pes, transfer_rounds=rounds, setup_scans=matcher.setup_scans
            )
            times = self._phase_times[key] = (dt, n_pes * dt)
        dt, dt_p = times
        self.elapsed[c] += dt
        self.t_lb[c] += dt_p
        run.n_lb += 1
        run.n_transfers += transfers
        # Trigger.notify_lb_cost + start_phase (static triggers ignore L).
        self.lb_cost_est[c] = dt
        self.lb_cost_est_p[c] = dt_p
        self._reset_trigger_phase(c)
        return True

    def _finalize(self, c: int) -> None:
        """Snapshot cell ``c``'s RunMetrics the cycle it completes."""
        run = self.runs[c]
        ledger = TimeLedger(
            t_calc=float(self.t_calc[c]),
            t_idle=float(self.t_idle[c]),
            t_lb=float(self.t_lb[c]),
            elapsed=float(self.elapsed[c]),
        )
        metrics = RunMetrics(
            scheme=run.plan.scheme.name,
            n_pes=run.plan.n_pes,
            total_work=int(self.arena.expanded()[c]),
            n_expand=self.cycles,
            n_lb=run.n_lb,
            n_transfers=run.n_transfers,
            n_init_lb=run.n_init_lb,
            ledger=ledger,
        )
        if self.sanitize:
            self._sanity_finalize(c, metrics)
        self.results[run.plan.index] = metrics
        if self.on_cell_done is not None:
            self.on_cell_done(run.plan, metrics)

    # -- sanitize mode -----------------------------------------------------

    def _sanity_step(self, counts: np.ndarray) -> None:
        from repro.lint.runtime import require

        require(
            bool(np.all(counts >= 0)) and bool(np.all(self.remaining >= 0)),
            "mega-conservation",
            "negative per-cell expansion count or remaining work",
        )
        require(
            self.arena.check_conservation(self.totals),
            "mega-conservation",
            "expanded + remaining != W for some packed cell",
        )

    def _sanity_pairs(
        self, c: int, work: np.ndarray, donors: np.ndarray, receivers: np.ndarray
    ) -> None:
        """What ``Matcher.match`` would validate, on one round of ``pair``:
        busy donors, idle receivers, no PE twice, a GP pointer in range."""
        from repro.lint.runtime import SchedulerSanitizer

        sanitizer = SchedulerSanitizer(len(work))
        sanitizer.check_pairs(
            work >= 2, work == 0, donors, receivers,
            where=f"cell {self.runs[c].plan.index}: ",
        )
        sanitizer.check_pointer(self.runs[c].matcher)

    def _sanity_finalize(self, c: int, metrics: RunMetrics) -> None:
        from repro.lint.runtime import require

        ledger = metrics.ledger
        lhs = metrics.n_pes * ledger.elapsed
        rhs = ledger.t_calc + ledger.t_idle + ledger.t_lb
        scale = max(abs(lhs), abs(rhs), 1.0)
        require(
            abs(lhs - rhs) <= 1e-9 * scale,
            "time-identity",
            f"cell {self.runs[c].plan.index}: P*T_par != "
            "T_calc + T_idle + T_lb at finalize",
        )
        require(
            metrics.total_work == self.runs[c].plan.total_work,
            "mega-conservation",
            f"cell {self.runs[c].plan.index} expanded {metrics.total_work} "
            f"of {self.runs[c].plan.total_work} nodes",
        )


def run_batched_cells(
    cells: Sequence[CellPlan],
    *,
    sanitize: bool = False,
    on_cell_done: "Callable[[CellPlan, RunMetrics], None] | None" = None,
) -> dict[int, RunMetrics]:
    """Execute planned cells on one :class:`MegaGridExecutor`.

    Returns metrics keyed by each cell's grid ``index``.
    """
    if not cells:
        return {}
    with span("mega.plan", cat="grid"):
        executor = MegaGridExecutor(cells, sanitize=sanitize, on_cell_done=on_cell_done)
    return executor.run()

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
  ``expand_all`` + two segmented reductions per lock-step cycle — while
  the per-cell trigger state (S^x / D_P / D_K accumulators) and the time
  ledgers advance as vectors over the cell axis.

Only the *infrequent* events drop to per-cell Python: an LB phase runs
the cell's own matcher/splitter on its arena slice exactly as the serial
scheduler would, and a finished cell snapshots its
:class:`~repro.core.metrics.RunMetrics`.

**Record identity is the contract.**  Every float accumulation, RNG
draw, matcher decision and ledger charge happens in the same per-cell
order with the same operands as the serial oracle, so the returned
``RunMetrics`` are bit-for-bit equal to ``run_divisible`` on the same
``cell_seed`` — the regression suite asserts this across all six paper
schemes.  The executor therefore supports exactly the feature set the
grid uses (no faults, checkpoints, traces or cycle caps) and refuses
anything else loudly.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.config import Scheme
from repro.core.matching import GPMatcher, Matcher, NGPMatcher
from repro.core.metrics import RunMetrics
from repro.core.splitting import AlphaSplitter, WorkSplitter
from repro.core.triggering import DKTrigger, DPTrigger, StaticTrigger
from repro.errors import ConfigError
from repro.kernels.dispatch import DEFAULT_KERNEL_BACKEND, resolve_backend
from repro.kernels.workspace import KernelWorkspace
from repro.obs.profile import span
from repro.simd.cost import CostModel
from repro.simd.machine import TimeLedger
from repro.util.rng import as_generator
from repro.workmodel.mega import MegaArena

__all__ = ["CellPlan", "is_batchable", "MegaGridExecutor", "run_batched_cells"]

#: Mirrors the scheduler's hard safety cap on transfer rounds per phase.
_MAX_ROUNDS_FACTOR = 4

#: Trigger kinds on the vectorized cell axis.
_KIND_STATIC, _KIND_DP, _KIND_DK = 0, 1, 2


@dataclass(frozen=True)
class CellPlan:
    """One planned grid cell: everything needed to execute it anywhere.

    ``index`` is the cell's scheme-major grid index (the seed-order
    contract); ``init_threshold`` is already resolved (the planner
    applies the ``"auto"`` convention), so serial, batched and sharded
    executors cannot disagree about it.
    """

    index: int
    scheme: Scheme
    n_pes: int
    total_work: int
    seed: int
    init_threshold: float | None


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
    """Per-cell Python-side state: matcher, RNG stream, phase bookkeeping."""

    __slots__ = (
        "plan",
        "matcher",
        "multiple_transfers",
        "rng",
        "init_target",
        "in_init",
    )

    def __init__(self, plan: CellPlan, matcher: Matcher, multiple: bool) -> None:
        self.plan = plan
        self.matcher = matcher
        self.multiple_transfers = multiple
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
        :func:`is_batchable`.
    cost_model / splitter:
        Shared across cells exactly as ``run_grid`` shares them.
    sanitize:
        Assert per-cycle invariants on the packed state: work
        conservation across every cell, non-negative counts, and each
        finished cell's ledger identity.  Cheap (vectorized over cells)
        but on by default only in tests.
    kernel_backend:
        Tier for the mega kernels and every cell matcher's rendezvous —
        ``"numpy"`` (reference), ``"fused"``, ``"jit"`` or ``"auto"``
        (default).  One :class:`~repro.kernels.KernelWorkspace` is
        shared by the arena and all matchers.
    on_cell_done:
        Called as ``on_cell_done(plan, metrics)`` the cycle each cell
        finishes — the write-ahead journal's hook, so an in-process
        batched grid is durable cell-by-cell, not only at the end.
        Strictly observational: the callback receives the finalized
        metrics and must not mutate them.
    """

    def __init__(
        self,
        cells: Sequence[CellPlan],
        *,
        cost_model: CostModel | None = None,
        splitter: WorkSplitter | None = None,
        sanitize: bool = False,
        kernel_backend: str = DEFAULT_KERNEL_BACKEND,
        on_cell_done: "Callable[[CellPlan, RunMetrics], None] | None" = None,
    ) -> None:
        if not cells:
            raise ConfigError("MegaGridExecutor needs at least one cell")
        self.cost = cost_model if cost_model is not None else CostModel()
        self.splitter = splitter if splitter is not None else AlphaSplitter()
        self.sanitize = sanitize
        self.on_cell_done = on_cell_done
        self.kernel_backend = resolve_backend(kernel_backend)
        self._kernel_ws = (
            KernelWorkspace() if self.kernel_backend != "numpy" else None
        )
        n = len(cells)

        self.pes = np.array([c.n_pes for c in cells], dtype=np.int64)
        self.totals = np.array([c.total_work for c in cells], dtype=np.int64)
        self.arena = MegaArena(
            self.pes.tolist(),
            roots=self.totals.tolist(),
            kernel_backend=self.kernel_backend,
            workspace=self._kernel_ws,
        )

        # Per-cell Python state and vectorized trigger parameters.  The
        # trigger objects built by the scheme are only probed for their
        # type and constants; their per-cycle arithmetic is replicated
        # on the cell axis below, operand-for-operand.
        self.runs: list[_CellRun] = []
        self.kind = np.zeros(n, dtype=np.int64)
        self.static_xp = np.zeros(n, dtype=np.float64)  # x * P per static cell
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
            if self.kernel_backend != "numpy":
                matcher.configure_kernels(self.kernel_backend, self._kernel_ws)
            self.runs.append(_CellRun(plan, matcher, plan.scheme.multiple_transfers))
            if isinstance(trigger, StaticTrigger):
                self.kind[i] = _KIND_STATIC
                self.static_xp[i] = trigger.x * plan.n_pes
            else:
                self.kind[i] = (
                    _KIND_DP if isinstance(trigger, DPTrigger) else _KIND_DK
                )
                self.lb_cost_est[i] = initial_lb_cost
                self.lb_cost_est_p[i] = initial_lb_cost * plan.n_pes

        # Ledger lines and counters, one lane per cell.  A finished cell
        # snapshots its metrics the cycle it completes; its lanes may
        # keep accumulating afterwards (they are never read again).
        self.elapsed = np.zeros(n, dtype=np.float64)
        self.t_calc = np.zeros(n, dtype=np.float64)
        self.t_idle = np.zeros(n, dtype=np.float64)
        self.t_lb = np.zeros(n, dtype=np.float64)
        self.n_cycles = np.zeros(n, dtype=np.int64)
        self.n_lb = np.zeros(n, dtype=np.int64)
        self.n_transfers = np.zeros(n, dtype=np.int64)
        self.n_init_lb = np.zeros(n, dtype=np.int64)

        # Trigger accumulators (D_P's w and t, D_K's w_idle).  Lanes of
        # cells still in their init-distribution phase accumulate
        # garbage by design: the serial scheduler never consults the
        # trigger during init and resets the accumulators on exit, and
        # so does the transition below.
        self.acc_work = np.zeros(n, dtype=np.float64)
        self.acc_elapsed = np.zeros(n, dtype=np.float64)
        self.acc_idle = np.zeros(n, dtype=np.float64)

        self.remaining = self.totals.copy()
        self.live = np.ones(n, dtype=bool)
        self.in_main = np.array([not r.in_init for r in self.runs], dtype=bool)
        self.results: dict[int, RunMetrics] = {}

    # -- the lock-step loop ----------------------------------------------

    def run(self) -> dict[int, RunMetrics]:
        """Drive every cell to exhaustion; return metrics by grid index."""
        u = self.cost.u_calc
        # charge_expansion_cycle computes dt = u_calc * slowdown with
        # slowdown 1.0; replicate the multiply so the float is the same.
        dt = u * 1.0
        pes_dt = self.pes * dt
        pes_f = self.pes.astype(np.float64)
        has_init = any(r.in_init for r in self.runs)
        has_dp = bool(np.any(self.kind == _KIND_DP))
        has_dk = bool(np.any(self.kind == _KIND_DK))
        has_static = bool(np.any(self.kind == _KIND_STATIC))

        while self.live.any():
            with span("mega.expand_cycle", cat="grid"):
                counts = self.arena.expand_all()
                busy = self.arena.busy_counts()

            # Vectorized ledger charge — same operand order per cell as
            # SimdMachine.charge_expansion_cycle.
            calc = counts * u
            self.elapsed += dt
            self.t_calc += calc
            self.t_idle += pes_dt - calc
            self.n_cycles += 1
            self.remaining -= counts

            # Trigger accumulators advance before the fire decision,
            # exactly like Trigger.after_cycle.
            if has_dp:
                self.acc_work += counts * dt
                self.acc_elapsed += dt
            if has_dk:
                self.acc_idle += (pes_f - counts) * dt

            if self.sanitize:
                self._sanity_step(counts)

            # Cells whose final node expanded this cycle finish *before*
            # the trigger is consulted (the serial loop breaks first).
            if np.any((self.remaining == 0) & self.live):
                for c in np.flatnonzero((self.remaining == 0) & self.live):
                    self._finalize(int(c))

            # Trigger decisions for cells in the main loop.
            fired = self._fired(busy, has_static, has_dp, has_dk)

            # Init-distribution cells: balance every cycle until the
            # active fraction reaches the target (Section 7).
            if has_init:
                has_init = self._step_init_cells()

            for c in fired:
                self._balance(int(c))

        return self.results

    def _fired(
        self, busy: np.ndarray, has_static: bool, has_dp: bool, has_dk: bool
    ) -> np.ndarray:
        """Indices of live main-loop cells whose trigger fired this cycle."""
        eligible = self.live & self.in_main
        if not eligible.any():
            return np.empty(0, dtype=np.int64)
        fire = np.zeros(len(self.live), dtype=bool)
        if has_static:
            fire |= (self.kind == _KIND_STATIC) & (busy <= self.static_xp)
        if has_dp:
            r1 = self.acc_work - busy * self.acc_elapsed
            r2 = busy * self.lb_cost_est
            fire |= (self.kind == _KIND_DP) & (r1 >= r2)
        if has_dk:
            fire |= (self.kind == _KIND_DK) & (self.acc_idle >= self.lb_cost_est_p)
        return np.flatnonzero(fire & eligible)

    def _step_init_cells(self) -> bool:
        """Advance every live cell still in its init-distribution phase.

        Returns whether any cell remains in init mode.
        """
        nonzero = self.arena.nonzero_counts()
        any_left = False
        for c, run in enumerate(self.runs):
            if not run.in_init:
                continue
            if not self.live[c]:
                run.in_init = False
                continue
            # Serial order: the done-check already ran (finalized cells
            # are not live); next the threshold check, then a balance.
            assert run.init_target is not None
            if nonzero[c] >= run.init_target:
                run.in_init = False
                self.in_main[c] = True
                self._reset_trigger_phase(c)
                continue
            if self._balance(c):
                self.n_init_lb[c] += 1
            any_left = True
        return any_left

    # -- per-cell slow paths ----------------------------------------------

    def _reset_trigger_phase(self, c: int) -> None:
        """``Trigger.start_phase`` on the vectorized accumulators."""
        self.acc_work[c] = 0.0
        self.acc_elapsed[c] = 0.0
        self.acc_idle[c] = 0.0

    def _balance(self, c: int) -> bool:
        """One LB phase on cell ``c``'s arena slice — the serial scheduler's
        ``_maybe_balance`` with the workload inlined (fault-free path)."""
        run = self.runs[c]
        work = self.arena.cell(c)
        busy = work >= 2
        idle = work == 0
        if not busy.any() or not idle.any():
            self._reset_trigger_phase(c)
            return False
        matcher = run.matcher
        n_pes = run.plan.n_pes
        rounds = 0
        transfers = 0
        max_rounds = _MAX_ROUNDS_FACTOR * n_pes
        with span("mega.lb_phase", cat="grid"):
            while busy.any() and idle.any() and rounds < max_rounds:
                result = matcher.match(busy, idle)
                if len(result) == 0:
                    break
                transfers += self._transfer(run, work, result.donors, result.receivers)
                rounds += 1
                if not run.multiple_transfers:
                    break
                busy = work >= 2
                idle = work == 0
        dt = self.cost.lb_phase_time(
            n_pes, transfer_rounds=rounds, setup_scans=matcher.setup_scans
        )
        self.elapsed[c] += dt
        self.t_lb[c] += n_pes * dt
        self.n_lb[c] += 1
        self.n_transfers[c] += transfers
        # Trigger.notify_lb_cost + start_phase (static triggers ignore L).
        self.lb_cost_est[c] = dt
        self.lb_cost_est_p[c] = dt * n_pes
        self._reset_trigger_phase(c)
        return True

    def _transfer(
        self,
        run: _CellRun,
        work: np.ndarray,
        donors: np.ndarray,
        receivers: np.ndarray,
    ) -> int:
        """``DivisibleWorkload.transfer`` on the cell's slice, verbatim —
        including the defensive re-validation, so the RNG consumption and
        integer arithmetic match the oracle draw for draw."""
        if len(donors) == 0:
            return 0
        valid = work[donors] >= 2
        donors = donors[valid]
        receivers = receivers[valid]
        if len(donors) == 0:
            return 0
        give = self.splitter.donation(work[donors], run.rng)
        work[donors] -= give
        work[receivers] += give
        return int(len(donors))

    def _finalize(self, c: int) -> None:
        """Snapshot cell ``c``'s RunMetrics the cycle it completes."""
        run = self.runs[c]
        ledger = TimeLedger(
            t_calc=float(self.t_calc[c]),
            t_idle=float(self.t_idle[c]),
            t_lb=float(self.t_lb[c]),
            elapsed=float(self.elapsed[c]),
            t_recovery=0.0,
        )
        metrics = RunMetrics(
            scheme=run.plan.scheme.name,
            n_pes=run.plan.n_pes,
            total_work=int(self.arena.expanded()[c]),
            n_expand=int(self.n_cycles[c]),
            n_lb=int(self.n_lb[c]),
            n_transfers=int(self.n_transfers[c]),
            n_init_lb=int(self.n_init_lb[c]),
            ledger=ledger,
            trace=None,
            n_recovery=0,
            faults=None,
        )
        if self.sanitize:
            self._sanity_finalize(c, metrics)
        self.results[run.plan.index] = metrics
        if self.on_cell_done is not None:
            self.on_cell_done(run.plan, metrics)
        self.live[c] = False
        self.in_main[c] = False
        run.in_init = False

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

    def _sanity_finalize(self, c: int, metrics: RunMetrics) -> None:
        from repro.lint.runtime import require

        ledger = metrics.ledger
        lhs = metrics.n_pes * ledger.elapsed
        rhs = ledger.t_calc + ledger.t_idle + ledger.t_lb + ledger.t_recovery
        scale = max(abs(lhs), abs(rhs), 1.0)
        require(
            abs(lhs - rhs) <= 1e-9 * scale,
            "time-identity",
            f"cell {self.runs[c].plan.index}: P*T_par != "
            "T_calc + T_idle + T_lb + T_recovery at finalize",
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
    cost_model: CostModel | None = None,
    splitter: WorkSplitter | None = None,
    sanitize: bool = False,
    kernel_backend: str = DEFAULT_KERNEL_BACKEND,
    on_cell_done: "Callable[[CellPlan, RunMetrics], None] | None" = None,
) -> dict[int, RunMetrics]:
    """Execute planned cells on one :class:`MegaGridExecutor`.

    Returns metrics keyed by each cell's grid ``index``.
    """
    if not cells:
        return {}
    with span("mega.plan", cat="grid"):
        executor = MegaGridExecutor(
            cells,
            cost_model=cost_model,
            splitter=splitter,
            sanitize=sanitize,
            kernel_backend=kernel_backend,
            on_cell_done=on_cell_done,
        )
    return executor.run()

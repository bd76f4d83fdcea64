"""Run helpers: single scheduled runs and (scheme, W, P) grids.

A :class:`Scale` bundles the machine size and the four problem sizes of
the paper's Table 2.  ``PAPER_SCALE`` is the CM-2 configuration verbatim
(P = 8192, W up to 1.61e7 — fully affordable on the vectorized divisible
workload); ``SMALL_SCALE`` divides both by 16 for quick test runs, and
``TINY_SCALE`` is for unit tests.

``run_grid`` runs a grid's cells in one in-process
:class:`~repro.workmodel.mega.MegaArena`, or, when the grid is large
enough to pay for a pool (:data:`POOL_THRESHOLD`) or ``n_jobs`` asks
for one, as shards of near-equal predicted cost (sum of W/P) on a
per-call fork pool, one worker per usable CPU.

Grid execution is durable and hardened (see ``docs/durability.md``):

- ``run_grid(store=...)`` publishes each completed cell to a
  content-addressed :class:`~repro.serve.store.RecordStore` and takes
  every cell already stored from it instead, bit-identically;
- transient cell failures retry under a deterministic
  :class:`RetryPolicy` (exponential backoff whose jitter is a pure
  function of the cell seed — replayable, never wall-clock-derived);
- cells that exhaust their retries are quarantined: the raised
  :class:`~repro.errors.GridCellError` carries every *completed*
  record and a typed :class:`QuarantineReport` instead of discarding
  the sweep.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.config import Scheme, make_scheme, parse_scheme_spec
from repro.core.metrics import RunMetrics
from repro.core.scheduler import Scheduler
from repro.core.splitting import WorkSplitter
from repro.errors import (
    ConfigError,
    ExecutorFallbackWarning,
    GridCellError,
    TimeoutUnenforcedWarning,
)
from repro.experiments.batched import CellPlan, is_batchable, run_batched_cells
from repro.experiments.chaos import GridChaos
from repro.experiments.keys import plan_key, scheme_name
from repro.obs import Observability
from repro.obs.registry import MetricsRegistry, record_run
from repro.simd.cost import CostModel
from repro.simd.machine import SimdMachine
from repro.util.rng import spawn_child
from repro.workmodel.divisible import DivisibleWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.serve.store import RecordStore

__all__ = [
    "Scale",
    "PAPER_SCALE",
    "SMALL_SCALE",
    "TINY_SCALE",
    "GridRecord",
    "GridFailure",
    "GRID_EXECUTORS",
    "RetryPolicy",
    "QuarantineReport",
    "cell_seed",
    "plan_grid",
    "run_divisible",
    "run_grid",
    "default_init_threshold",
]

#: Accepted ``run_grid(executor=...)`` values.  ``"auto"`` batches the
#: cells in one in-process arena or, for a large grid (see
#: :data:`POOL_THRESHOLD`) or an explicit ``n_jobs``, shards them over a
#: fork pool; hardening (``timeout``/``chaos``) routes the cells through
#: the worker pool, and cells whose scheme the batched executor cannot
#: replicate run serially in the parent, announced with
#: :class:`~repro.errors.ExecutorFallbackWarning` plus registry
#: metadata.  ``"serial"`` is the one-cell-at-a-time oracle.
GRID_EXECUTORS = ("auto", "serial")

#: Predicted grid cost (sum of W/P over the batched cells, roughly the
#: lock-step cycles they run) from which ``run_grid(executor="auto")``
#: shards the cells over a fork pool instead of one in-process arena.
#: Set at the crossover measured by ``benchmarks/pool_crossover.py``
#: (table in ``docs/performance.md``, "Pooled grids"), below which
#: starting and stopping the pool costs more than the second core saves.
#: Move it for a measurement from a script, never from an env var.
POOL_THRESHOLD = 5_000


@dataclass(frozen=True)
class Scale:
    """An experiment scale: machine size and the four Table 2 work sizes."""

    name: str
    n_pes: int
    works: tuple[int, int, int, int]
    table5_work: int

    @property
    def largest_work(self) -> int:
        return self.works[-1]


#: The paper's CM-2 configuration (Section 5): 8192 processors, the four
#: 15-puzzle problem sizes of Table 2, and Table 5's W = 2067137.
PAPER_SCALE = Scale(
    "paper", 8192, (941_852, 3_055_171, 6_073_623, 16_110_463), 2_067_137
)

#: Everything divided by 16 — same W/P ratios, 16x faster runs.
SMALL_SCALE = Scale("small", 512, (58_866, 190_948, 379_601, 1_006_904), 129_196)

#: Unit-test scale.
TINY_SCALE = Scale("tiny", 64, (7_358, 23_868, 47_450, 125_863), 16_149)

SCALES = {s.name: s for s in (PAPER_SCALE, SMALL_SCALE, TINY_SCALE)}


def default_init_threshold(scheme: Scheme | str) -> float | None:
    """Section 7's convention: dynamic triggers get the S^0.85 initial
    distribution phase; static triggers start cold."""
    spec = scheme.name if isinstance(scheme, Scheme) else scheme
    try:
        _, trig, _ = parse_scheme_spec(spec)
    except ValueError:
        # Baseline schemes (FESS, ...) distribute on their own trigger.
        return None
    return 0.85 if trig in ("DP", "DK") else None


@dataclass(frozen=True)
class GridRecord:
    """One cell of a run grid."""

    scheme: str
    n_pes: int
    total_work: int
    metrics: RunMetrics

    @property
    def efficiency(self) -> float:
        return self.metrics.efficiency


def run_divisible(
    scheme: Scheme | str,
    total_work: int,
    n_pes: int,
    *,
    cost_model: CostModel | None = None,
    splitter: WorkSplitter | None = None,
    seed: int = 0,
    init_threshold: float | None | str = "auto",
    initial: str = "root",
    max_cycles: int | None = None,
    sanitize: bool = False,
    obs: Observability | None = None,
) -> RunMetrics:
    """One scheduled run of a scheme over a divisible workload.

    ``init_threshold="auto"`` applies the paper's convention (0.85 for
    dynamic triggers, none for static); pass ``None`` or a float to
    override.  ``obs`` attaches an :class:`~repro.obs.Observability`
    bundle (typed events, metrics, profiling — observation never changes
    the run, and the final metrics are folded into ``obs.metrics`` when
    present).
    """
    if init_threshold == "auto":
        init_threshold = default_init_threshold(scheme)
    workload = DivisibleWorkload(
        total_work, n_pes, splitter=splitter, rng=seed, initial=initial
    )
    machine = SimdMachine(n_pes, cost_model if cost_model is not None else CostModel())
    scheduler = Scheduler(
        workload,
        machine,
        scheme,
        init_threshold=init_threshold,
        max_cycles=max_cycles,
        sanitize=sanitize,
        obs=obs,
    )
    metrics = scheduler.run()
    if obs is not None and obs.metrics is not None:
        record_run(obs.metrics, metrics)
    return metrics


def cell_seed(base_seed: int, index: int) -> int:
    """The deterministic seed of grid cell ``index``.

    Derived from ``spawn_child(base_seed, index)`` — a pure function of
    ``(base_seed, index)`` independent of process, platform, and of which
    other cells run — so serial and process-parallel grids see identical
    streams.  ``index`` enumerates cells in **scheme-major order**: the
    nested loops run ``for scheme: for n_pes: for total_work``, i.e.
    ``index = (i_scheme * len(pes) + i_pes) * len(works) + i_work``.
    The regression suite asserts this order so parallelization can never
    silently reshuffle seeds.
    """
    return int(spawn_child(base_seed, index).integers(0, 2**31 - 1))


@dataclass(frozen=True)
class GridFailure:
    """One grid cell that exhausted its retries."""

    index: int
    scheme: str
    n_pes: int
    total_work: int
    attempts: int
    error: str


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic retry budget and backoff for grid cells.

    ``delay(seed, attempt)`` is a **pure function** of its arguments —
    exponential growth ``base_delay * 2^attempt`` capped at
    ``max_delay``, then shrunk by up to ``jitter`` of itself using a
    ``spawn_child(seed, attempt)`` draw.  No wall clock and no global
    RNG ever enter the decision path, so a sweep's complete backoff
    schedule is replayable from its cell seeds alone (and the strict
    lint's RNG-provenance rules hold by construction).  Only the
    ``time.sleep`` that *executes* a computed delay touches real time.
    """

    max_retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 1.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigError(
                "retry delays must be >= 0, got "
                f"base_delay={self.base_delay} max_delay={self.max_delay}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, seed: int, attempt: int) -> float:
        """Backoff seconds before retry number ``attempt`` (0-based) of
        the cell seeded ``seed``.  Pure and replayable."""
        bounded = min(self.max_delay, self.base_delay * (2.0**attempt))
        if bounded <= 0.0 or self.jitter == 0.0:
            return bounded
        frac = float(spawn_child(seed, attempt).random())
        return bounded * (1.0 - self.jitter * frac)


@dataclass(frozen=True)
class QuarantineReport:
    """Summary of the poison cells a grid quarantined.

    Attached to the :class:`~repro.errors.GridCellError` a failed sweep
    raises, next to the ``completed`` records — the typed counterpart of
    the human-readable per-cell report in the exception message.
    """

    failures: tuple[GridFailure, ...]
    n_cells: int
    n_completed: int
    max_retries: int

    @property
    def indices(self) -> tuple[int, ...]:
        """Grid indices of the quarantined cells, ascending."""
        return tuple(f.index for f in self.failures)


def plan_grid(
    schemes: list[Scheme | str],
    works: list[int],
    pes: list[int],
    *,
    base_seed: int = 0,
    init_threshold: float | None | str = "auto",
    cost_model: CostModel | None = None,
) -> list[CellPlan]:
    """The planning pass: enumerate grid cells as executable CellPlans.

    Cells come back in scheme-major order with their deterministic
    :func:`cell_seed`, the init threshold already resolved (the
    ``"auto"`` convention applied per scheme) and ``cost_model``, so
    every executor — serial, batched in-process or sharded over the pool
    — starts from the same plans and cannot disagree about a cell.
    """
    cost_model = cost_model if cost_model is not None else CostModel()
    grid_schemes = [make_scheme(s) if isinstance(s, str) else s for s in schemes]
    plans: list[CellPlan] = []
    index = 0
    for scheme in grid_schemes:
        threshold = (
            default_init_threshold(scheme)
            if init_threshold == "auto"
            else init_threshold
        )
        for n_pes in pes:
            for total_work in works:
                plans.append(
                    CellPlan(
                        index=index,
                        scheme=scheme,
                        n_pes=n_pes,
                        total_work=total_work,
                        seed=cell_seed(base_seed, index),
                        init_threshold=threshold,
                        cost_model=cost_model,
                    )
                )
                index += 1
    return plans


def _run_unit(
    plans: list[CellPlan],
    attempts: list[int],
    sanitize: bool,
    timeout: float | None,
    chaos: GridChaos | None,
) -> list[tuple[int, RunMetrics]]:
    """One unit of planned cells — the only pool worker entry point.

    A one-cell unit runs :func:`run_divisible`; a larger one packs its
    cells into one MegaArena (:func:`run_batched_cells`).

    ``timeout`` arms a single ``SIGALRM`` watchdog of ``timeout *
    len(unit)`` seconds (POSIX only; elsewhere the parent warns
    :class:`~repro.errors.TimeoutUnenforcedWarning`) — batched cells
    advance in lock-step, so a per-cell budget scales to the unit it is
    packed into — and a tripped watchdog raises a retryable
    :class:`~repro.errors.GridCellError`.  ``chaos`` fires under the
    watchdog, once per cell the unit carries with that cell's own
    attempt number (``attempts``, in ``plans`` order), so the same
    ``GridChaos(index=...)`` crashes the same work however the grid is
    cut into units.
    """
    use_alarm = timeout is not None and hasattr(signal, "SIGALRM")
    if use_alarm:
        budget = timeout * len(plans)

        def _on_alarm(signum: int, frame: object) -> None:
            raise GridCellError(
                f"grid cell(s) {[p.index for p in plans]} timed out "
                f"after {budget}s"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        if chaos is not None:
            for plan, attempt in zip(plans, attempts):
                chaos.maybe_trigger(plan.index, attempt)
        if len(plans) == 1:
            return [(plans[0].index, _run_cell(plans[0], sanitize))]
        return sorted(run_batched_cells(plans, sanitize=sanitize).items())
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def _resolve_executor(
    executor: str, n_jobs: int | None, hardened: bool
) -> str:
    """Validate ``executor`` and ``n_jobs`` against the other arguments;
    return the ``grid.executor`` path label, ``"batched"`` for ``"auto"``."""
    if executor not in GRID_EXECUTORS:
        raise ConfigError(
            f"executor must be one of {GRID_EXECUTORS}, got {executor!r}"
        )
    if n_jobs is not None and (
        isinstance(n_jobs, bool)
        or not isinstance(n_jobs, (int, np.integer))
        or n_jobs < 1
    ):
        raise ConfigError(
            f"n_jobs must be None (decide) or an int >= 1, got {n_jobs!r}"
        )
    if executor == "serial" and hardened:
        raise ConfigError(
            "executor='serial' runs cells in the calling process, where "
            "timeout=/chaos= cannot be enforced; use executor='auto' to "
            "run them under the worker watchdog"
        )
    return "batched" if executor == "auto" else executor


def _predicted_cost(cells: list[CellPlan]) -> float:
    """Sum of W/P over ``cells``: about the lock-step cycles they run."""
    return sum(p.total_work / p.n_pes for p in cells)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


def _pool_workers(
    n_jobs: int | None, cells: list[CellPlan], *, hardened: bool
) -> int:
    """How many pool workers run the batched ``cells``; 0 keeps them in
    one arena in this process.  The one worker policy.

    An explicit ``n_jobs`` wins, and a hardened grid always goes through
    the pool.  Otherwise the grid pools, one worker per usable CPU, only
    when every condition holds:

    - at least two usable CPUs;
    - this process can fork safely: ``os.fork`` exists and no other
      thread is alive (forking a threaded process can deadlock; serve
      workers run a liveness thread, so they stay in-process);
    - the :func:`_predicted_cost` clears :data:`POOL_THRESHOLD`;
    - every scheme rebuilds from its name, as a pool worker must.

    A store does not keep a grid in-process: the parent publishes each
    pooled cell to it as the cell's shard lands.
    """
    if not cells:
        return 0
    if n_jobs is not None:
        workers = n_jobs
    elif (
        _can_fork()
        and _predicted_cost(cells) >= POOL_THRESHOLD
        and _named(cells)
    ):
        workers = _usable_cpus()
    else:
        workers = 1
    workers = min(workers, len(cells))
    if workers > 1 or hardened:
        return workers
    return 0


def _named(cells: list[CellPlan]) -> bool:
    """Whether every scheme in ``cells`` rebuilds from its name — a pool
    worker receives each scheme as its name."""
    try:
        for plan in cells:
            scheme_name(plan.scheme.name)
    except ConfigError:
        return False
    return True


def _can_fork() -> bool:
    """``os.fork`` exists and no other thread is alive: forking a
    threaded process can deadlock the child."""
    return hasattr(os, "fork") and threading.active_count() == 1


def _pool_context() -> multiprocessing.context.BaseContext:
    """``fork`` where :func:`_can_fork`, else ``spawn``.  A spawned
    worker re-imports the package before its first cell, the start-up
    cost :data:`POOL_THRESHOLD` is measured without, so ``auto`` only
    pools where it can fork; an explicit ``n_jobs`` or a hardened grid
    in a threaded caller pays it rather than risk a deadlocked child."""
    return multiprocessing.get_context("fork" if _can_fork() else "spawn")


#: One-per-process latch for the off-POSIX timeout warning.
_TIMEOUT_WARNING_EMITTED = False


def _warn_timeout_unenforced() -> None:
    global _TIMEOUT_WARNING_EMITTED
    if _TIMEOUT_WARNING_EMITTED:
        return
    _TIMEOUT_WARNING_EMITTED = True
    warnings.warn(
        "run_grid(timeout=...) cannot be enforced on this platform: the "
        "in-worker watchdog needs signal.SIGALRM (POSIX only).  Cells "
        "run without a wall-clock bound; grid metadata records "
        "grid.timeout_enforced = 0.",
        TimeoutUnenforcedWarning,
        stacklevel=3,
    )


def _raise_quarantine(
    plans: list[CellPlan],
    results: dict[int, RunMetrics],
    failures: list[GridFailure],
    max_retries: int,
    registry: MetricsRegistry | None,
    stored: bool,
) -> None:
    """Quarantine the poison cells: raise one :class:`GridCellError`
    carrying the structured failures, every completed record (scheme-
    major order), and a typed :class:`QuarantineReport` — graceful
    degradation instead of a discarded sweep."""
    failures.sort(key=lambda f: f.index)
    completed = tuple(
        GridRecord(p.scheme.name, p.n_pes, p.total_work, results[p.index])
        for p in plans
        if p.index in results
    )
    report = QuarantineReport(
        failures=tuple(failures),
        n_cells=len(plans),
        n_completed=len(completed),
        max_retries=max_retries,
    )
    if registry is not None:
        registry.counter("grid.quarantined").inc(len(failures))
    lines = [
        f"run_grid: {len(failures)} of {len(plans)} cells failed "
        f"after {max_retries} retries:"
    ]
    lines += [
        f"  cell {f.index}: scheme={f.scheme!r} W={f.total_work} "
        f"P={f.n_pes} attempts={f.attempts} last_error={f.error}"
        for f in failures
    ]
    lines.append(
        f"quarantined {len(failures)} poison cell(s); "
        f"{len(completed)} completed record(s) attached on .completed"
    )
    if stored:
        lines.append(
            "completed cells are in the store; rerun with the same store "
            "to retry only the quarantined cells"
        )
    raise GridCellError(
        "\n".join(lines),
        failures=tuple(failures),
        completed=completed,
        quarantine=report,
    )


def run_grid(
    schemes: list[Scheme | str],
    works: list[int],
    pes: list[int],
    *,
    cost_model: CostModel | None = None,
    base_seed: int = 0,
    init_threshold: float | None | str = "auto",
    n_jobs: int | None = None,
    timeout: float | None = None,
    retry: RetryPolicy | None = None,
    chaos: GridChaos | None = None,
    registry: MetricsRegistry | None = None,
    executor: str = "auto",
    sanitize: bool = False,
    store: "RecordStore | None" = None,
) -> list[GridRecord]:
    """The full cross product of schemes x W x P (Figure 4/7 grids).

    Each cell gets the deterministic child seed :func:`cell_seed`
    ``(base_seed, index)`` with ``index`` in scheme-major order (see
    there), so cells are reproducible independently of grid shape and of
    how the grid is executed: results come back in scheme-major order
    with the same per-cell seeds on every path, and all executors are
    record-for-record identical.

    **Execution** — the planned cells are cut into *units* (lists of
    cells) and ``executor`` (:data:`GRID_EXECUTORS`) picks the cut:

    - ``"auto"`` (default) packs every compatible cell into one
      :class:`~repro.workmodel.mega.MegaArena` and advances all of them
      with single full-width kernel calls; a cell leaves the arena the
      cycle it finishes.  The arena runs in this process, or the cells
      become shards of near-equal predicted cost (sum of W/P, longest
      cells first), one fork-pool worker each: at most ``n_jobs``
      shards when ``n_jobs > 1``, and with ``n_jobs`` None one per
      usable CPU when the grid's predicted cost clears
      :data:`POOL_THRESHOLD`, the host has two or more CPUs and the
      caller has no other live thread.  With ``timeout``/``chaos`` the
      cells always go through the pool (a single shard without
      ``n_jobs``), so an injected ``os._exit`` kills a worker, never
      the caller.  Cells whose scheme the arena cannot replicate
      (opaque factories, e.g. FESS) run serially in the calling
      process, unhardened, announced with
      :class:`~repro.errors.ExecutorFallbackWarning`.
    - ``"serial"`` is the one-cell-at-a-time oracle in the calling
      process; it cannot enforce ``timeout``/``chaos`` and rejects them.

    ``n_jobs`` is None (decide) or an int >= 1; ``n_jobs=1`` keeps an
    unhardened grid in this process.  Pool workers are forked, or
    spawned when the caller has another live thread.

    Pooled units need every scheme's name to round-trip through
    ``make_scheme`` (all Table 1 schemes do).  Cells split work with
    ``AlphaSplitter()``.

    **Durability** — ``store`` is a content-addressed
    :class:`~repro.serve.store.RecordStore` keyed by
    :func:`~repro.experiments.keys.plan_key` (every record-determining
    field of the cell's plan; a scheme ``make_scheme`` cannot rebuild
    has no key).  A cell already stored is taken from it
    (counted in ``grid.resumed_cells``) and not recomputed; every other
    cell is published with an atomic ``put`` the moment it finishes
    (by the in-process arena as it leaves, by the parent as a pooled
    shard lands).  Because cells are pure functions of their key and the
    store round-trips records exactly, a killed grid rerun on the same
    store returns records **bit-identical** to an uninterrupted run.  A
    fresh run wants a fresh store.

    **Hardening** — one loop serves every pooled unit:

    - ``timeout`` bounds each cell's wall-clock seconds through an
      in-worker ``SIGALRM`` watchdog of ``timeout * len(unit)`` (POSIX;
      elsewhere a one-time :class:`~repro.errors.TimeoutUnenforcedWarning`
      is emitted and ``grid.timeout_enforced`` is recorded as 0 instead
      of pretending the bound held);
    - a unit that raises, times out, or loses its worker charges one
      attempt to every cell it carried, and those cells are requeued
      **as one-cell units with the same** :func:`cell_seed` under
      ``retry`` (a :class:`RetryPolicy`), after a deterministic
      exponential backoff whose jitter derives from the cell seeds — so
      a retried cell's record is identical to an undisturbed one, the
      backoff schedule is replayable, and a poison cell ends up alone;
    - a ``BrokenProcessPool`` (worker killed hard) respawns the pool
      and requeues every unfinished in-flight cell the same way;
    - cells that exhaust their retries are **quarantined**: the raised
      :class:`~repro.errors.GridCellError` carries the structured
      :class:`GridFailure` list, every completed :class:`GridRecord`
      (``.completed``), and a typed :class:`QuarantineReport`
      (``.quarantine``) — with a store attached the finished cells
      are already durable and a rerun on the same store retries only
      the poison cells.

    ``chaos`` injects deterministic worker crashes (exit/raise/hang) for
    testing this machinery; see :class:`repro.experiments.chaos.GridChaos`.

    ``registry`` folds every cell's metrics into a
    :class:`~repro.obs.registry.MetricsRegistry` (plus ``grid.*``
    operational counters: cells total, retried cell attempts, resumed
    and quarantined cells, the resolved executor path and any
    auto-fallback reason, whether a requested timeout is enforced, the
    ``grid.workers`` gauge — 0 when no pool ran — and the parent-side
    ``grid.shard_s`` histogram of each pooled unit's submit-to-result
    seconds).
    Cell metrics are recorded in the parent process in cell-index order
    on every execution path, so all executors fold identical run
    metrics.

    ``sanitize`` turns on the runtime invariant checks in every cell on
    every path; sanitized records are bit-identical to unsanitized ones.
    """
    if retry is None:
        retry = RetryPolicy()
    if timeout is not None and timeout <= 0:
        raise ConfigError(f"timeout must be positive, got {timeout}")
    plans = plan_grid(
        schemes, works, pes, base_seed=base_seed, init_threshold=init_threshold,
        cost_model=cost_model,
    )
    hardened = timeout is not None or chaos is not None
    resolved = _resolve_executor(executor, n_jobs, hardened)
    # Cells the arena cannot replicate (opaque scheme factories) stay in
    # this process on the batched path.
    stay_behind = (
        {p.index for p in plans if not is_batchable(p.scheme)}
        if resolved == "batched"
        else set()
    )

    results: dict[int, RunMetrics] = {}
    keys: dict[int, str] = {}
    if store is not None:
        for plan in plans:
            keys[plan.index] = plan_key(plan)
            record = store.get(keys[plan.index])
            if record is not None:
                results[plan.index] = record.metrics
    resumed = len(results)
    todo = [p for p in plans if p.index not in results]

    def on_done(plan: CellPlan, metrics: RunMetrics) -> None:
        if store is not None:
            store.put(
                keys[plan.index],
                GridRecord(plan.scheme.name, plan.n_pes, plan.total_work, metrics),
            )

    fell_back = bool(stay_behind)
    if fell_back:
        names = sorted({p.scheme.name for p in plans if p.index in stay_behind})
        warnings.warn(
            "run_grid(executor='auto') runs scheme(s) the batched executor "
            f"cannot replicate serially in the calling process: "
            f"{', '.join(names)}"
            + (" (timeout/chaos do not reach those cells)" if hardened else ""),
            ExecutorFallbackWarning,
            stacklevel=2,
        )
    if registry is not None:
        registry.counter("grid.executor", {"path": resolved}).inc()
        if fell_back:
            registry.counter(
                "grid.executor_fallback", {"reason": "unbatchable-scheme"}
            ).inc()
    if timeout is not None:
        # A watchdog is armed only in pool workers, so the bound holds
        # when the platform has SIGALRM and no cell stays behind here.
        if not hasattr(signal, "SIGALRM"):
            _warn_timeout_unenforced()
        enforced = hasattr(signal, "SIGALRM") and not any(
            p.index in stay_behind for p in todo
        )
        if registry is not None:
            registry.gauge("grid.timeout_enforced").set(float(enforced))

    # Cut the work: pooled shards, one in-process arena, serial leftovers.
    units: list[list[CellPlan]] = []
    arena: list[CellPlan] = []
    serial: list[CellPlan] = []
    workers = 0
    if resolved == "serial":
        serial = todo
    else:
        arena = [p for p in todo if p.index not in stay_behind]
        serial = [p for p in todo if p.index in stay_behind]
        workers = _pool_workers(n_jobs, arena, hardened=hardened)
        if workers:
            units, arena = _cost_shards(arena, workers), []
    if registry is not None:
        registry.gauge("grid.workers").set(float(workers))

    retries = 0
    if units:
        retries = _execute_pooled(
            units,
            plans,
            results,
            on_done,
            sanitize=sanitize,
            timeout=timeout,
            chaos=chaos,
            max_workers=workers,
            retry=retry,
            registry=registry,
            stored=store is not None,
        )
    if arena:
        results.update(
            run_batched_cells(arena, sanitize=sanitize, on_cell_done=on_done)
        )
    for plan in serial:
        results[plan.index] = _run_cell(plan, sanitize)
        on_done(plan, results[plan.index])

    records = [
        GridRecord(p.scheme.name, p.n_pes, p.total_work, results[p.index])
        for p in plans
    ]
    _fold_grid_metrics(registry, records, retries=retries, resumed=resumed)
    return records


def _run_cell(plan: CellPlan, sanitize: bool) -> RunMetrics:
    """One planned cell through the serial oracle, :func:`run_divisible`."""
    return run_divisible(
        plan.scheme,
        plan.total_work,
        plan.n_pes,
        cost_model=plan.cost_model,
        seed=plan.seed,
        init_threshold=plan.init_threshold,
        sanitize=sanitize,
    )


def _cost_shards(plans: list[CellPlan], n_shards: int) -> list[list[CellPlan]]:
    """Cut plans into at most ``n_shards`` shards of near-equal predicted
    cost: sort by W/P, longest first (ties in index order), and cut the
    sorted run where its running cost is nearest each ``k/n`` of the
    total.  A shard's wall time is set by its longest cell, so the long
    cells share a shard instead of holding every shard open."""
    order = sorted(plans, key=lambda p: (-p.total_work / p.n_pes, p.index))
    n_shards = max(1, min(n_shards, len(order)))
    prefix = np.concatenate(
        ([0.0], np.cumsum([p.total_work / p.n_pes for p in order]))
    )
    cuts = [0]
    for k in range(1, n_shards):
        target = prefix[-1] * k / n_shards
        i = int(np.searchsorted(prefix, target))
        if target - prefix[i - 1] < prefix[i] - target:
            i -= 1
        # Every shard keeps at least one cell.
        cuts.append(min(max(i, cuts[-1] + 1), len(order) - (n_shards - k)))
    cuts.append(len(order))
    return [order[a:b] for a, b in zip(cuts, cuts[1:])]


#: ``grid.shard_s`` buckets, seconds from submitting a unit to its result.
_SHARD_BUCKETS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 60.0)


def _execute_pooled(
    units: list[list[CellPlan]],
    plans: list[CellPlan],
    results: dict[int, RunMetrics],
    on_done: Callable[[CellPlan, RunMetrics], None],
    *,
    sanitize: bool,
    timeout: float | None,
    chaos: GridChaos | None,
    max_workers: int,
    retry: RetryPolicy,
    registry: MetricsRegistry | None,
    stored: bool,
) -> int:
    """Run ``units`` on a process pool: the one retry/quarantine loop.

    Each round submits every pending unit to :func:`_run_unit` and
    hands results to ``on_done`` as they land.  A unit that fails —
    raised, timed out, or its pool broke — charges one attempt to each
    cell it carried; cells with budget left are requeued as one-cell
    units (so a poison cell is isolated from its shard-mates), the rest
    become :class:`GridFailure` entries.  Returns the total cell
    attempts charged; raises the quarantine
    :class:`~repro.errors.GridCellError` if any cell ran out of budget.
    """
    by_index = {p.index: p for unit in units for p in unit}
    for plan in by_index.values():
        scheme_name(plan.scheme.name)  # raises ConfigError if a worker cannot
    attempts = dict.fromkeys(by_index, 0)

    shard_s = (
        registry.histogram("grid.shard_s", buckets=_SHARD_BUCKETS)
        if registry is not None
        else None
    )
    failures: list[GridFailure] = []
    pool: ProcessPoolExecutor | None = None
    try:
        while units:
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=max_workers, mp_context=_pool_context()
                )
            submitted = time.perf_counter()
            in_flight = {
                pool.submit(
                    _run_unit, u, [attempts[p.index] for p in u], sanitize, timeout, chaos
                ): u
                for u in units
            }
            units = []
            delays: list[float] = []
            pool_broken = False
            for fut in as_completed(in_flight):
                unit = in_flight[fut]
                try:
                    done = fut.result()
                except BrokenProcessPool:
                    # A hard worker death poisons every future of the
                    # old pool; respawn below and let the requeued cells
                    # rerun with their original seeds.
                    pool_broken = True
                    error = "worker pool broke while the cell was in flight"
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                else:
                    if shard_s is not None:
                        shard_s.observe(time.perf_counter() - submitted)
                    for index, metrics in done:
                        results[index] = metrics
                        on_done(by_index[index], metrics)
                    continue
                for plan in unit:
                    attempts[plan.index] += 1
                    if attempts[plan.index] > retry.max_retries:
                        failures.append(
                            GridFailure(
                                plan.index,
                                plan.scheme.name,
                                plan.n_pes,
                                plan.total_work,
                                attempts[plan.index],
                                error,
                            )
                        )
                    else:
                        units.append([plan])
                        delays.append(
                            retry.delay(plan.seed, attempts[plan.index] - 1)
                        )
            if pool_broken:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
            units.sort(key=lambda unit: unit[0].index)
            if delays:
                # One sleep per resubmission round — the *decision* (how
                # long) came from RetryPolicy.delay, which is pure.
                time.sleep(max(delays))
    except BaseException:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        raise
    if pool is not None:
        # Join the workers and the pool's manager thread, so the next
        # grid finds no thread of this one when it decides to fork.
        pool.shutdown(wait=True)
    if failures:
        _raise_quarantine(
            plans, results, failures, retry.max_retries, registry, stored
        )
    return sum(attempts.values())


def _fold_grid_metrics(
    registry: MetricsRegistry | None,
    records: list[GridRecord],
    *,
    retries: int,
    resumed: int = 0,
) -> None:
    """Record a finished grid into ``registry`` (parent process only).

    Workers cannot share a registry object across process boundaries, so
    every execution path folds the returned records here, in index order
    — serial and parallel grids produce identical snapshots.
    """
    if registry is None:
        return
    registry.counter("grid.cells_total").inc(len(records))
    registry.counter("grid.retries_total").inc(retries)
    if resumed:
        registry.counter("grid.resumed_cells").inc(resumed)
    for record in records:
        record_run(registry, record.metrics)

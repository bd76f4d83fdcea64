"""Run helpers: single scheduled runs and (scheme, W, P) grids.

A :class:`Scale` bundles the machine size and the four problem sizes of
the paper's Table 2.  ``PAPER_SCALE`` is the CM-2 configuration verbatim
(P = 8192, W up to 1.61e7 — fully affordable on the vectorized divisible
workload); ``SMALL_SCALE`` divides both by 16 for quick test runs, and
``TINY_SCALE`` is for unit tests.

Grid execution is durable and hardened (see ``docs/durability.md``):

- ``run_grid(journal=path)`` records each completed cell into a
  write-ahead :class:`~repro.experiments.journal.CellJournal`, and
  ``resume=True`` skips journaled cells, bit-identically;
- transient cell failures retry under a deterministic
  :class:`RetryPolicy` (exponential backoff whose jitter is a pure
  function of the cell seed — replayable, never wall-clock-derived);
- cells that exhaust their retries are quarantined: the raised
  :class:`~repro.errors.GridCellError` carries every *completed*
  record and a typed :class:`QuarantineReport` instead of discarding
  the sweep.
"""

from __future__ import annotations

import signal
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

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
from repro.faults import CheckpointConfig, FaultPlan, GridChaos
from repro.kernels.dispatch import DEFAULT_KERNEL_BACKEND
from repro.obs import Observability
from repro.obs.registry import MetricsRegistry, record_run
from repro.simd.cost import CostModel
from repro.simd.machine import SimdMachine
from repro.util.rng import spawn_child
from repro.workmodel.divisible import DivisibleWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.experiments.journal import CellJournal

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

#: Accepted ``run_grid(executor=...)`` values.  ``"auto"`` is
#: ``"batched"``: hardening (``timeout``/``chaos``) routes the cells
#: through the worker pool, and cells whose scheme the batched executor
#: cannot replicate run serially in the parent, announced with
#: :class:`~repro.errors.ExecutorFallbackWarning` plus registry metadata.
GRID_EXECUTORS = ("auto", "serial", "process", "batched")


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
    trace: bool = False,
    max_cycles: int | None = None,
    faults: "FaultPlan | None" = None,
    checkpoint: "CheckpointConfig | None" = None,
    sanitize: bool = False,
    obs: Observability | None = None,
) -> RunMetrics:
    """One scheduled run of a scheme over a divisible workload.

    ``init_threshold="auto"`` applies the paper's convention (0.85 for
    dynamic triggers, none for static); pass ``None`` or a float to
    override.  ``faults`` injects a deterministic
    :class:`~repro.faults.FaultPlan`; ``checkpoint`` periodically
    serializes the run (see :mod:`repro.faults.checkpoint`); ``obs``
    attaches an :class:`~repro.obs.Observability` bundle (typed events,
    metrics, profiling — observation never changes the run, and the
    final metrics are folded into ``obs.metrics`` when present).
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
        trace=trace,
        max_cycles=max_cycles,
        faults=faults,
        checkpoint=checkpoint,
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
) -> list[CellPlan]:
    """The planning pass: enumerate grid cells as executable CellPlans.

    Cells come back in scheme-major order with their deterministic
    :func:`cell_seed` and the init threshold already resolved (the
    ``"auto"`` convention applied per scheme), so every executor —
    serial, process-pooled, batched, sharded — starts from the same
    plan and cannot disagree about seeds or thresholds.
    """
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
                    )
                )
                index += 1
    return plans


def _run_unit(payload: tuple) -> list[tuple[int, RunMetrics]]:
    """One unit of planned cells — the only pool worker entry point.

    Schemes travel as spec strings (Scheme factories close over locals
    and do not pickle) and are rebuilt with ``make_scheme`` here; the
    cost model and splitter pickle as-is.  A one-cell unit runs
    :func:`run_divisible`; a larger one packs its cells into one
    MegaArena (:func:`run_batched_cells`), so spawn and rebuild cost is
    paid per unit, not per cell.

    ``timeout`` arms a single ``SIGALRM`` watchdog of ``timeout *
    len(unit)`` seconds (POSIX only; elsewhere the parent warns
    :class:`~repro.errors.TimeoutUnenforcedWarning`) — batched cells
    advance in lock-step, so a per-cell budget scales to the unit it is
    packed into — and a tripped watchdog raises a retryable
    :class:`~repro.errors.GridCellError`.  ``chaos`` fires under the
    watchdog, once per cell the unit carries with that cell's own
    attempt number, so the same ``GridChaos(index=...)`` crashes the
    same work however the grid is cut into units.
    """
    rows, cost_model, splitter, kernel_backend, sanitize, timeout, chaos = payload
    plans = [
        CellPlan(index, make_scheme(spec), n_pes, total_work, seed, threshold)
        for (index, spec, n_pes, total_work, seed, threshold, _) in rows
    ]
    use_alarm = timeout is not None and hasattr(signal, "SIGALRM")
    if use_alarm:
        budget = timeout * len(rows)

        def _on_alarm(signum: int, frame: object) -> None:
            raise GridCellError(
                f"grid cell(s) {[p.index for p in plans]} timed out "
                f"after {budget}s"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        if chaos is not None:
            for row in rows:
                chaos.maybe_trigger(row[0], row[-1])
        if len(plans) == 1:
            metrics = _run_cell(plans[0], cost_model, splitter, sanitize)
            return [(plans[0].index, metrics)]
        return sorted(
            run_batched_cells(
                plans,
                cost_model=cost_model,
                splitter=splitter,
                sanitize=sanitize,
                kernel_backend=kernel_backend,
            ).items()
        )
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def _resolve_executor(
    executor: str, n_jobs: int | None, hardened: bool
) -> str:
    """Validate ``executor`` against the other arguments; ``"auto"`` is
    ``"batched"``."""
    if executor not in GRID_EXECUTORS:
        raise ConfigError(
            f"executor must be one of {GRID_EXECUTORS}, got {executor!r}"
        )
    if executor == "process" and not (n_jobs is not None and n_jobs > 1):
        raise ConfigError("executor='process' requires n_jobs > 1")
    if executor == "serial" and hardened:
        raise ConfigError(
            "executor='serial' runs cells in the calling process, where "
            "timeout=/chaos= cannot be enforced; use executor='auto' (or "
            "'batched'/'process') to run them under the worker watchdog"
        )
    return "batched" if executor == "auto" else executor


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
    journal: "CellJournal | None",
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
    if journal is not None:
        lines.append(
            f"completed cells are journaled in {journal.path}; rerun with "
            "resume=True to retry only the quarantined cells"
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
    splitter: WorkSplitter | None = None,
    base_seed: int = 0,
    init_threshold: float | None | str = "auto",
    n_jobs: int | None = None,
    timeout: float | None = None,
    retry: RetryPolicy | None = None,
    chaos: GridChaos | None = None,
    registry: MetricsRegistry | None = None,
    executor: str = "auto",
    kernel_backend: str = DEFAULT_KERNEL_BACKEND,
    sanitize: bool = False,
    journal: "str | Path | None" = None,
    resume: bool = False,
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

    - ``"batched"`` packs every compatible cell into one
      :class:`~repro.workmodel.mega.MegaArena` and advances all of them
      with single full-width kernel calls, in this process.  With
      ``n_jobs > 1`` the cells become ``n_jobs`` contiguous shards, one
      pool worker each; with ``timeout``/``chaos`` they always go
      through the pool (a single shard without ``n_jobs``), so an
      injected ``os._exit`` kills a worker, never the caller.  Cells
      whose scheme the arena cannot replicate (opaque factories, e.g.
      FESS) run serially in the calling process, unhardened.
    - ``"process"`` (needs ``n_jobs > 1``) makes every cell its own
      unit on the pool.
    - ``"serial"`` is the one-cell-at-a-time oracle in the calling
      process; it cannot enforce ``timeout``/``chaos`` and rejects them.
    - ``"auto"`` (default) is ``"batched"``, and warns
      :class:`~repro.errors.ExecutorFallbackWarning` naming any scheme
      it has to run serially.

    Pooled units need every scheme's name to round-trip through
    ``make_scheme`` (all Table 1 schemes do).

    **Durability** — ``journal`` names a write-ahead
    :class:`~repro.experiments.journal.CellJournal` file: every
    completed cell is CRC-framed and fsynced into it the moment it
    finishes, keyed by ``(spec, W, P, cell_seed, code_version)``.
    ``resume=True`` replays the journal first and skips every cell it
    already holds; because cells are pure functions of their key and
    the journal round-trips records exactly, a killed-and-resumed grid
    returns records **bit-identical** to an uninterrupted run.

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
      (``.quarantine``) — with a journal attached the finished cells
      are already durable and a ``resume=True`` rerun retries only the
      poison cells.

    ``chaos`` injects deterministic worker crashes (exit/raise/hang) for
    testing this machinery; see :class:`repro.faults.chaos.GridChaos`.

    ``registry`` folds every cell's metrics into a
    :class:`~repro.obs.registry.MetricsRegistry` (plus ``grid.*``
    operational counters: cells total, retried cell attempts, resumed
    and quarantined cells, the resolved executor path and any
    auto-fallback reason, and whether a requested timeout is enforced).
    Recording happens in the parent process in cell-index order on every
    execution path, so all executors produce identical snapshots.

    ``kernel_backend`` selects the kernel tier the mega-arena and its
    matchers run on (``"auto"`` by default, or
    ``"numpy"``/``"fused"``/``"jit"`` — see :mod:`repro.kernels`);
    one-cell units ignore it, and every tier is record-identical.

    ``sanitize`` turns on the runtime invariant checks in every cell on
    every path; sanitized records are bit-identical to unsanitized ones.
    """
    if retry is None:
        retry = RetryPolicy()
    if timeout is not None and timeout <= 0:
        raise ConfigError(f"timeout must be positive, got {timeout}")
    if resume and journal is None:
        raise ConfigError("run_grid(resume=True) requires journal=<path>")
    plans = plan_grid(
        schemes, works, pes, base_seed=base_seed, init_threshold=init_threshold
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

    cell_journal: "CellJournal | None" = None
    if journal is not None:
        # Imported lazily: journal.py imports store.py, which imports
        # this module back for GridRecord.
        from repro.experiments.journal import CellJournal

        cell_journal = CellJournal(journal)

    results: dict[int, RunMetrics] = {}
    resumed = 0
    if cell_journal is not None and resume:
        for plan in plans:
            record = cell_journal.lookup(plan)
            if record is not None:
                results[plan.index] = record.metrics
                resumed += 1
    todo = [p for p in plans if p.index not in results]

    def on_done(plan: CellPlan, metrics: RunMetrics) -> None:
        if cell_journal is not None:
            cell_journal.record_cell(plan, metrics)

    fell_back = executor == "auto" and bool(stay_behind)
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

    # Cut the work: pooled units, one in-process arena, serial leftovers.
    n_workers = n_jobs if n_jobs is not None and n_jobs > 1 else 1
    units: list[list[CellPlan]] = []
    arena: list[CellPlan] = []
    serial: list[CellPlan] = []
    if resolved == "serial":
        serial = todo
    elif resolved == "process":
        units = [[p] for p in todo]
    else:
        arena = [p for p in todo if p.index not in stay_behind]
        serial = [p for p in todo if p.index in stay_behind]
        if arena and (hardened or (n_workers > 1 and len(arena) > 1)):
            units, arena = _shard_plans(arena, n_workers), []

    retries = 0
    if units:
        retries = _execute_pooled(
            units,
            plans,
            results,
            on_done,
            worker_args=(
                cost_model, splitter, kernel_backend, sanitize, timeout, chaos
            ),
            max_workers=n_workers,
            retry=retry,
            registry=registry,
            journal=cell_journal,
        )
    if arena:
        results.update(
            run_batched_cells(
                arena,
                cost_model=cost_model,
                splitter=splitter,
                sanitize=sanitize,
                kernel_backend=kernel_backend,
                on_cell_done=on_done,
            )
        )
    for plan in serial:
        results[plan.index] = _run_cell(plan, cost_model, splitter, sanitize)
        on_done(plan, results[plan.index])

    records = [
        GridRecord(p.scheme.name, p.n_pes, p.total_work, results[p.index])
        for p in plans
    ]
    _fold_grid_metrics(registry, records, retries=retries, resumed=resumed)
    return records


def _run_cell(
    plan: CellPlan,
    cost_model: CostModel | None,
    splitter: WorkSplitter | None,
    sanitize: bool,
) -> RunMetrics:
    """One planned cell through the serial oracle, :func:`run_divisible`."""
    return run_divisible(
        plan.scheme,
        plan.total_work,
        plan.n_pes,
        cost_model=cost_model,
        splitter=splitter,
        seed=plan.seed,
        init_threshold=plan.init_threshold,
        sanitize=sanitize,
    )


def _shard_plans(plans: list[CellPlan], n_shards: int) -> list[list[CellPlan]]:
    """Split plans into at most ``n_shards`` contiguous, near-equal chunks."""
    n_shards = max(1, min(n_shards, len(plans)))
    size, rem = divmod(len(plans), n_shards)
    shards: list[list[CellPlan]] = []
    start = 0
    for s in range(n_shards):
        stop = start + size + (1 if s < rem else 0)
        shards.append(plans[start:stop])
        start = stop
    return shards


def _execute_pooled(
    units: list[list[CellPlan]],
    plans: list[CellPlan],
    results: dict[int, RunMetrics],
    on_done: Callable[[CellPlan, RunMetrics], None],
    *,
    worker_args: tuple,
    max_workers: int,
    retry: RetryPolicy,
    registry: MetricsRegistry | None,
    journal: "CellJournal | None",
) -> int:
    """Run ``units`` on a process pool: the one retry/quarantine loop.

    Each round submits every pending unit to :func:`_run_unit` and
    journals results as they land.  A unit that fails — raised, timed
    out, or its pool broke — charges one attempt to each cell it
    carried; cells with budget left are requeued as one-cell units (so
    a poison cell is isolated from its shard-mates), the rest become
    :class:`GridFailure` entries.  Returns the total cell attempts charged;
    raises the quarantine :class:`~repro.errors.GridCellError` if any
    cell ran out of budget.
    """
    by_index = {p.index: p for unit in units for p in unit}
    for name in sorted({p.scheme.name for p in by_index.values()}):
        try:
            make_scheme(name)
        except ValueError:
            raise ConfigError(
                f"scheme {name!r} cannot be rebuilt from its spec; pooled "
                "grid execution supports spec-named schemes only — use "
                "the serial path"
            ) from None
    attempts = dict.fromkeys(by_index, 0)

    def payload(unit: list[CellPlan]) -> tuple:
        rows = [
            (
                p.index,
                p.scheme.name,
                p.n_pes,
                p.total_work,
                p.seed,
                p.init_threshold,
                attempts[p.index],
            )
            for p in unit
        ]
        return (rows, *worker_args)

    failures: list[GridFailure] = []
    pool: ProcessPoolExecutor | None = None
    try:
        while units:
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=max_workers)
            in_flight = {pool.submit(_run_unit, payload(u)): u for u in units}
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
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
    if failures:
        _raise_quarantine(
            plans, results, failures, retry.max_retries, registry, journal
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

"""SIMD-parallel depth-first search with real stacks.

``SearchWorkload`` distributes a cost-bounded DFS over the simulated
machine's PEs: every lock-step cycle, each non-empty PE pops one untried
alternative, goal-tests it, and pushes its bound-pruned successors; work
donation hands over the alternative at the bottom of a stack (Section 5's
15-puzzle policy).  ``ParallelIDAStar`` wraps it in the iterative-
deepening driver, sharing one machine ledger across iterations so the
reported efficiency covers the whole run.

The workload picks its stack storage from the problem alone:

- a problem that exposes the packed view (``_ARENA_PROTOCOL``) and
  answers ``supports_arena_backend()`` — a
  :class:`~repro.problems.npuzzle.SlidingPuzzle` with the Manhattan
  heuristic and at most 16 cells — has all stacks packed into one
  :class:`~repro.simd.arena.WindowArena` of two int64 planes (the board
  ``word`` and the ``g``/``h``/key ``info``, :mod:`repro.search.kernel`);
  a cycle pops every non-empty top, goal-tests, generates children from
  the puzzle's per-key move tables, updates ``h`` incrementally (O(1)
  per move instead of an O(side^2) recompute), bound-prunes and
  pushes — all in a few dozen 1-D numpy calls;
- any other :class:`~repro.search.problem.SearchProblem` (n-queens,
  colouring, a linear-conflict puzzle, a 5x5 board) gets one
  :class:`~repro.search.stack.DFSStack` per PE, expanded in a per-PE
  Python loop that scores children by ``problem.successors(state, h)``,
  as serial :func:`~repro.search.serial.depth_bounded_dfs` does.

Both storages expand the *same* deterministic tree, so full runs are
expansion-count- and solution-identical — asserted scheme by scheme in
the integration suite, which reaches the ``DFSStack`` path on a puzzle by
hiding its packed view (``tests/oracles.opaque``).

Because each iteration runs its bound to exhaustion (all solutions up to
the bound are collected), the number of nodes expanded is *identical* to
serial IDA*'s — the paper's anomaly-free setup, asserted by the
integration tests.

Busy/idle/expanding masks derive from one cached per-PE entry count,
invalidated on every mutation; code that mutates the ``DFSStack`` objects
in ``stacks`` directly must call :meth:`SearchWorkload.invalidate_masks`
before re-reading masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import Scheme, make_scheme
from repro.core.metrics import RunMetrics
from repro.core.scheduler import Scheduler
from repro.obs import Observability
from repro.obs.events import IterationEvent
from repro.obs.profile import span
from repro.obs.registry import record_run
from repro.search.kernel import G_SHIFT, H_SHIFT, KEY_MASK, expand_cycle
from repro.search.problem import SearchProblem
from repro.search.stack import DFSStack, StackEntry
from repro.simd.arena import WindowArena
from repro.simd.cost import CostModel
from repro.simd.machine import SimdMachine
from repro.util.validation import check_positive_int

__all__ = [
    "SearchWorkload",
    "ParallelIDAStar",
    "ParallelSearchResult",
    "parallel_depth_bounded",
]

#: What a problem must expose to be stored in the packed arena
#: (duck-typed so problems/ and search/ stay import-cycle-free).
_ARENA_PROTOCOL = (
    "supports_arena_backend",
    "packed_moves",
    "encode_state",
    "decode_state",
)


class SearchWorkload:
    """A cost-bounded DFS over real per-PE stacks (Workload protocol).

    Parameters
    ----------
    problem:
        The tree-search problem.
    bound:
        IDA* cost bound: only nodes with ``f = g + h <= bound`` enter
        stacks.
    n_pes:
        ``P``.
    split:
        Donation policy — ``"bottom"`` (paper's choice: the alternative
        nearest the root) or ``"half"`` (ablation: half the alternatives).
    first_solution_only:
        Stop at the cycle boundary after any PE finds a goal — the mode
        with speedup anomalies (Rao & Kumar [33]).  The paper's
        experiments keep this off; the anomaly benchmark turns it on.
    """

    def __init__(
        self,
        problem: SearchProblem,
        bound: int,
        n_pes: int,
        *,
        split: str = "bottom",
        first_solution_only: bool = False,
    ) -> None:
        if split not in ("bottom", "half"):
            raise ValueError(f"split must be 'bottom' or 'half', got {split!r}")
        self.problem = problem
        self.bound = int(bound)
        self.n_pes = check_positive_int(n_pes, "n_pes")
        self.split = split
        self.first_solution_only = first_solution_only

        self.expanded = 0
        self.solutions = 0
        self.goal_depths: list[int] = []
        self.next_bound: int | None = None
        self._cached_counts: np.ndarray | None = None

        self._stacks: list[DFSStack] | None = None
        self._arena: WindowArena | None = None
        root = problem.initial_state()
        h0 = problem.heuristic(root)
        root_in_bound = h0 <= self.bound
        if not root_in_bound:
            # Same report as depth_bounded_dfs: the pruned root's f is
            # the next threshold, not "tree exhausted".
            self.next_bound = h0
        if (
            all(hasattr(problem, name) for name in _ARENA_PROTOCOL)
            and problem.supports_arena_backend()
        ):
            rows = (((), np.int64), ((), np.int64))
            self._arena = WindowArena(self.n_pes, rows, capacity=64)
            if root_in_bound:
                word, key = problem.encode_state(root)
                self._arena.push_root(0, word, h0 << H_SHIFT | key)
        else:
            self._stacks = [DFSStack() for _ in range(self.n_pes)]
            if root_in_bound:
                self._stacks[0] = DFSStack([StackEntry(root, 0, h0)])

    # -- storage views -----------------------------------------------------

    @property
    def stacks(self) -> list:
        """The per-PE stacks.

        ``DFSStack`` storage: the live list of ``DFSStack`` objects
        (mutable in place — call :meth:`invalidate_masks` after direct
        edits).  Arena storage: a *snapshot* — one list of decoded
        ``StackEntry`` per PE, bottom to top; mutating it does not touch
        the arena.
        """
        if self._stacks is not None:
            return self._stacks
        assert self._arena is not None
        problem = self.problem
        out = []
        for pe in range(self.n_pes):
            words, infos = self._arena.window(pe)
            out.append(
                [
                    StackEntry(
                        problem.decode_state(word, info & KEY_MASK),
                        info >> G_SHIFT,
                        (info >> H_SHIFT) & KEY_MASK,
                    )
                    for word, info in zip(words.tolist(), infos.tolist())
                ]
            )
        return out

    def invalidate_masks(self) -> None:
        """Drop the cached per-PE counts after direct stack mutation."""
        self._cached_counts = None

    # -- Workload protocol ------------------------------------------------

    def _counts(self) -> np.ndarray:
        """Per-PE pending-entry counts, cached until the next mutation."""
        if self._cached_counts is None:
            if self._arena is not None:
                self._cached_counts = self._arena.counts()
            else:
                assert self._stacks is not None
                self._cached_counts = np.fromiter(
                    (s.node_count() for s in self._stacks),
                    dtype=np.int64,
                    count=self.n_pes,
                )
        return self._cached_counts

    def expanding_mask(self) -> np.ndarray:
        return self._counts() > 0

    def busy_mask(self) -> np.ndarray:
        return self._counts() >= 2

    def idle_mask(self) -> np.ndarray:
        return self._counts() == 0

    def expand_cycle(self) -> int:
        if self._arena is not None:
            return self._expand_cycle_arena()
        return self._expand_cycle_list()

    def _expand_cycle_list(self) -> int:
        with span("expand.search.list"):
            return self._expand_cycle_list_inner()

    def _expand_cycle_list_inner(self) -> int:
        stacks = self._stacks
        assert stacks is not None
        self._cached_counts = None
        n = 0
        problem = self.problem
        bound = self.bound
        for stack in stacks:
            entry = stack.pop_next()
            if entry is None:
                continue
            n += 1
            self.expanded += 1
            state, g = entry.state, entry.g
            if problem.is_goal(state):
                self.solutions += 1
                self.goal_depths.append(g)
                continue
            level: list[StackEntry] = []
            for child, h in problem.successors(state, entry.h):
                f = g + 1 + h
                if f <= bound:
                    level.append(StackEntry(child, g + 1, h))
                elif self.next_bound is None or f < self.next_bound:
                    self.next_bound = f
            # Reverse so pop_next() (which pops from the tail) visits the
            # children in the problem's generation order — same as serial.
            level.reverse()
            stack.push_level(level)
        return n

    def _expand_cycle_arena(self) -> int:
        with span("expand.search.arena"):
            return self._expand_cycle_arena_inner()

    def _expand_cycle_arena_inner(self) -> int:  # repro: kernel
        return expand_cycle(self)

    def transfer(self, donors: np.ndarray, receivers: np.ndarray) -> int:
        donors = np.asarray(donors, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        if donors.shape != receivers.shape:
            raise ValueError("donors and receivers must pair one-to-one")
        if len(donors) == 0:
            return 0
        self._cached_counts = None
        if self._arena is not None:
            return self._transfer_arena(donors, receivers)
        stacks = self._stacks
        assert stacks is not None
        moved = 0
        for d, r in zip(donors.tolist(), receivers.tolist()):
            donor = stacks[d]
            if not donor.can_split() or not stacks[r].is_empty():
                continue
            if self.split == "bottom":
                entry = donor.split_bottom()
                assert entry is not None
                stacks[r] = DFSStack([entry])
            else:
                donated = donor.split_half()
                if not donated:
                    continue
                receiver = DFSStack()
                # Rebuild levels shallow-to-deep so the receiver's DFS
                # continues in depth order; entries donated from the same
                # level stay siblings.
                for entry in sorted(donated, key=lambda e: e.g):
                    receiver.push_level([entry])
                stacks[r] = receiver
            moved += 1
        return moved

    def _transfer_arena(self, donors: np.ndarray, receivers: np.ndarray) -> int:  # repro: kernel
        arena = self._arena
        assert arena is not None
        counts = arena.counts()
        valid = (counts[donors] >= 2) & (counts[receivers] == 0)
        donors = donors[valid]
        receivers = receivers[valid]
        if len(donors) == 0:
            return 0
        if self.split == "bottom":
            arena.donate_bottoms(donors, receivers)
            return int(len(donors))
        # The "half" ablation moves the bottom count // 2 entries and
        # re-sorts them shallow-to-deep by g (stable), matching the
        # DFSStack path's receiver rebuild; that per-pair reshuffle stays
        # a Python loop (it is not a paper path).
        for d, r in zip(donors.tolist(), receivers.tolist()):
            words, infos = arena.take_bottoms(d, int(counts[d]) // 2)
            order = np.argsort(infos >> G_SHIFT, kind="stable")
            arena.inject_window(r, words[order], infos[order])
        return int(len(donors))

    def done(self) -> bool:
        # Goal detection happens at cycle boundaries — all PEs finish the
        # lock-step cycle before the global OR of goal flags is read.
        if self.first_solution_only and self.solutions > 0:
            return True
        return not self._counts().any()

    def total_expanded(self) -> int:
        return self.expanded


def parallel_depth_bounded(
    problem: SearchProblem,
    bound: int,
    n_pes: int,
    scheme: Scheme | str,
    *,
    cost_model: CostModel | None = None,
    init_threshold: float | None = None,
    split: str = "bottom",
    first_solution_only: bool = False,
    sanitize: bool = False,
) -> tuple[SearchWorkload, RunMetrics]:
    """One cost-bounded parallel DFS pass (no iterative deepening).

    The single-iteration analogue of
    :func:`repro.search.serial.depth_bounded_dfs` — the right driver for
    problems without a heuristic (synthetic trees, exhaustive
    enumeration), where IDA* would re-expand the tree once per unit of
    bound.  Returns the exhausted workload (holding ``expanded``,
    ``solutions``, ``next_bound``) and the run metrics.
    """
    machine = SimdMachine(n_pes, cost_model if cost_model is not None else CostModel())
    workload = SearchWorkload(
        problem,
        bound,
        n_pes,
        split=split,
        first_solution_only=first_solution_only,
    )
    metrics = Scheduler(
        workload,
        machine,
        scheme,
        init_threshold=init_threshold,
        sanitize=sanitize,
    ).run()
    return workload, metrics


@dataclass(frozen=True)
class ParallelSearchResult:
    """Outcome of a parallel IDA* run.

    ``total_expanded`` is the parallel ``W``; ``per_iteration_expanded``
    lets tests compare each iteration against serial IDA* exactly.
    """

    solution_cost: int | None
    solutions: int
    total_expanded: int
    bounds: tuple[int, ...]
    per_iteration_expanded: tuple[int, ...]
    metrics: RunMetrics


class ParallelIDAStar:
    """Iterative-deepening driver over :class:`SearchWorkload`.

    One :class:`~repro.simd.machine.SimdMachine` ledger spans all
    iterations, so the final metrics describe the entire search exactly as
    the paper's tables do.

    Parameters
    ----------
    problem, n_pes:
        What to search and with how many PEs.
    scheme:
        Load-balancing scheme (spec string or :class:`Scheme`).
    cost_model:
        Machine cost model; defaults to CM-2 constants.
    init_threshold:
        Initial-distribution threshold (Section 7 uses 0.85 for dynamic
        triggers); ``None`` skips the initialization phase.
    split:
        Stack donation policy, forwarded to the workload.
    sanitize:
        Forwarded to every iteration's
        :class:`~repro.core.scheduler.Scheduler` — assert the lock-step
        invariants throughout the run.
    obs:
        An :class:`~repro.obs.Observability` bundle shared by every
        iteration's scheduler; the driver adds one
        :class:`~repro.obs.events.IterationEvent` per bound and folds the
        final metrics into ``obs.metrics`` via
        :func:`~repro.obs.registry.record_run`.  Observation is pure.
    """

    def __init__(
        self,
        problem: SearchProblem,
        n_pes: int,
        scheme: Scheme | str,
        *,
        cost_model: CostModel | None = None,
        init_threshold: float | None = None,
        split: str = "bottom",
        max_iterations: int = 100,
        sanitize: bool = False,
        obs: Observability | None = None,
    ) -> None:
        self.problem = problem
        self.n_pes = int(n_pes)
        self.scheme = make_scheme(scheme) if isinstance(scheme, str) else scheme
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.init_threshold = init_threshold
        self.split = split
        self.max_iterations = max_iterations
        self.sanitize = sanitize
        self.obs = obs

    def run(self) -> ParallelSearchResult:
        machine = SimdMachine(self.n_pes, self.cost_model)
        bound = self.problem.heuristic(self.problem.initial_state())
        bounds: list[int] = []
        per_iter: list[int] = []
        last_metrics: RunMetrics | None = None

        for _ in range(self.max_iterations):
            workload = SearchWorkload(
                self.problem,
                bound,
                self.n_pes,
                split=self.split,
            )
            scheduler = Scheduler(
                workload,
                machine,
                self.scheme,
                init_threshold=self.init_threshold,
                sanitize=self.sanitize,
                obs=self.obs,
            )
            before = (
                machine.n_cycles,
                machine.n_lb_phases,
                machine.n_transfers,
                machine.ledger.t_calc,
                machine.ledger.elapsed,
            )
            last_metrics = scheduler.run()
            bounds.append(bound)
            per_iter.append(workload.expanded)
            if self.obs is not None:
                self.obs.emit(
                    IterationEvent(
                        cycle=machine.n_cycles,
                        bound=bound,
                        expanded=workload.expanded,
                        cycles=machine.n_cycles - before[0],
                        n_lb=machine.n_lb_phases - before[1],
                        n_transfers=machine.n_transfers - before[2],
                        t_calc=machine.ledger.t_calc - before[3],
                        elapsed=machine.ledger.elapsed - before[4],
                    )
                )

            if workload.solutions > 0:
                cost = min(workload.goal_depths)
                return self._result(
                    cost, workload.solutions, bounds, per_iter, machine,
                    last_metrics,
                )
            if workload.next_bound is None:
                return self._result(
                    None, 0, bounds, per_iter, machine, last_metrics
                )
            bound = workload.next_bound

        raise RuntimeError(
            f"parallel IDA* did not converge within {self.max_iterations} iterations"
        )

    def _result(
        self,
        cost: int | None,
        solutions: int,
        bounds: list[int],
        per_iter: list[int],
        machine: SimdMachine,
        last_metrics: RunMetrics,
    ) -> ParallelSearchResult:
        result = ParallelSearchResult(
            solution_cost=cost,
            solutions=solutions,
            total_expanded=sum(per_iter),
            bounds=tuple(bounds),
            per_iteration_expanded=tuple(per_iter),
            metrics=self._final_metrics(machine, sum(per_iter), last_metrics),
        )
        if self.obs is not None and self.obs.metrics is not None:
            record_run(self.obs.metrics, result.metrics)
        return result

    def _final_metrics(
        self,
        machine: SimdMachine,
        total_work: int,
        last: RunMetrics | None,
    ) -> RunMetrics:
        assert last is not None
        return RunMetrics(
            scheme=last.scheme,
            n_pes=self.n_pes,
            total_work=total_work,
            n_expand=machine.n_cycles,
            n_lb=machine.n_lb_phases,
            n_transfers=machine.n_transfers,
            n_init_lb=last.n_init_lb,
            ledger=machine.ledger,
        )

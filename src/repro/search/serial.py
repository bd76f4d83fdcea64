"""Serial depth-first search drivers.

The cost-bounded DFS here is the sequential reference against which the
parallel engine is validated: both prune with ``g + h(s) > bound`` at
*generation* time and count one expansion per node popped, so — because
the paper's setup finds **all** solutions up to the bound rather than
stopping at the first — the serial and parallel node counts must agree
exactly (Section 5: "This ensures that the number of nodes expanded by
the serial and the parallel search is the same").
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass

from repro.search.problem import SearchProblem

__all__ = ["SerialSearchResult", "depth_bounded_dfs"]


@dataclass(frozen=True)
class SerialSearchResult:
    """Outcome of one cost-bounded serial DFS.

    Attributes
    ----------
    expanded:
        Nodes expanded (``W`` for this bound).
    solutions:
        Goal nodes found with ``g <= bound``.
    next_bound:
        Smallest pruned ``f = g + h`` value — IDA*'s next threshold
        (``None`` when nothing was pruned: the tree is exhausted).
    goal_depths:
        Sorted depths ``g`` at which goals were found.
    """

    expanded: int
    solutions: int
    next_bound: int | None
    goal_depths: tuple[int, ...]


def depth_bounded_dfs(
    problem: SearchProblem,
    bound: int,
    *,
    max_expansions: int | None = None,
    first_solution_only: bool = False,
) -> SerialSearchResult:
    """Expand every node with ``f = g + h <= bound``, counting all goals.

    An explicit stack (not recursion) keeps deep puzzle searches clear of
    Python's recursion limit.  ``max_expansions`` is a safety valve for
    tests; exceeding it raises ``RuntimeError`` since a truncated count
    would be meaningless.

    ``first_solution_only=True`` stops at the first goal — the mode that
    *admits* speedup anomalies (Rao & Kumar [33]); the paper's
    experiments deliberately avoid it, and the anomaly benchmark
    deliberately uses it.
    """
    root = problem.initial_state()
    expanded = 0
    solutions = 0
    next_bound: int | None = None
    goal_depths: list[int] = []

    h_root = problem.heuristic(root)
    if h_root > bound:
        return SerialSearchResult(0, 0, h_root, ())

    # Stack of (state, g, h); children are pushed reversed so the
    # expansion order matches the recursive left-to-right DFS.  Each
    # entry carries its heuristic so successors() can score the children
    # from it (an O(1) delta on a Manhattan puzzle).
    is_goal = problem.is_goal
    successors = problem.successors
    stack: list[tuple[Hashable, int, int]] = [(root, 0, h_root)]
    while stack:
        state, g, h = stack.pop()
        expanded += 1
        if max_expansions is not None and expanded > max_expansions:
            raise RuntimeError(
                f"depth_bounded_dfs exceeded max_expansions={max_expansions}"
            )
        if is_goal(state):
            solutions += 1
            goal_depths.append(g)
            if first_solution_only:
                break
            # A goal is a leaf of the search tree: stop extending the path
            # (the 15-puzzle goal has successors, but extending past a goal
            # would double-count work the serial algorithm would not do).
            continue
        child_g = g + 1
        for child, h_child in reversed(successors(state, h)):
            f = child_g + h_child
            if f <= bound:
                stack.append((child, child_g, h_child))
            elif next_bound is None or f < next_bound:
                next_bound = f

    return SerialSearchResult(expanded, solutions, next_bound, tuple(sorted(goal_depths)))

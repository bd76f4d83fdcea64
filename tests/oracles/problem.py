"""Hide a problem's arena protocol from ``SearchWorkload``, and its
incremental ``successors`` from the serial search."""

from __future__ import annotations

from repro.search.problem import SearchProblem

__all__ = ["opaque"]


class _Opaque(SearchProblem):
    """Forwards the four ``SearchProblem`` methods and nothing else."""

    def __init__(self, problem: SearchProblem) -> None:
        self._problem = problem

    def initial_state(self):
        return self._problem.initial_state()

    def expand(self, state):
        return self._problem.expand(state)

    def is_goal(self, state):
        return self._problem.is_goal(state)

    def heuristic(self, state):
        return self._problem.heuristic(state)


def opaque(problem: SearchProblem) -> SearchProblem:
    """``problem``'s tree with no packed view and no ``successors``
    override: same states, same order, same heuristic, so a search over
    it expands the same nodes, scoring every child by a full
    ``heuristic`` call."""
    return _Opaque(problem)

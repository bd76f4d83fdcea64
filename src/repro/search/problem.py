"""The search-problem protocol (Section 2 of the paper).

"Specification of a tree search problem includes description of the root
node of the tree and a successor-generator-function that can be used to
generate successors of any given node."  States must be hashable and
self-contained: anything the successor generator needs (e.g. the previous
move, to avoid trivial 2-cycles in the 15-puzzle) must live inside the
state object, so that serial and parallel searches expand identical trees
regardless of where a subtree lands.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Hashable, Sequence
from typing import TypeVar

__all__ = ["SearchProblem"]

State = TypeVar("State", bound=Hashable)


class SearchProblem(ABC):
    """A tree-search problem: root, successor generator, goal, heuristic.

    Edge costs are unit (every move deepens ``g`` by 1), which covers the
    paper's domains (15-puzzle, backtracking).  The heuristic must be
    admissible for IDA* optimality; the default of 0 turns IDA* into plain
    iterative-deepening DFS.
    """

    @abstractmethod
    def initial_state(self) -> Hashable:
        """The root node of the search tree."""

    @abstractmethod
    def expand(self, state: Hashable) -> Sequence[Hashable]:
        """Successor states of ``state`` (the successor-generator-function).

        The order must be deterministic: the reproduction relies on serial
        and parallel search visiting the same tree.
        """

    @abstractmethod
    def is_goal(self, state: Hashable) -> bool:
        """True if ``state`` is a goal node."""

    def heuristic(self, state: Hashable) -> int:
        """Admissible estimate of remaining cost (0 if unknown)."""
        return 0

    def successors(self, state: Hashable, h: int) -> list[tuple[Hashable, int]]:
        """``(child, heuristic(child))`` pairs in :meth:`expand` order.

        ``h`` is ``heuristic(state)``, so a problem whose heuristic
        changes by a cheap per-move delta can score each child from its
        parent instead of from scratch.  This default recomputes the
        heuristic per child and ignores ``h``; an override must return
        exactly what it returns.
        """
        heuristic = self.heuristic
        return [(child, heuristic(child)) for child in self.expand(state)]

"""The per-processor DFS stack (Section 2).

"The (part of) state space to be searched is efficiently represented by a
stack ... each level of the stack keeps track of untried alternatives."

The stack is a list of *levels*; each level holds the untried sibling
alternatives at that depth.  Expansion pops the next alternative from the
deepest non-empty level; donation removes an alternative from the
*bottom* — the level nearest the root, whose alternatives subtend the
largest unexplored subtrees (the paper's 15-puzzle splitting policy,
Section 5).

``node_count`` — the number of untried alternatives across all levels —
is the paper's notion of "nodes on the stack": a processor is busy iff it
holds at least two.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass

__all__ = ["StackEntry", "DFSStack"]


@dataclass(frozen=True)
class StackEntry:
    """One untried alternative: a state, its depth ``g`` from the root
    and its heuristic ``h`` (0 for problems without one)."""

    state: Hashable
    g: int
    h: int = 0


class DFSStack:
    """A depth-first stack of untried alternatives.

    The invariant maintained by all operations: no empty levels exist
    (they are trimmed eagerly), so ``levels[-1]`` always has at least one
    alternative when the stack is non-empty.
    """

    __slots__ = ("_levels", "_count")

    def __init__(self, entries: Iterable[StackEntry] = ()) -> None:
        entries = list(entries)
        self._levels: list[list[StackEntry]] = [entries] if entries else []
        self._count: int = len(entries)

    # -- queries -----------------------------------------------------------

    def node_count(self) -> int:
        """Total untried alternatives (the paper's stack-node count)."""
        return self._count

    def is_empty(self) -> bool:
        return self._count == 0

    def can_split(self) -> bool:
        """Busy in the paper's sense: at least two nodes on the stack."""
        return self._count >= 2

    def depth(self) -> int:
        """Number of levels currently on the stack."""
        return len(self._levels)

    def entries(self) -> list[StackEntry]:
        """The levels concatenated bottom-to-top into one flat sequence.

        This flat view is the stack's complete observable state:
        ``pop_next`` removes its tail, ``push_level`` appends to it, and
        ``split_bottom`` removes its head — which is why the arena
        (:mod:`repro.simd.arena`) can store stacks as plain windows and
        stay bit-identical to this class.
        """
        return [entry for level in self._levels for entry in level]

    # -- DFS operations ------------------------------------------------------

    def pop_next(self) -> StackEntry | None:
        """Remove and return the next node to expand (deepest level, LIFO).

        Returns ``None`` when the stack is empty.
        """
        if self._count == 0:
            return None
        top = self._levels[-1]
        entry = top.pop()
        self._count -= 1
        while self._levels and not self._levels[-1]:
            self._levels.pop()
        return entry

    def push_level(self, entries: Iterable[StackEntry]) -> None:
        """Push the successors of the node just expanded as a new level."""
        entries = list(entries)
        if not entries:
            return
        self._levels.append(entries)
        self._count += len(entries)

    # -- work splitting ------------------------------------------------------

    def split_bottom(self) -> StackEntry | None:
        """Remove and return the alternative nearest the root.

        This is the donated piece of work; the receiver starts a fresh
        stack rooted at it.  Returns ``None`` if the stack cannot split
        (fewer than two nodes) — donating the only node would idle the
        donor, contradicting the paper's busy definition.
        """
        if not self.can_split():
            return None
        bottom = self._levels[0]
        entry = bottom.pop(0)
        self._count -= 1
        if not bottom:
            self._levels.pop(0)
        return entry

    def split_half(self) -> list[StackEntry]:
        """Remove roughly half the alternatives, taken bottom-up.

        An ablation alternative to :meth:`split_bottom` — donates
        ``floor(count/2)`` alternatives starting from the root end.
        """
        if not self.can_split():
            return []
        target = self._count // 2
        donated: list[StackEntry] = []
        level_idx = 0
        while len(donated) < target and level_idx < len(self._levels):
            level = self._levels[level_idx]
            take = min(len(level) - (1 if level_idx == len(self._levels) - 1 else 0),
                       target - len(donated))
            if take > 0:
                donated.extend(level[:take])
                del level[:take]
            level_idx += 1
        self._levels = [lv for lv in self._levels if lv]
        self._count -= len(donated)
        return donated

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [len(lv) for lv in self._levels]
        return f"DFSStack(levels={sizes}, count={self._count})"

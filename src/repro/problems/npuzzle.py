"""The generalized sliding-tile puzzle (Nilsson [26], Korf [15]).

A ``side x side`` tray holds ``side^2 - 1`` numbered tiles and one blank;
a move slides a tile adjacent to the blank into it.  IDA* with the
Manhattan-distance heuristic is the paper's benchmark workload
(``side=4`` — the 15-puzzle).

The state carries the previous blank position so the successor generator
can refuse to undo the last move — the standard pruning that removes the
trivial 2-cycles of the naive tree.  Goal testing ignores that component.

Besides the per-node ``SearchProblem`` interface, the puzzle exposes a
*vectorizable* view consumed by the arena search kernel
(:mod:`repro.search.kernel`): states encode to fixed-width ``uint8`` rows
(:meth:`SlidingPuzzle.encode_state` / :meth:`~SlidingPuzzle.decode_state`)
and three precomputed tables drive batched expansion —
:meth:`~SlidingPuzzle.move_table` (blank destinations per position, in
generation order), :meth:`~SlidingPuzzle.manhattan_table` (per
tile-position Manhattan contributions, the delta table for O(1)
incremental ``h`` updates), and :meth:`~SlidingPuzzle.goal_row`.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.search.problem import SearchProblem
from repro.util.rng import as_generator
from repro.util.validation import check_positive_int

__all__ = ["PuzzleState", "SlidingPuzzle", "manhattan_distance", "linear_conflicts"]


class PuzzleState(NamedTuple):
    """An immutable puzzle node.

    Attributes
    ----------
    tiles:
        Row-major tile values, 0 is the blank.
    blank:
        Index of the blank in ``tiles``.
    prev_blank:
        Blank index before the last move (``-1`` at the root) — used to
        forbid the move that would undo the previous one.
    """

    tiles: tuple[int, ...]
    blank: int
    prev_blank: int


def _neighbor_table(side: int) -> tuple[tuple[int, ...], ...]:
    """Precomputed blank destinations for each blank position."""
    table = []
    for pos in range(side * side):
        r, c = divmod(pos, side)
        moves = []
        if r > 0:
            moves.append(pos - side)
        if c > 0:
            moves.append(pos - 1)
        if c < side - 1:
            moves.append(pos + 1)
        if r < side - 1:
            moves.append(pos + side)
        table.append(tuple(moves))
    return tuple(table)


def manhattan_distance(tiles: Sequence[int], side: int) -> int:
    """Sum over non-blank tiles of the row+column distance to goal slot.

    The goal layout is ``1, 2, ..., side^2-1, 0`` (blank last).
    """
    total = 0
    for pos, tile in enumerate(tiles):
        if tile == 0:
            continue
        goal_pos = tile - 1
        total += abs(pos // side - goal_pos // side) + abs(pos % side - goal_pos % side)
    return total


def linear_conflicts(tiles: Sequence[int], side: int) -> int:
    """Added moves from the linear-conflict heuristic (Hansson et al.).

    Two tiles conflict when both belong to the line (row or column)
    they currently occupy but in reversed order; resolving a conflict
    forces one of them off the line and back — at least two extra moves
    beyond Manhattan distance.  Per line, conflicts are charged by
    greedily removing the most-conflicted tile, the standard admissible
    accounting.  Returns the total *added* moves (a multiple of 2).
    """
    total = 0

    def line_penalty(entries: list[tuple[int, int]]) -> int:
        # entries: (position-in-line, goal-position-in-line).
        conflicts = {
            i: {
                j
                for j in range(len(entries))
                if i != j
                and (entries[i][0] - entries[j][0])
                * (entries[i][1] - entries[j][1])
                < 0
            }
            for i in range(len(entries))
        }
        penalty = 0
        while any(conflicts.values()):
            worst = max(conflicts, key=lambda k: len(conflicts[k]))
            for other in conflicts[worst]:
                conflicts[other].discard(worst)
            conflicts[worst] = set()
            penalty += 2
        return penalty

    for r in range(side):
        row = []
        for c in range(side):
            tile = tiles[r * side + c]
            if tile != 0 and (tile - 1) // side == r:
                row.append((c, (tile - 1) % side))
        total += line_penalty(row)
    for c in range(side):
        col = []
        for r in range(side):
            tile = tiles[r * side + c]
            if tile != 0 and (tile - 1) % side == c:
                col.append((r, (tile - 1) // side))
        total += line_penalty(col)
    return total


class SlidingPuzzle(SearchProblem):
    """A sliding-tile puzzle instance.

    Parameters
    ----------
    tiles:
        Initial row-major layout; must be a permutation of
        ``0 .. side^2-1``.
    side:
        Board side; inferred from ``len(tiles)`` when omitted.
    heuristic_name:
        ``"manhattan"`` (the paper's choice) or ``"linear_conflict"``
        (Manhattan + linear conflicts — strictly stronger, still
        admissible; an ablation for heuristic quality vs load balance).

    Raises
    ------
    ValueError
        For malformed layouts.  Unsolvable instances are accepted
        (construction-time parity is reported by :meth:`is_solvable`) —
        searching one simply exhausts the reachable half of the space.
    """

    def __init__(
        self,
        tiles: Sequence[int],
        *,
        side: int | None = None,
        heuristic_name: str = "manhattan",
    ) -> None:
        if heuristic_name not in ("manhattan", "linear_conflict"):
            raise ValueError(
                "heuristic_name must be 'manhattan' or 'linear_conflict', "
                f"got {heuristic_name!r}"
            )
        self.heuristic_name = heuristic_name
        tiles = tuple(int(t) for t in tiles)
        if side is None:
            side = int(round(len(tiles) ** 0.5))
        check_positive_int(side, "side")
        if side * side != len(tiles):
            raise ValueError(
                f"tiles length {len(tiles)} is not side^2 for side={side}"
            )
        if sorted(tiles) != list(range(side * side)):
            raise ValueError("tiles must be a permutation of 0..side^2-1")
        self.side = side
        self.tiles = tiles
        self.goal_tiles = tuple(list(range(1, side * side)) + [0])
        self._neighbors = _neighbor_table(side)
        # Per-(tile, position) Manhattan contribution, for O(1) child
        # heuristic updates during expansion.
        n = side * side
        self._dist = [[0] * n for _ in range(n)]
        for tile in range(1, n):
            goal_pos = tile - 1
            for pos in range(n):
                self._dist[tile][pos] = abs(pos // side - goal_pos // side) + abs(
                    pos % side - goal_pos % side
                )

    # -- SearchProblem -----------------------------------------------------

    def initial_state(self) -> PuzzleState:
        return PuzzleState(self.tiles, self.tiles.index(0), -1)

    def expand(self, state: PuzzleState) -> list[PuzzleState]:
        tiles, blank, prev = state
        out = []
        for dest in self._neighbors[blank]:
            if dest == prev:
                continue
            lst = list(tiles)
            lst[blank] = lst[dest]
            lst[dest] = 0
            out.append(PuzzleState(tuple(lst), dest, blank))
        return out

    def is_goal(self, state: PuzzleState) -> bool:
        return state.tiles == self.goal_tiles

    def heuristic(self, state: PuzzleState) -> int:
        tiles = state.tiles
        dist = self._dist
        total = 0
        for pos, tile in enumerate(tiles):
            if tile:
                total += dist[tile][pos]
        if self.heuristic_name == "linear_conflict":
            total += linear_conflicts(tiles, self.side)
        return total

    # -- vectorizable view (consumed by repro.search.kernel) ----------------
    #
    # The arena backend recognizes problems by these methods (duck typing:
    # no import cycle between problems/ and search/).  All tables are
    # cached, read-only numpy arrays.

    @property
    def state_width(self) -> int:
        """Cells per encoded state row (``side ** 2``); rows are uint8,
        so only boards up to ``side = 16`` (tile values < 256) encode."""
        return self.side * self.side

    def supports_arena_backend(self) -> bool:
        """True when the vectorized expansion kernel is exact for this
        instance: the incremental delta table covers Manhattan only, and
        tile values must fit the uint8 codec."""
        return self.heuristic_name == "manhattan" and self.state_width <= 256

    def move_table(self) -> np.ndarray:
        """``(side^2, 4)`` int32: blank destinations per blank position,
        padded with ``-1``, columns in *generation order* (the exact order
        :meth:`expand` emits children) so batched and per-node expansion
        visit identical trees."""
        if not hasattr(self, "_move_table"):
            n = self.state_width
            table = np.full((n, 4), -1, dtype=np.int32)
            for pos, moves in enumerate(self._neighbors):
                table[pos, : len(moves)] = moves
            table.setflags(write=False)
            self._move_table = table
        return self._move_table

    def manhattan_table(self) -> np.ndarray:
        """``(side^2, side^2)`` int32 ``D[tile, pos]``: tile ``tile``'s
        Manhattan contribution when sitting at ``pos`` (row 0, the blank,
        is all zeros).  Moving tile ``t`` from ``src`` into the blank at
        ``dst`` changes ``h`` by ``D[t, dst] - D[t, src]`` — the O(1)
        incremental update the arena kernel applies per child."""
        if not hasattr(self, "_manhattan_table"):
            table = np.asarray(self._dist, dtype=np.int32)
            table.setflags(write=False)
            self._manhattan_table = table
        return self._manhattan_table

    def goal_row(self) -> np.ndarray:
        """The goal layout as an encoded uint8 row (vector goal tests)."""
        if not hasattr(self, "_goal_row"):
            row = np.asarray(self.goal_tiles, dtype=np.uint8)
            row.setflags(write=False)
            self._goal_row = row
        return self._goal_row

    def encode_state(self, state: PuzzleState) -> tuple[np.ndarray, int, int]:
        """Encode a :class:`PuzzleState` as ``(tiles_row, blank, prev)``
        with ``tiles_row`` a ``(side^2,)`` uint8 array."""
        return np.asarray(state.tiles, dtype=np.uint8), state.blank, state.prev_blank

    def decode_state(
        self, tiles_row: np.ndarray, blank: int, prev_blank: int
    ) -> PuzzleState:
        """Inverse of :meth:`encode_state` (arena snapshots back to the
        hashable per-node representation)."""
        return PuzzleState(
            tuple(int(t) for t in tiles_row), int(blank), int(prev_blank)
        )

    # -- instance utilities --------------------------------------------------

    def is_solvable(self) -> bool:
        """Parity test: can the goal be reached from ``tiles``?

        Odd boards: solvable iff the inversion count is even.  Even boards
        (the 15-puzzle): solvable iff inversions plus the blank's row from
        the bottom (1-based) is odd.
        """
        seq = [t for t in self.tiles if t != 0]
        inversions = sum(
            1
            for i in range(len(seq))
            for j in range(i + 1, len(seq))
            if seq[i] > seq[j]
        )
        if self.side % 2 == 1:
            return inversions % 2 == 0
        blank_row_from_bottom = self.side - (self.tiles.index(0) // self.side)
        return (inversions + blank_row_from_bottom) % 2 == 1

    @classmethod
    def scrambled(
        cls,
        side: int,
        n_moves: int,
        *,
        rng: int | np.random.Generator | None = None,
    ) -> "SlidingPuzzle":
        """Instance generated by an ``n_moves`` random walk from the goal.

        Never undoes the previous move, so difficulty grows with
        ``n_moves``; always solvable by construction.
        """
        check_positive_int(side, "side")
        gen = as_generator(rng)
        neighbors = _neighbor_table(side)
        tiles = list(range(1, side * side)) + [0]
        blank = side * side - 1
        prev = -1
        for _ in range(n_moves):
            options = [d for d in neighbors[blank] if d != prev]
            dest = int(options[gen.integers(0, len(options))])
            tiles[blank] = tiles[dest]
            tiles[dest] = 0
            prev, blank = blank, dest
        return cls(tiles, side=side)

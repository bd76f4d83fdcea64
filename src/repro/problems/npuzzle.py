"""The generalized sliding-tile puzzle (Nilsson [26], Korf [15]).

A ``side x side`` tray holds ``side^2 - 1`` numbered tiles and one blank;
a move slides a tile adjacent to the blank into it.  IDA* with the
Manhattan-distance heuristic is the paper's benchmark workload
(``side=4`` — the 15-puzzle).

The state carries the previous blank position so the successor generator
can refuse to undo the last move — the standard pruning that removes the
trivial 2-cycles of the naive tree.  Goal testing ignores that component.
With the Manhattan heuristic, :meth:`SlidingPuzzle.successors` scores
each child by an O(1) delta from its parent's ``h`` — the serial
search's per-node cost — from tables of its own, not the packed ones.

Besides the per-node ``SearchProblem`` interface, a board of up to 16
cells exposes a *packed* view consumed by the arena search kernel
(:mod:`repro.search.kernel`): :meth:`SlidingPuzzle.encode_state` packs
a state into one signed 64-bit ``word`` (4 bits a cell) plus a small
``key`` naming its blank and previous blank, and
:meth:`~SlidingPuzzle.packed_moves` holds the per-key tables that turn
a parent entry into its children with two additions each.  They are
built from :meth:`~SlidingPuzzle.move_table` (blank destinations per
position, in generation order) and :meth:`~SlidingPuzzle.manhattan_table`
(per tile-position Manhattan contributions, the delta table for O(1)
incremental ``h`` updates).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.search.kernel import G_SHIFT, H_SHIFT, INVALID_STEP
from repro.search.problem import SearchProblem
from repro.util.rng import as_generator
from repro.util.validation import check_positive_int

__all__ = [
    "PackedMoves",
    "PuzzleState",
    "SlidingPuzzle",
    "manhattan_distance",
    "linear_conflicts",
]


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


_new_tuple = tuple.__new__


class PackedMoves(NamedTuple):
    """Per-key move tables of the packed search kernel.

    Rows are keys (``blank * (n + 1) + prev + 1`` for ``n`` cells);
    the 4 columns are the blank's moves in *push* order — reversed
    generation order, ``-1`` pads first — so a PE's children land on its
    stack with the first-generated child on top.  ``(key, column,
    tile)`` triples index the flat ``f_step`` / ``info_step`` tables at
    ``base[key, column] + tile``.

    Attributes
    ----------
    goal_word:
        The goal layout's packed word.
    shift:
        ``(keys, 4)`` int64: ``4 * dest``, the bit offset of the tile
        that moves (``moved = word >> shift & 15``).
    lift:
        ``(keys, 4)`` int64: ``(1 << 4 * blank) - (1 << 4 * dest)``; the
        child word is ``word + moved * lift`` (wrapping mod 2^64).
    base:
        ``(keys, 4)`` int64: ``(key * 4 + column) * 16``.
    f_step:
        Flat int64: the child's ``f`` minus the parent's, ``1 +
        D[tile, blank] - D[tile, dest]``; ``INVALID_STEP`` for a column
        that is no move (a ``-1`` pad or the move undoing the last one),
        which holds the null move (destination = blank) in every table.
    info_step:
        Flat int64: the child's ``info`` minus the parent's — ``g`` up
        one, the Manhattan delta on ``h``, the child's key for the
        parent's.
    """

    goal_word: int
    shift: np.ndarray
    lift: np.ndarray
    base: np.ndarray
    f_step: np.ndarray
    info_step: np.ndarray


@functools.lru_cache(maxsize=None)
def _packed_moves(side: int) -> PackedMoves:
    """Build :class:`PackedMoves` for one board side (vectorized over keys)."""
    n = side * side
    if n > 16:
        raise ValueError(f"a {side}x{side} board does not fit one packed word")
    puzzle = SlidingPuzzle(list(range(1, n)) + [0])
    keys = np.arange(n * (n + 1), dtype=np.int64)
    blank, prev = np.divmod(keys, n + 1)
    prev -= 1
    dest = puzzle.move_table()[blank][:, ::-1].astype(np.int64)
    valid = (dest >= 0) & (dest != prev[:, None])
    b = blank[:, None]
    dest = np.where(valid, dest, b)
    dist = np.zeros((16, n), dtype=np.int64)
    dist[:n] = puzzle.manhattan_table()
    dh = (dist[:, b] - dist[:, dest]).transpose(1, 2, 0)  # (keys, 4, tile)
    child_key = dest * (n + 1) + b + 1
    info_step = (
        (1 << G_SHIFT) - keys[:, None, None] + child_key[:, :, None] + (dh << H_SHIFT)
    )
    goal_word, _ = puzzle.encode_state(puzzle.initial_state())
    tables = PackedMoves(
        goal_word=goal_word,
        shift=4 * dest,
        lift=(1 << 4 * b) - (1 << 4 * dest),
        base=(keys[:, None] * 4 + np.arange(4)) * 16,
        f_step=np.where(valid[:, :, None], 1 + dh, INVALID_STEP).reshape(-1),
        info_step=info_step.reshape(-1),
    )
    for table in tables[1:]:
        table.setflags(write=False)
    return tables


@functools.lru_cache(maxsize=None)
def _dist_table(side: int) -> tuple[tuple[int, ...], ...]:
    """``D[tile][pos]``: tile ``tile``'s Manhattan contribution at
    ``pos`` (row 0, the blank, is all zeros), shared by every board of
    one side."""
    n = side * side
    return tuple(
        tuple(
            abs(pos // side - (tile - 1) // side) + abs(pos % side - (tile - 1) % side)
            if tile
            else 0
            for pos in range(n)
        )
        for tile in range(n)
    )


@functools.lru_cache(maxsize=None)
def _successor_moves(side: int) -> tuple:
    """Move lists of :meth:`SlidingPuzzle.successors`, per blank and
    previous blank.

    ``moves[blank][prev]`` holds one ``(dest, dh)`` pair per move in
    :meth:`SlidingPuzzle.expand` order, the move undoing the last one
    left out; ``dh[tile] = D[tile][blank] - D[tile][dest]`` is the
    change in Manhattan distance when ``tile`` slides from ``dest`` into
    the blank.  A root's ``prev`` of ``-1`` indexes the last list, the
    one that leaves no move out.
    """
    n = side * side
    dist = _dist_table(side)
    neighbors = _neighbor_table(side)
    delta = {
        (blank, dest): tuple(dist[t][blank] - dist[t][dest] for t in range(n))
        for blank in range(n)
        for dest in neighbors[blank]
    }
    return tuple(
        tuple(
            tuple(
                (dest, delta[blank, dest]) for dest in neighbors[blank] if dest != prev
            )
            for prev in [*range(n), -1]
        )
        for blank in range(n)
    )


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
        self._dist = _dist_table(side)
        # successors() scores children by the O(1) Manhattan delta only
        # while heuristic() and expand() are this class's own; a subclass
        # that overrides either takes the recomputing default.
        cls = type(self)
        self._moves = (
            _successor_moves(side)
            if heuristic_name == "manhattan"
            and cls.heuristic is SlidingPuzzle.heuristic
            and cls.expand is SlidingPuzzle.expand
            else None
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

    def successors(
        self, state: PuzzleState, h: int
    ) -> list[tuple[PuzzleState, int]]:
        moves = self._moves
        if moves is None:
            return super().successors(state, h)
        tiles, blank, prev = state
        out = []
        for dest, dh in moves[blank][prev]:
            tile = tiles[dest]
            lst = list(tiles)
            lst[blank] = tile
            lst[dest] = 0
            # tuple.__new__ is what PuzzleState(...) runs, minus the
            # Python-level __new__ call that NamedTuple wraps around it.
            child = _new_tuple(PuzzleState, (tuple(lst), dest, blank))
            out.append((child, h + dh[tile]))
        return out

    # -- packed view (consumed by repro.search.kernel) ----------------------
    #
    # The arena backend recognizes problems by these methods (duck typing:
    # problems/ imports search/, never the reverse).  All tables are
    # cached, read-only numpy arrays.

    def supports_arena_backend(self) -> bool:
        """True when the packed kernel is exact for this instance: its
        incremental delta covers Manhattan only, and a board must fit one
        64-bit word at 4 bits a cell (``side^2 <= 16``)."""
        return self.heuristic_name == "manhattan" and self.side * self.side <= 16

    def move_table(self) -> np.ndarray:
        """``(side^2, 4)`` int32: blank destinations per blank position,
        padded with ``-1``, columns in *generation order* (the exact order
        :meth:`expand` emits children) so batched and per-node expansion
        visit identical trees."""
        if not hasattr(self, "_move_table"):
            n = self.side * self.side
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
        incremental update the packed move tables carry."""
        if not hasattr(self, "_manhattan_table"):
            table = np.asarray(self._dist, dtype=np.int32)
            table.setflags(write=False)
            self._manhattan_table = table
        return self._manhattan_table

    def encode_state(self, state: PuzzleState) -> tuple[int, int]:
        """Pack a :class:`PuzzleState` as ``(word, key)``: the tile at
        cell ``i`` in bits ``4i .. 4i+3`` of a signed 64-bit ``word``, and
        ``key = blank * (side^2 + 1) + prev_blank + 1``."""
        word = 0
        for i, tile in enumerate(state.tiles):
            word |= tile << (4 * i)
        if word >= 1 << 63:
            word -= 1 << 64
        return word, state.blank * (len(state.tiles) + 1) + state.prev_blank + 1

    def decode_state(self, word: int, key: int) -> PuzzleState:
        """Inverse of :meth:`encode_state` (arena snapshots back to the
        hashable per-node representation)."""
        n = self.side * self.side
        blank, prev = divmod(int(key), n + 1)
        tiles = tuple((int(word) >> (4 * i)) & 15 for i in range(n))
        return PuzzleState(tiles, blank, prev - 1)

    def packed_moves(self) -> PackedMoves:
        """The per-key move tables of the packed kernel (see
        :class:`PackedMoves`).  They depend on the side alone, so every
        board of one side shares a single read-only copy."""
        return _packed_moves(self.side)

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

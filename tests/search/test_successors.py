"""``SearchProblem.successors`` and the serial search that consumes it.

A sliding puzzle with the Manhattan heuristic scores its children by an
O(1) delta from the parent's ``h``; every other problem takes the
default, which recomputes ``heuristic`` per child.  ``opaque(problem)``
forwards only the four base methods, so it always scores by full
recomputation: the serial search over it is the oracle for the
incremental path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.problems.coloring import GraphColoringProblem
from repro.problems.npuzzle import SlidingPuzzle
from repro.problems.nqueens import NQueensProblem
from repro.problems.synthetic import SyntheticTreeProblem
from repro.search.ida_star import ida_star
from repro.search.serial import depth_bounded_dfs
from repro.util.rng import as_generator
from tests.oracles import opaque

HEURISTICS = ("manhattan", "linear_conflict")


def _walk(problem, n_steps, seed):
    """The states of a seeded random walk down ``problem``'s tree, root
    first; it stops early at a leaf."""
    rng = as_generator(seed)
    state = problem.initial_state()
    states = [state]
    for _ in range(n_steps):
        children = problem.expand(state)
        if not children:
            break
        state = children[int(rng.integers(len(children)))]
        states.append(state)
    return states


def _recomputed(problem, state):
    return [(child, problem.heuristic(child)) for child in problem.expand(state)]


def _puzzle(side, moves, seed, heuristic_name="manhattan"):
    tiles = SlidingPuzzle.scrambled(side, moves, rng=seed).tiles
    return SlidingPuzzle(tiles, side=side, heuristic_name=heuristic_name)


class TestSuccessorsMatchRecomputation:
    @settings(max_examples=60, deadline=None)
    @given(
        side=st.sampled_from([3, 4, 5]),
        heuristic_name=st.sampled_from(HEURISTICS),
        scramble_seed=st.integers(0, 2**16),
        walk_seed=st.integers(0, 2**16),
        moves=st.integers(0, 60),
    )
    def test_puzzle_states_on_random_walks(
        self, side, heuristic_name, scramble_seed, walk_seed, moves
    ):
        p = _puzzle(side, moves, scramble_seed, heuristic_name)
        for s in _walk(p, 40, walk_seed):
            assert p.successors(s, p.heuristic(s)) == _recomputed(p, s)

    @pytest.mark.parametrize(
        "problem",
        [
            NQueensProblem(7),
            GraphColoringProblem.random(9, 3, rng=4),
            SyntheticTreeProblem(5, max_branching=4, depth_limit=10, goal_density=0.1),
        ],
        ids=["nqueens", "coloring", "synthetic"],
    )
    @pytest.mark.parametrize("walk_seed", range(4))
    def test_default_on_other_problems(self, problem, walk_seed):
        for s in _walk(problem, 12, walk_seed):
            assert problem.successors(s, problem.heuristic(s)) == _recomputed(problem, s)

    def test_subclass_overriding_heuristic_takes_the_default(self):
        class Offset(SlidingPuzzle):
            def heuristic(self, state):
                return super().heuristic(state) + state.blank % 2

        p = Offset(SlidingPuzzle.scrambled(4, 20, rng=3).tiles)
        for s in _walk(p, 30, 1):
            assert p.successors(s, p.heuristic(s)) == _recomputed(p, s)
        assert ida_star(p) == ida_star(opaque(p))

    def test_subclass_overriding_expand_takes_the_default(self):
        class Reversed(SlidingPuzzle):
            def expand(self, state):
                return super().expand(state)[::-1]

        p = Reversed(SlidingPuzzle.scrambled(3, 16, rng=6).tiles, side=3)
        for s in _walk(p, 30, 2):
            assert p.successors(s, p.heuristic(s)) == _recomputed(p, s)
        assert ida_star(p) == ida_star(opaque(p))


def _scrambles():
    return [
        (side, moves, seed, name)
        for side, moves in ((3, 20), (4, 30), (5, 24))
        for seed in range(3)
        for name in HEURISTICS
    ]


class TestSerialSearchAgainstOpaque:
    @pytest.mark.parametrize("side,moves,seed,name", _scrambles())
    def test_depth_bounded_dfs(self, side, moves, seed, name):
        p = _puzzle(side, moves, seed, name)
        h = p.heuristic(p.initial_state())
        for bound in (h - 1, h, h + 2, h + 4):
            want = depth_bounded_dfs(opaque(p), bound)
            assert depth_bounded_dfs(p, bound) == want
            assert depth_bounded_dfs(p, bound, first_solution_only=True) == (
                depth_bounded_dfs(opaque(p), bound, first_solution_only=True)
            )
        root_pruned = depth_bounded_dfs(p, h - 1)
        assert (root_pruned.expanded, root_pruned.next_bound) == (0, h)

    @pytest.mark.parametrize("side,moves,seed,name", _scrambles())
    def test_ida_star(self, side, moves, seed, name):
        p = _puzzle(side, moves, seed, name)
        assert ida_star(p) == ida_star(opaque(p))

    def test_first_solution_stops_early(self):
        p = _puzzle(3, 20, 1)
        cost = ida_star(p).solution_cost
        first = depth_bounded_dfs(p, cost + 4, first_solution_only=True)
        assert first.solutions == 1
        assert first == depth_bounded_dfs(opaque(p), cost + 4, first_solution_only=True)
        assert first.expanded < depth_bounded_dfs(p, cost + 4).expanded

    def test_max_expansions_guard(self):
        p = _puzzle(4, 30, 2)
        bound = ida_star(p).solution_cost
        full = depth_bounded_dfs(p, bound)
        assert depth_bounded_dfs(p, bound, max_expansions=full.expanded) == full
        for problem in (p, opaque(p)):
            with pytest.raises(RuntimeError, match="max_expansions"):
                depth_bounded_dfs(problem, bound, max_expansions=full.expanded - 1)

import pytest

from repro.problems.fifteen_puzzle import FifteenPuzzle
from repro.problems.npuzzle import SlidingPuzzle
from repro.problems.nqueens import NQueensProblem
from repro.search.ida_star import ida_star
from repro.search.serial import depth_bounded_dfs


class TestIDAStar:
    def test_solved_instance_zero_moves(self):
        p = SlidingPuzzle(tuple(list(range(1, 9)) + [0]), side=3)
        r = ida_star(p)
        assert r.solution_cost == 0
        assert r.total_expanded == 1

    def test_two_move_instance(self):
        p = SlidingPuzzle.scrambled(3, 2, rng=0)
        r = ida_star(p)
        assert r.solution_cost == 2

    def test_optimality_not_exceeding_scramble_length(self):
        for seed in range(5):
            k = 14
            p = SlidingPuzzle.scrambled(3, k, rng=seed)
            r = ida_star(p)
            assert r.solution_cost is not None
            assert r.solution_cost <= k
            # Parity: the solution cost has the same parity as the
            # scramble length on a sliding puzzle.
            assert (k - r.solution_cost) % 2 == 0

    def test_first_bound_is_root_heuristic(self):
        p = SlidingPuzzle.scrambled(3, 10, rng=3)
        r = ida_star(p)
        assert r.bounds[0] == p.heuristic(p.initial_state())

    def test_bounds_strictly_increase(self):
        p = SlidingPuzzle.scrambled(3, 16, rng=2)
        r = ida_star(p)
        assert all(b2 > b1 for b1, b2 in zip(r.bounds, r.bounds[1:]))

    def test_total_is_sum_of_iterations(self):
        p = SlidingPuzzle.scrambled(3, 12, rng=4)
        r = ida_star(p)
        assert r.total_expanded == sum(it.expanded for it in r.iterations)

    def test_heuristic_lower_bounds_cost(self):
        p = SlidingPuzzle.scrambled(3, 18, rng=7)
        r = ida_star(p)
        assert r.solution_cost >= p.heuristic(p.initial_state())

    def test_finds_all_solutions_at_final_bound(self):
        # The paper's anomaly-free setup: the final iteration enumerates
        # every goal at the optimal bound, matching a direct bounded DFS.
        p = SlidingPuzzle.scrambled(3, 20, rng=9)
        r = ida_star(p)
        direct = depth_bounded_dfs(p, r.solution_cost)
        assert r.solutions == direct.solutions
        assert r.final_iteration.expanded == direct.expanded

    def test_exhaustion_without_goal(self):
        # Unsolvable 8-puzzle reached by swapping two tiles of the goal;
        # bound the iterations so the run must report exhaustion... the
        # space is huge, so instead use n-queens with n=3 (no solutions).
        r = ida_star(NQueensProblem(3))
        assert r.solution_cost is None
        assert r.solutions == 0

    def test_iteration_cap(self):
        p = SlidingPuzzle.scrambled(4, 30, rng=11)
        with pytest.raises(RuntimeError, match="converge"):
            ida_star(p, max_iterations=1)

    def test_nqueens_single_iteration(self):
        # The exact depth heuristic makes IDA* one-shot.
        r = ida_star(NQueensProblem(6))
        assert len(r.bounds) == 1
        assert r.solutions == 4


#: Three entries of ``benchmarks/e2e/instances.json`` (scramble seeds
#: 157, 165 and 1833): tiles, serial ``total_expanded`` and
#: ``solution_cost``.  The ``ida-puzzle`` workload's set-up refuses an
#: instance whose serial count drifts, so a serial-search change that
#: would break the benchmark fails here first.
BENCHMARK_INSTANCES = [
    ((1, 8, 0, 3, 5, 11, 2, 7, 6, 10, 4, 15, 9, 13, 12, 14), 18081, 30),
    ((0, 4, 8, 15, 2, 3, 7, 14, 10, 1, 11, 9, 6, 12, 5, 13), 21498, 44),
    ((1, 7, 0, 8, 5, 2, 3, 4, 9, 13, 10, 12, 14, 6, 11, 15), 18327, 26),
]


@pytest.mark.parametrize(
    "tiles,nodes,cost", BENCHMARK_INSTANCES, ids=["seed157", "seed165", "seed1833"]
)
def test_benchmark_instances_reproduce(tiles, nodes, cost):
    r = ida_star(FifteenPuzzle(tiles))
    assert (r.total_expanded, r.solution_cost) == (nodes, cost)

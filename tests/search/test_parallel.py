import numpy as np
import pytest

from repro.problems.npuzzle import SlidingPuzzle
from repro.problems.nqueens import NQueensProblem
from repro.problems.synthetic import SyntheticTreeProblem
from repro.search.ida_star import ida_star
from repro.search.parallel import (
    ParallelIDAStar,
    SearchWorkload,
    parallel_depth_bounded,
)
from repro.search.serial import depth_bounded_dfs
from tests.oracles import opaque


class TestSearchWorkload:
    def test_root_seeded_on_pe_zero(self):
        p = SlidingPuzzle.scrambled(3, 8, rng=0)
        wl = SearchWorkload(p, 30, 4)
        assert np.array_equal(wl.expanding_mask(), [True, False, False, False])

    def test_root_pruned_if_over_bound(self):
        p = SlidingPuzzle.scrambled(3, 8, rng=0)
        wl = SearchWorkload(p, 0, 4)
        assert wl.done()

    def test_bad_split_policy_rejected(self):
        p = NQueensProblem(4)
        with pytest.raises(ValueError, match="split"):
            SearchWorkload(p, 4, 2, split="sideways")

    def test_transfer_moves_bottom_alternative(self):
        p = NQueensProblem(5)
        wl = SearchWorkload(p, 5, 2)
        wl.expand_cycle()  # PE0 expands root -> 5 children
        assert wl.busy_mask()[0]
        moved = wl.transfer(np.array([0]), np.array([1]))
        assert moved == 1
        assert wl.expanding_mask()[1]


class TestSerialParallelEquivalence:
    """Section 5's setup: all solutions to the bound => identical W."""

    @pytest.mark.parametrize("spec", ["GP-S0.75", "nGP-S0.75", "GP-DK", "nGP-DP"])
    @pytest.mark.parametrize("n_pes", [1, 4, 16])
    def test_puzzle_counts_match(self, spec, n_pes):
        p = SlidingPuzzle.scrambled(3, 16, rng=3)
        serial = ida_star(p)
        init = 0.85 if spec.endswith(("DK", "DP")) else None
        par = ParallelIDAStar(p, n_pes, spec, init_threshold=init).run()
        assert par.total_expanded == serial.total_expanded
        assert par.solution_cost == serial.solution_cost
        assert par.solutions == serial.solutions
        assert par.per_iteration_expanded == tuple(
            it.expanded for it in serial.iterations
        )

    def test_fifteen_puzzle_counts_match(self):
        p = SlidingPuzzle.scrambled(4, 18, rng=1)
        serial = ida_star(p)
        par = ParallelIDAStar(p, 8, "GP-S0.75").run()
        assert par.total_expanded == serial.total_expanded
        assert par.solution_cost == serial.solution_cost

    @pytest.mark.parametrize("split", ["bottom", "half"])
    def test_split_policy_preserves_counts(self, split):
        p = SlidingPuzzle.scrambled(3, 14, rng=6)
        serial = ida_star(p)
        par = ParallelIDAStar(p, 8, "GP-S0.75", split=split).run()
        assert par.total_expanded == serial.total_expanded

    def test_nqueens_counts_match(self):
        serial = ida_star(NQueensProblem(7))
        par = ParallelIDAStar(NQueensProblem(7), 16, "GP-DK", init_threshold=0.85).run()
        assert par.solutions == serial.solutions == 40
        assert par.total_expanded == serial.total_expanded

    def test_synthetic_bounded_counts_match(self):
        t = SyntheticTreeProblem(11, max_branching=4, depth_limit=9)
        serial = depth_bounded_dfs(t, 9)
        wl, metrics = parallel_depth_bounded(t, 9, 32, "nGP-S0.75")
        assert wl.expanded == serial.expanded
        assert wl.solutions == serial.solutions
        assert metrics.total_work == serial.expanded

    @pytest.mark.parametrize("storage", ["arena", "list"])
    @pytest.mark.parametrize("slack", [-2, 0, 6])
    def test_puzzle_bounded_pass_matches_serial(self, slack, storage):
        """One bounded pass reports what ``depth_bounded_dfs`` reports on
        both storages — including a root pruned by the bound (slack < 0),
        whose ``f`` is the next threshold, not "tree exhausted"."""
        p = SlidingPuzzle.scrambled(3, 16, rng=3)
        bound = p.heuristic(p.initial_state()) + slack
        serial = depth_bounded_dfs(p, bound)
        wl, _ = parallel_depth_bounded(
            opaque(p) if storage == "list" else p, bound, 4, "GP-S0.75"
        )
        assert (wl.expanded, wl.solutions, wl.next_bound) == (
            serial.expanded, serial.solutions, serial.next_bound
        )


class TestParallelMetrics:
    def test_ledger_spans_iterations(self):
        p = SlidingPuzzle.scrambled(3, 16, rng=3)
        par = ParallelIDAStar(p, 8, "GP-S0.75").run()
        m = par.metrics
        assert m.total_work == par.total_expanded
        # T_calc equals W * U_calc exactly.
        assert m.ledger.t_calc == pytest.approx(par.total_expanded * 0.030)

    def test_single_pe_perfect_efficiency(self):
        p = SlidingPuzzle.scrambled(3, 12, rng=2)
        par = ParallelIDAStar(p, 1, "GP-S0.5").run()
        assert par.metrics.efficiency == pytest.approx(1.0)

    def test_more_pes_fewer_cycles(self):
        p = SlidingPuzzle.scrambled(3, 18, rng=8)
        small = ParallelIDAStar(p, 2, "GP-S0.75").run()
        large = ParallelIDAStar(p, 16, "GP-S0.75").run()
        assert large.metrics.n_expand < small.metrics.n_expand

    def test_goal_depth_consistency(self):
        t = SyntheticTreeProblem(17, max_branching=4, depth_limit=8, goal_density=0.01)
        serial = depth_bounded_dfs(t, 8)
        wl, _ = parallel_depth_bounded(t, 8, 16, "GP-S0.75")
        assert sorted(wl.goal_depths) == sorted(serial.goal_depths)

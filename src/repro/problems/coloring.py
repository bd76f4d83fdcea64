"""Graph k-coloring by backtracking.

Another of the introduction's AI/combinatorial workloads: assign one of
``k`` colors to each vertex so no edge is monochromatic.  Vertices are
ordered by decreasing degree (the standard backtracking order — fail
early on the constrained part of the graph); the successor generator
keeps only non-conflicting assignments, so the tree is highly irregular
and prunes unpredictably — exactly the load-balancing stress the paper
targets.

Instances come from seeded Erdos-Renyi graphs via networkx; ground
truth for tests is brute-force enumeration on small graphs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.search.problem import SearchProblem
from repro.util.rng import as_generator
from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["GraphColoringProblem"]


class GraphColoringProblem(SearchProblem):
    """Count (or find) proper ``k``-colorings of a graph.

    A state is the tuple of colors assigned to the first ``len(state)``
    vertices in the search order.  The first vertex's color is fixed to
    0 (symmetry breaking: colorings identical up to a color swap of the
    first vertex are not re-counted... only the first vertex is pinned,
    a cheap partial break that keeps counts exact for comparison when
    applied consistently to serial and parallel runs).

    Parameters
    ----------
    graph:
        Any networkx graph (nodes are relabelled internally).
    n_colors:
        ``k``.
    symmetry_break:
        Pin vertex 0 to color 0 (default off, so counts equal the full
        brute-force count).
    """

    def __init__(
        self,
        graph: nx.Graph,
        n_colors: int,
        *,
        symmetry_break: bool = False,
    ) -> None:
        self.n_colors = check_positive_int(n_colors, "n_colors")
        if graph.number_of_nodes() == 0:
            raise ValueError("graph must have at least one node")
        # Order vertices by decreasing degree; precompute, for each
        # vertex, its already-ordered neighbours (the only ones a new
        # assignment can conflict with).
        order = sorted(graph.nodes, key=lambda v: (-graph.degree(v), v))
        index = {v: i for i, v in enumerate(order)}
        self.n_vertices = len(order)
        self.earlier_neighbors: list[tuple[int, ...]] = [
            tuple(sorted(index[u] for u in graph.neighbors(v) if index[u] < i))
            for i, v in enumerate(order)
        ]
        self.symmetry_break = symmetry_break

    @classmethod
    def random(
        cls,
        n_vertices: int,
        n_colors: int,
        *,
        edge_probability: float = 0.4,
        rng: int | np.random.Generator | None = None,
        symmetry_break: bool = False,
    ) -> "GraphColoringProblem":
        """A seeded Erdos-Renyi instance."""
        # Imported here: networkx takes longer to import than the rest
        # of the package, and nothing else needs it.
        import networkx as nx

        check_positive_int(n_vertices, "n_vertices")
        gen = as_generator(rng)
        seed = int(gen.integers(0, 2**31 - 1))
        graph = nx.gnp_random_graph(n_vertices, edge_probability, seed=seed)
        return cls(graph, n_colors, symmetry_break=symmetry_break)

    # -- SearchProblem -----------------------------------------------------

    def initial_state(self) -> tuple[int, ...]:
        return ()

    def expand(self, state: tuple[int, ...]) -> list[tuple[int, ...]]:
        v = len(state)
        if v >= self.n_vertices:
            return []
        if v == 0 and self.symmetry_break:
            return [(0,)]
        forbidden = {state[u] for u in self.earlier_neighbors[v]}
        return [
            state + (color,)
            for color in range(self.n_colors)
            if color not in forbidden
        ]

    def is_goal(self, state: tuple[int, ...]) -> bool:
        return len(state) == self.n_vertices

    def heuristic(self, state: tuple[int, ...]) -> int:
        """Vertices still uncolored — exact on depth, so IDA* is one-shot."""
        return self.n_vertices - len(state)

    # -- reference ------------------------------------------------------------

    def count_colorings_brute_force(self) -> int:
        """Exact proper-coloring count by full k^n enumeration.

        Independent of the search code path (no pruning, no expand), so
        tests can use it as ground truth.  Honors ``symmetry_break``.
        """
        import itertools

        if self.n_colors**self.n_vertices > 2_000_000:
            raise ValueError("brute force limited to k^n <= 2e6")
        count = 0
        first_colors = [0] if self.symmetry_break else range(self.n_colors)
        for first in first_colors:
            for rest in itertools.product(
                range(self.n_colors), repeat=self.n_vertices - 1
            ):
                assignment = (first, *rest)
                if all(
                    assignment[v] != assignment[u]
                    for v in range(self.n_vertices)
                    for u in self.earlier_neighbors[v]
                ):
                    count += 1
        return count

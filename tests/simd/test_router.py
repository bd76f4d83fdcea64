import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simd.router import RouteResult, ecube_path, route_permutation
from repro.util.rng import as_generator


class TestEcubePath:
    def test_same_node(self):
        assert ecube_path(3, 3, 8) == [3]

    def test_single_bit(self):
        assert ecube_path(0, 4, 8) == [0, 4]

    def test_dimension_order(self):
        # 0 -> 7 in a 3-cube: correct bit 0, then 1, then 2.
        assert ecube_path(0, 7, 8) == [0, 1, 3, 7]

    def test_length_is_hamming_distance(self):
        for src in range(16):
            for dst in range(16):
                path = ecube_path(src, dst, 16)
                assert len(path) - 1 == bin(src ^ dst).count("1")

    def test_adjacent_hops_differ_by_one_bit(self):
        path = ecube_path(5, 10, 16)
        for a, b in zip(path, path[1:]):
            assert bin(a ^ b).count("1") == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ecube_path(0, 1, 6)  # not a power of two
        with pytest.raises(ValueError):
            ecube_path(0, 9, 8)


class TestRoutePermutation:
    def test_identity_is_free(self):
        r = route_permutation(np.arange(8))
        assert r == RouteResult(steps=0, total_hops=0, max_link_load=0)

    def test_single_message_takes_hamming_steps(self):
        dest = np.arange(16)
        dest[0], dest[15] = 15, 0
        r = route_permutation(dest)
        # Two messages, opposite directions, no shared directed links.
        assert r.steps == 4
        assert r.max_link_load == 1

    def test_neighbor_shift_one_step(self):
        # XOR-by-1: every PE swaps with its dimension-0 neighbour.
        dest = np.arange(8) ^ 1
        r = route_permutation(dest)
        assert r.steps == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            route_permutation(np.array([0, 0, 1, 2]))
        with pytest.raises(ValueError):
            route_permutation(np.arange(6))

    @given(st.integers(2, 5), st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_random_permutation_bounds(self, dims, seed):
        n = 1 << dims
        rng = as_generator(seed)
        dest = rng.permutation(n)
        r = route_permutation(dest)
        moved = int((dest != np.arange(n)).sum())
        if moved == 0:
            assert r.steps == 0
            return
        max_dist = max(
            bin(i ^ int(d)).count("1") for i, d in enumerate(dest) if i != int(d)
        )
        assert r.steps >= max_dist  # can't beat the longest path
        # e-cube on random permutations stays within a small factor of
        # log^2 P (the paper's transfer-cost model).
        assert r.steps <= max(1, dims * dims * 4)

    def test_bit_reversal_is_adversarial(self):
        # The classic bad case for e-cube: bit-reversal concentrates
        # traffic. It must congest more than typical random permutations.
        dims = 6
        n = 1 << dims
        rev = np.array(
            [int(format(i, f"0{dims}b")[::-1], 2) for i in range(n)]
        )
        bad = route_permutation(rev)
        rng = as_generator(0)
        random_steps = [
            route_permutation(rng.permutation(n)).steps for _ in range(5)
        ]
        assert bad.steps >= max(random_steps)
        assert bad.max_link_load > 1

    def test_total_hops_is_hamming_sum(self):
        rng = as_generator(3)
        dest = rng.permutation(16)
        r = route_permutation(dest)
        expected = sum(
            bin(i ^ int(d)).count("1") for i, d in enumerate(dest)
        )
        assert r.total_hops == expected

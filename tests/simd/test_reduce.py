import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.simd.reduce import REDUCE_OPS, reduce_array


class TestReduceArray:
    def test_sum(self):
        assert reduce_array(np.array([1, 2, 3]), "sum") == 6

    def test_min_max(self):
        v = np.array([5.0, -2.0, 7.5])
        assert reduce_array(v, "min") == -2.0
        assert reduce_array(v, "max") == 7.5

    def test_any_all(self):
        assert reduce_array(np.array([0, 0, 1]), "any") is True
        assert reduce_array(np.array([1, 1, 0]), "all") is False
        assert reduce_array(np.array([1, 1]), "all") is True

    def test_scalar_types(self):
        assert isinstance(reduce_array(np.array([1, 2]), "sum"), int)
        assert isinstance(reduce_array(np.array([1.0, 2.0]), "sum"), float)
        assert isinstance(reduce_array(np.array([True]), "any"), bool)

    def test_single_element(self):
        assert reduce_array(np.array([7]), "max", method="tree") == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            reduce_array(np.array([]), "sum")
        with pytest.raises(ValueError):
            reduce_array(np.ones((2, 2)), "sum")
        with pytest.raises(ValueError):
            reduce_array(np.array([1]), "median")
        with pytest.raises(ValueError):
            reduce_array(np.array([1]), "sum", method="gpu")

    @pytest.mark.parametrize("op", sorted(REDUCE_OPS))
    @given(values=arrays(np.int64, st.integers(1, 257), elements=st.integers(-50, 50)))
    @settings(max_examples=25, deadline=None)
    def test_tree_matches_numpy(self, op, values):
        a = reduce_array(values, op, method="tree")
        b = reduce_array(values, op, method="numpy")
        assert a == b

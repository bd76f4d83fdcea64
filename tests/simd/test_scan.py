import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.simd.scan import enumerate_mask, rendezvous, sum_scan


class TestSumScan:
    def test_exclusive_basic(self):
        out = sum_scan(np.array([1, 2, 3, 4]))
        assert np.array_equal(out, [0, 1, 3, 6])

    def test_inclusive_basic(self):
        out = sum_scan(np.array([1, 2, 3, 4]), inclusive=True)
        assert np.array_equal(out, [1, 3, 6, 10])

    def test_bool_input_promoted(self):
        out = sum_scan(np.array([True, False, True]))
        assert np.array_equal(out, [0, 1, 1])

    def test_empty(self):
        assert len(sum_scan(np.array([], dtype=np.int64))) == 0

    def test_single_element(self):
        assert sum_scan(np.array([5]))[0] == 0

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            sum_scan(np.ones((2, 2)))

    @given(arrays(np.int64, st.integers(1, 200), elements=st.integers(0, 100)))
    @settings(max_examples=40, deadline=None)
    def test_inclusive_is_exclusive_plus_values(self, values):
        inc = sum_scan(values, inclusive=True)
        exc = sum_scan(values)
        assert np.array_equal(inc, exc + values)


class TestEnumerateMask:
    def test_ranks_true_positions(self):
        mask = np.array([True, False, True, True, False])
        out = enumerate_mask(mask)
        assert np.array_equal(out, [0, -1, 1, 2, -1])

    def test_all_false(self):
        assert np.array_equal(enumerate_mask(np.zeros(4, dtype=bool)), [-1] * 4)

    @given(arrays(np.bool_, st.integers(1, 300)))
    @settings(max_examples=50, deadline=None)
    def test_ranks_are_bijection(self, mask):
        out = enumerate_mask(mask)
        ranks = out[mask]
        assert sorted(ranks.tolist()) == list(range(int(mask.sum())))
        assert np.all(out[~mask] == -1)


class TestRendezvous:
    """Index form: both sets arrive as PE indices in rank order; the
    mask validation lives in ``Matcher.match``."""

    def test_pairs_by_rank(self):
        idle = np.flatnonzero([False, False, True, False, True])
        busy = np.flatnonzero([True, True, False, False, False])
        donors, receivers = rendezvous(idle, busy)
        assert np.array_equal(donors, [0, 1])
        assert np.array_equal(receivers, [2, 4])

    def test_more_idle_than_busy(self):
        donors, receivers = rendezvous(np.array([0, 1, 2]), np.array([3]))
        assert len(donors) == len(receivers) == 1
        assert donors[0] == 3 and receivers[0] == 0

    def test_custom_grantor_order(self):
        # A rotated enumeration (the GP pointer's) is just another order.
        donors, receivers = rendezvous(np.array([0, 4]), np.array([3, 1, 2]))
        assert np.array_equal(donors, [3, 1])
        assert np.array_equal(receivers, [0, 4])

    def test_empty_side_pairs_nothing(self):
        donors, receivers = rendezvous(np.array([0, 1]), np.array([], dtype=np.int64))
        assert len(donors) == len(receivers) == 0

    @given(
        st.integers(1, 200).flatmap(
            lambda n: st.tuples(arrays(np.bool_, n), arrays(np.bool_, n))
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, masks):
        a, b = masks
        idle = a & ~b
        busy = b & ~a
        donors, receivers = rendezvous(np.flatnonzero(idle), np.flatnonzero(busy))
        assert len(donors) == len(receivers) == min(idle.sum(), busy.sum())
        assert busy[donors].all()
        assert idle[receivers].all()
        assert len(set(donors.tolist())) == len(donors)
        assert len(set(receivers.tolist())) == len(receivers)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.simd.scan import enumerate_mask, rendezvous, segmented_sum_scan, sum_scan


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
        assert len(sum_scan(np.array([], dtype=np.int64), method="blelloch")) == 0

    def test_single_element(self):
        assert sum_scan(np.array([5]), method="blelloch")[0] == 0

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            sum_scan(np.ones((2, 2)))

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            sum_scan(np.array([1]), method="magic")

    @given(
        arrays(np.int64, st.integers(0, 300), elements=st.integers(-1000, 1000))
    )
    @settings(max_examples=60, deadline=None)
    def test_blelloch_matches_cumsum(self, values):
        # The tree algorithm the machine runs must agree with the numpy
        # shortcut bit-for-bit, for any length (not just powers of two).
        a = sum_scan(values, method="blelloch")
        b = sum_scan(values, method="cumsum")
        assert np.array_equal(a, b)

    @given(arrays(np.int64, st.integers(1, 200), elements=st.integers(0, 100)))
    @settings(max_examples=40, deadline=None)
    def test_inclusive_is_exclusive_plus_values(self, values):
        inc = sum_scan(values, inclusive=True, method="blelloch")
        exc = sum_scan(values, method="blelloch")
        assert np.array_equal(inc, exc + values)


class TestSegmentedSumScan:
    def test_restarts_at_heads(self):
        values = np.array([1, 2, 3, 4, 5])
        heads = np.array([True, False, True, False, False])
        out = segmented_sum_scan(values, heads)
        assert np.array_equal(out, [0, 1, 0, 3, 7])

    def test_implicit_head_at_zero(self):
        values = np.array([2, 3])
        heads = np.array([False, False])
        assert np.array_equal(segmented_sum_scan(values, heads), [0, 2])

    def test_empty(self):
        out = segmented_sum_scan(np.array([], dtype=np.int64), np.array([], dtype=bool))
        assert len(out) == 0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            segmented_sum_scan(np.array([1, 2]), np.array([True]))

    @given(
        st.integers(1, 100).flatmap(
            lambda n: st.tuples(
                arrays(np.int64, n, elements=st.integers(0, 50)),
                arrays(np.bool_, n),
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_segment_cumsum(self, pair):
        values, heads = pair
        out = segmented_sum_scan(values, heads)
        # Reference: python loop.
        run = 0
        for i in range(len(values)):
            if i == 0 or heads[i]:
                run = 0
            assert out[i] == run
            run += values[i]


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

    @given(arrays(np.bool_, st.integers(1, 200)))
    @settings(max_examples=30, deadline=None)
    def test_blelloch_method_agrees(self, mask):
        assert np.array_equal(
            enumerate_mask(mask), enumerate_mask(mask, method="blelloch")
        )


class TestRendezvous:
    def test_pairs_by_rank(self):
        idle = np.array([False, False, True, False, True])
        busy = np.array([True, True, False, False, False])
        donors, receivers = rendezvous(idle, busy)
        assert np.array_equal(donors, [0, 1])
        assert np.array_equal(receivers, [2, 4])

    def test_more_idle_than_busy(self):
        idle = np.array([True, True, True, False])
        busy = np.array([False, False, False, True])
        donors, receivers = rendezvous(idle, busy)
        assert len(donors) == len(receivers) == 1
        assert donors[0] == 3 and receivers[0] == 0

    def test_custom_grantor_order(self):
        idle = np.array([True, False, False, False])
        busy = np.array([False, True, True, True])
        donors, _ = rendezvous(idle, busy, grantor_order=np.array([3, 1, 2]))
        assert donors[0] == 3

    def test_bad_grantor_order_rejected(self):
        idle = np.array([True, False, False])
        busy = np.array([False, True, True])
        with pytest.raises(ValueError, match="permutation"):
            rendezvous(idle, busy, grantor_order=np.array([1, 1]))

    def test_overlap_rejected(self):
        both = np.array([True, False])
        with pytest.raises(ValueError, match="both"):
            rendezvous(both, both)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rendezvous(np.array([True]), np.array([True, False]))

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
        donors, receivers = rendezvous(idle, busy)
        assert len(donors) == len(receivers) == min(idle.sum(), busy.sum())
        assert busy[donors].all()
        assert idle[receivers].all()
        assert len(set(donors.tolist())) == len(donors)
        assert len(set(receivers.tolist())) == len(receivers)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.matching import GPMatcher, NGPMatcher
from tests.oracles import RendezvousGPMatcher, RendezvousNGPMatcher


def masks(n=st.integers(2, 128)):
    return n.flatmap(
        lambda k: st.tuples(arrays(np.bool_, k), arrays(np.bool_, k))
    ).map(lambda ab: (ab[0] & ~ab[1], ab[1] & ~ab[0]))  # (busy, idle), disjoint


class TestFigure2Example:
    """The paper's Figure 2 worked example, verbatim (0-indexed)."""

    BUSY = np.array([1, 1, 1, 1, 1, 0, 0, 1], dtype=bool)
    IDLE = ~BUSY

    def test_ngp_matches_first_busy(self):
        m = NGPMatcher()
        r = m.match(self.BUSY, self.IDLE)
        # nGP: idle 6,7 (1-indexed) matched to busy 1,2 -> 0-indexed 5,6 <- 0,1
        assert np.array_equal(r.donors, [0, 1])
        assert np.array_equal(r.receivers, [5, 6])

    def test_ngp_repeats_same_donors(self):
        m = NGPMatcher()
        first = m.match(self.BUSY, self.IDLE)
        second = m.match(self.BUSY, self.IDLE)
        assert np.array_equal(first.donors, second.donors)

    def test_gp_example_one(self):
        m = GPMatcher(pointer=4)  # paper: pointer at processor 5 (1-indexed)
        r = m.match(self.BUSY, self.IDLE)
        # GP matches idle 6,7 to busy 8,1 (1-indexed) -> donors 7, 0.
        assert np.array_equal(r.donors, [7, 0])
        assert np.array_equal(r.receivers, [5, 6])
        assert m.pointer == 0  # advanced to processor 1 (1-indexed)

    def test_gp_example_two(self):
        m = GPMatcher(pointer=4)
        m.match(self.BUSY, self.IDLE)
        r = m.match(self.BUSY, self.IDLE)
        # Next phase: donors are processors 2 and 3 (1-indexed) -> 1, 2.
        assert np.array_equal(r.donors, [1, 2])
        assert m.pointer == 2

    def test_gp_enumeration_ranks(self):
        m = GPMatcher(pointer=4)
        r = m.match(self.BUSY, self.IDLE)
        # Paper's GP enumeration: processors (1..5, 8) get ranks
        # (2,3,4,5,6,1) 1-indexed -> 0-indexed ranks (1,2,3,4,5,0).
        assert np.array_equal(r.busy_ranks, [1, 2, 3, 4, 5, -1, -1, 0])


class TestNGPMatcher:
    def test_no_busy_yields_empty(self):
        r = NGPMatcher().match(np.zeros(4, bool), np.ones(4, bool))
        assert len(r) == 0

    def test_overlap_rejected(self):
        both = np.array([True, False])
        with pytest.raises(ValueError):
            NGPMatcher().match(both, both)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            NGPMatcher().match(np.array([True]), np.array([False, False]))
        with pytest.raises(ValueError, match="1-D"):
            NGPMatcher().match(np.zeros((2, 2), bool), np.zeros((2, 2), bool))

    @given(masks())
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, bm):
        busy, idle = bm
        r = NGPMatcher().match(busy, idle)
        assert len(r.donors) == min(busy.sum(), idle.sum())
        assert busy[r.donors].all() if len(r.donors) else True
        assert idle[r.receivers].all() if len(r.receivers) else True
        assert len(np.unique(r.donors)) == len(r.donors)


class TestGPMatcher:
    def test_fresh_matcher_equals_ngp(self):
        busy = np.array([1, 0, 1, 1, 0, 1], dtype=bool)
        idle = ~busy
        gp = GPMatcher().match(busy, idle)
        ngp = NGPMatcher().match(busy, idle)
        assert np.array_equal(gp.donors, ngp.donors)
        assert np.array_equal(gp.receivers, ngp.receivers)

    def test_reset_clears_pointer(self):
        m = GPMatcher(pointer=3)
        m.reset()
        assert m.pointer is None

    def test_pointer_wraps(self):
        busy = np.array([1, 1, 0, 0], dtype=bool)
        idle = ~busy
        m = GPMatcher(pointer=3)  # past the last busy PE -> wrap to 0
        r = m.match(busy, idle)
        assert np.array_equal(r.donors, [0, 1])

    def test_rotation_distributes_burden(self):
        # With one idle PE and three persistent donors, GP cycles through
        # all donors; nGP always picks the first.
        busy = np.array([1, 1, 1, 0], dtype=bool)
        idle = ~busy
        m = GPMatcher()
        donors = [int(m.match(busy, idle).donors[0]) for _ in range(6)]
        assert donors == [0, 1, 2, 0, 1, 2]

    @given(masks())
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, bm):
        busy, idle = bm
        m = GPMatcher()
        for _ in range(3):
            r = m.match(busy, idle)
            assert len(r.donors) == min(busy.sum(), idle.sum())
            if len(r.donors):
                assert busy[r.donors].all()
                assert idle[r.receivers].all()
                assert len(np.unique(r.donors)) == len(r.donors)

    @given(masks(), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_every_busy_pe_donates_within_rotation(self, bm, rounds):
        # The V(P) argument: with a fixed busy set and at least one idle
        # PE, ceil(A / k) phases cover every busy PE (k pairs per phase).
        busy, idle = bm
        a, i = int(busy.sum()), int(idle.sum())
        if a == 0 or i == 0:
            return
        k = min(a, i)
        phases_needed = -(-a // k)
        m = GPMatcher()
        seen: set[int] = set()
        for _ in range(phases_needed):
            seen.update(m.match(busy, idle).donors.tolist())
        assert seen == set(np.flatnonzero(busy).tolist())


#: (product factory, oracle factory) per scheme; GP takes a start pointer.
SCHEMES = {
    "nGP": (lambda p: NGPMatcher(), lambda p: RendezvousNGPMatcher()),
    **{
        f"GP[{a}]": (
            lambda p, a=a: GPMatcher(pointer=p, advance=a),
            lambda p, a=a: RendezvousGPMatcher(pointer=p, advance=a),
        )
        for a in ("last_donor", "first_donor", "frozen")
    },
}


@st.composite
def match_sequences(draw):
    """A start pointer (``None`` or any PE, so also past the last busy
    one) and 1-8 rounds of disjoint busy/idle masks of one width."""
    n = draw(st.integers(1, 40))
    pointer = draw(st.none() | st.integers(0, n - 1))
    rounds = draw(st.lists(masks(st.just(n)), min_size=1, max_size=8))
    return pointer, rounds


class TestOracleEquivalence:
    """``pair`` and ``match`` against the mask/rendezvous reference in
    ``tests/oracles``: same donors, receivers and pointer after every call."""

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @given(seq=match_sequences())
    @settings(max_examples=80, deadline=None)
    def test_pair_sequences_equal_oracle(self, scheme, seq):
        pointer, rounds = seq
        make, make_oracle = SCHEMES[scheme]
        m, oracle = make(pointer), make_oracle(pointer)
        for busy, idle in rounds:
            donors, receivers = m.pair(np.flatnonzero(busy), np.flatnonzero(idle))
            want = oracle.match(busy, idle)
            assert np.array_equal(donors, want.donors)
            assert np.array_equal(receivers, want.receivers)
            assert getattr(m, "pointer", None) == getattr(oracle, "pointer", None)

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @given(seq=match_sequences())
    @settings(max_examples=80, deadline=None)
    def test_match_sequences_equal_oracle(self, scheme, seq):
        pointer, rounds = seq
        make, make_oracle = SCHEMES[scheme]
        m, oracle = make(pointer), make_oracle(pointer)
        for busy, idle in rounds:
            got, want = m.match(busy, idle), oracle.match(busy, idle)
            assert np.array_equal(got.donors, want.donors)
            assert np.array_equal(got.receivers, want.receivers)
            assert np.array_equal(got.busy_ranks, want.busy_ranks)
            assert np.array_equal(got.idle_ranks, want.idle_ranks)
            assert getattr(m, "pointer", None) == getattr(oracle, "pointer", None)

    @pytest.mark.parametrize("advance", ["last_donor", "first_donor", "frozen"])
    def test_pointer_past_last_busy_wraps_like_oracle(self, advance):
        busy = np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=bool)
        idle = np.array([1, 0, 0, 1, 0, 1, 0, 1], dtype=bool)
        m = GPMatcher(pointer=6, advance=advance)
        oracle = RendezvousGPMatcher(pointer=6, advance=advance)
        for _ in range(4):
            donors, _ = m.pair(np.flatnonzero(busy), np.flatnonzero(idle))
            assert np.array_equal(donors, oracle.match(busy, idle).donors)
            assert m.pointer == oracle.pointer
